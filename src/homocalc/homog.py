"""Positively homogeneous functions and their map families.

A sublinear map is the support function sigma_C of a convex compact set C
(its subdifferential at the origin); a superlinear map is the mirror image
x -> -sigma_C(-x), the pointwise minimum over C (its superdifferential).
Both are one evaluator with a sign and keep C in `.set`.  A PH function is
represented by an inf-family of sublinear maps (upper semicontinuous side),
a sup-family of superlinear maps (lower semicontinuous side), or both
(continuous), optionally paired with a closed-form oracle used for
cross-checks only: evaluation, sphere bounds and norm envelopes read the
families alone; a lift reports its drift from the oracle as data (fcalc's
max_residual), and the envelopes check the family against the oracle on a
sphere-grid subsample.  A finite family is an explicit list of maps, and
its value at a point is the extremum over every member's value; members
that are linear maps of one class are evaluated as one stacked matrix, in
their own arithmetic.  An infinite family is never enumerated: it names,
per point, one member that attains its extremum (a witness), and its value
is that member's value; where it also declares a certified bound, the
witness value must equal the bound bitwise.

Semicontinuity cannot be certified from finitely many samples; the kind tag
is declarative and only the oracle/family agreement is checked numerically.
"""

from itertools import product

import numpy as np

from .convexsets import (
    Ball,
    VPolytope,
    _default_grid,
    _dot_paired,
    _fold,
    sphere_grid,
    support_batch,
)
from .errors import (
    DimensionMismatch,
    EmptyFamily,
    EnvelopeViolation,
    NonFiniteResult,
    UnattainedBound,
    UnknownBuiltin,
)


class RepresentationWarning(UserWarning):
    """Never raised: drift from the oracle is data, the max_residual of
    fcalc.fc_semicontinuous_detailed.  Kept defined and exported because the
    warning filters in bench/workloads.py and bench/test_bench.py name it."""


def _finite_values(evaluate, points, op, name="", unit="column"):
    """evaluate() at finite points, with every value inside the float range.

    A NaN or infinite point raises ValueError before evaluate() runs.  A
    value outside the float range raises NonFiniteResult naming the first
    bad column (or point); values of shape (r, k) are checked per column.
    Overflow on the way to a finite value raises nothing.
    """
    if not np.isfinite(points).all():
        raise ValueError(f"{name or op}: points must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        values = evaluate()
    finite = np.isfinite(values)
    if not finite.all():
        bad = np.flatnonzero(~np.atleast_2d(finite).all(axis=0))
        where = f"{name}: " if name else ""
        raise NonFiniteResult(op, f"{where}the value at {unit} {bad[0]} is outside the float range")
    return values


class _SupportMap:
    """x -> sign * max{a.(sign * x) : a in set}, for sign = +1 or -1.

    Called at x of shape (n,) it returns a float, at x of shape (n, k) the
    values at the k columns.  A NaN or infinite point raises ValueError, and
    a finite point whose value leaves the float range NonFiniteResult.
    """

    def __init__(self, s, label=""):
        if not isinstance(s, (VPolytope, Ball)):
            raise TypeError(f"{self.set_key} must be a VPolytope or Ball")
        self.set = s
        self.label = str(label)

    @property
    def dim(self):
        return self.set.dim

    def _values(self, cols):
        """sign * support(sign * x) at the columns of cols (n, k), unchecked: a
        family scan lets a member overflow on the way to a finite extremum.
        A sublinear map reads cols.T as it is, since 1.0 * x is x bitwise
        (signed zeros and NaN included); a superlinear map flips both."""
        if self.sign > 0:
            return support_batch(self.set, cols.T)
        return self.sign * support_batch(self.set, self.sign * cols.T)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        cols = x.reshape(x.shape[0], -1)
        values = _finite_values(lambda: self._values(cols), cols, type(self).__name__)
        return float(values[0]) if x.ndim == 1 else values

    def __repr__(self):
        return f"{type(self).__name__}({self.label or self.set!r})"


class SublinearMap(_SupportMap):
    """Support function of its subdifferential `set`: x -> max{a.x : a in set}."""

    sign = 1.0
    key, set_key = "sublinear", "subdiff"


class SuperlinearMap(_SupportMap):
    """Minimum over its superdifferential `set`: x -> min{a.x : a in set}."""

    sign = -1.0
    key, set_key = "superlinear", "superdiff"


# ---------------------------------------------------------------------------
# families

class FiniteFamily:
    """Explicit finite list of maps; its value is the extremum over every member.

    values(cols, members) is the values of maps[members], for a slice
    `members`, at the columns of cols (n, k), one row per member, each row
    bitwise the member's own values.  When every member is a linear map of
    one class (each set a one-vertex VPolytope, and all SublinearMap or all
    SuperlinearMap), a block is one stacked matrix of their vertices,
    sign * (V . (sign * x)), the maps' own arithmetic; otherwise each member
    evaluates the columns in turn.
    """

    def __init__(self, maps):
        maps = tuple(maps)
        if not maps:
            raise ValueError("finite family needs at least one map")
        self.maps = maps
        self._stack = None
        linear = all(isinstance(m.set, VPolytope) and len(m.set.vertices) == 1 for m in maps)
        if linear and len({(type(m), m.dim) for m in maps}) == 1:
            self._stack = np.vstack([m.set.vertices for m in maps])

    def values(self, cols, members):
        if self._stack is None:
            return np.array([m._values(cols) for m in self.maps[members]])
        sign = self.maps[0].sign
        return sign * _dot_paired(self._stack[members, None, :], sign * cols)


class WitnessFamily:
    """An infinite family, evaluated at one attaining member per column.

    For X of shape (n, k), witness_fn(X) returns the parameters of one member
    per column that attains the family's extremum there, and
    member_fn(params, X) the values of those members, elementwise.

    bound_fn(X), when given, is the family's certificate: per column, a value
    no member can beat in floating point (a floor for an inf-family, a
    ceiling for a sup-family), proven from the member formula and never from
    an oracle.  A witness value is returned only where it equals the bound
    bitwise; anywhere else evaluation raises UnattainedBound.  Without a
    bound_fn the witness value is returned as it is, uncertified.
    """

    def __init__(self, witness_fn, member_fn, bound_fn=None):
        self.witness_fn = witness_fn
        self.member_fn = member_fn
        self.bound_fn = bound_fn


class PHFunction:
    """A positively homogeneous function given by representing families.

    kind is derived from which sides are present: "usc" (inf-family only),
    "lsc" (sup-family only) or "cts" (both).  The oracle, when present, is a
    vectorized closed form over arrays shaped (..., dim); it never feeds the
    engine, only cross-checks.
    """

    def __init__(self, name, dim, inf_family=None, sup_family=None, oracle=None):
        if inf_family is None and sup_family is None:
            raise EmptyFamily("PHFunction", f"{name}: needs at least one family side")
        self.name = str(name)
        self.dim = int(dim)
        self.inf_family = inf_family
        self.sup_family = sup_family
        self.oracle = oracle

    @property
    def kind(self):
        if self.inf_family is not None and self.sup_family is not None:
            return "cts"
        return "usc" if self.inf_family is not None else "lsc"

    def __repr__(self):
        return f"PHFunction({self.name!r}, kind={self.kind}, dim={self.dim})"


def _pick_side(h, side):
    if side == "auto":
        side = "inf" if h.inf_family is not None else "sup"
    if side not in ("inf", "sup"):
        raise ValueError(f"side must be 'auto', 'inf' or 'sup', got {side!r}")
    family = h.inf_family if side == "inf" else h.sup_family
    if family is None:
        raise EmptyFamily("eval_family", f"{h.name}: no {side}-family")
    return side, family


def _scan_columns(family, X, minimize):
    """Extremum of a finite family at every column of X, shape (n, k).

    The member-order fold (_fold) of every member, over all columns at
    once, in blocks of members of k values each, so ties keep the later
    member and a column's value does not depend on the batch.
    """
    ufunc = np.minimum if minimize else np.maximum
    return _fold(ufunc, lambda members: family.values(X, members), len(family.maps), X.shape[1])


def _witness_columns(name, family, X):
    """Value of a witness family's member at every column of X (n, k),
    checked bitwise against the family's bound where it has one."""
    values = np.asarray(family.member_fn(family.witness_fn(X), X), dtype=float)
    if family.bound_fn is not None:
        bound = np.asarray(family.bound_fn(X), dtype=float)
        miss = np.flatnonzero(values.view(np.int64) != bound.view(np.int64))
        if miss.size:
            raise UnattainedBound(
                "eval_family", f"{name}: the witness at column {miss[0]} misses the family's bound"
            )
    return values


def _eval_columns(h, X, side):
    """(values, terms) of h at the columns of X (n, k).

    A finite family folds all its members, which are its terms; a witness
    family evaluates one member per column, which counts as one term.
    Raises ValueError on a NaN or infinite point, UnattainedBound where a
    witness misses its certified bound, and NonFiniteResult when a value
    leaves the float range; members that overflow on the way to a finite
    value raise nothing.
    """
    chosen, family = _pick_side(h, side)
    if isinstance(family, WitnessFamily):
        terms, evaluate = 1, lambda: _witness_columns(h.name, family, X)
    else:
        terms, evaluate = len(family.maps), lambda: _scan_columns(family, X, chosen == "inf")
    return _finite_values(evaluate, X, "eval_family", h.name), terms


def eval_family(h, x, side="auto"):
    """Value of h at x through its representing family."""
    value, _ = eval_family_detailed(h, x, side=side)
    return value


def eval_family_detailed(h, x, side="auto"):
    """(value, terms used) at one point: the one-column batched evaluation.

    Raises ValueError on a NaN or infinite point, UnattainedBound where a
    witness misses its certified bound, and NonFiniteResult on a value
    outside the float range.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != h.dim:
        raise DimensionMismatch("eval_family", f"point has dim {x.size}, function has dim {h.dim}")
    values, terms = _eval_columns(h, x[:, None], side)
    return float(values[0]), terms


# ---------------------------------------------------------------------------
# envelopes on the sphere grid

def _sphere_bounds(h, grid, op):
    """(m, M) with -m = min and M = max of h's family over the rows of grid.

    Where h has an oracle, it is read once, at every len(grid) // 128-th
    row, and a family value that differs from it by more than
    1e-6 (1 + |oracle|) raises EnvelopeViolation.
    """
    vals = _eval_columns(h, grid.T, "auto")[0]
    if h.oracle is not None:
        stride = max(1, len(grid) // 128)
        orc = np.asarray(h.oracle(grid[::stride]), dtype=float)
        diff = np.abs(vals[::stride] - orc)
        bad = np.nonzero(diff > 1e-6 * (1.0 + np.abs(orc)))[0]
        if bad.size:
            raise EnvelopeViolation(
                op,
                f"{h.name}: family and oracle disagree by {diff[bad[0]]:.3e} "
                "on the sphere grid (bad oracle or coarse family)",
            )
    return float(-vals.min()), float(vals.max())


def domination_envelopes(h, grid_density=None):
    """Norm envelopes (psi, phi) with psi <= h <= phi on the sphere grid.

    psi = -m.||.|| (superdiff = ball of radius m), phi = M.||.||, with
    (-m, M) the min and max of h's family on the grid; negative sphere
    bounds, and -0.0, clamp to radius +0.0 so both maps stay genuinely
    super/sub linear.
    An oracle never feeds the bounds: where h has one, it is cross-checked
    against the family on a grid subsample, and disagreement raises
    EnvelopeViolation.
    """
    grid = _default_grid(h.dim) if grid_density is None else sphere_grid(h.dim, grid_density)
    m, M = (max(0.0, b) for b in _sphere_bounds(h, grid, "domination_envelopes"))
    center = np.zeros(h.dim)
    psi = SuperlinearMap(Ball(center, m), label=f"-{m:g}*norm")
    phi = SublinearMap(Ball(center, M), label=f"{M:g}*norm")
    return psi, phi


# ---------------------------------------------------------------------------
# built-in functions
#
# Examples 7.1 and 7.2 are infinite families with integer member
# parameters.  Their witnesses are members whose integer parameter is a
# power of two, 2^k, kept as the exponent k and applied with np.ldexp: the
# product 2^k y is then exact, or infinite with the right sign, and 2^k
# itself is never formed, so k may exceed the float range's exponents.

def _cover_exponent(a, b):
    """Smallest k >= 0 with 2^k |b| >= |a|, elementwise, for nonzero b.

    Read from the frexp exponents and mantissas, so the ratio a/b is never
    formed: with |a| = ma 2^ea and |b| = mb 2^eb (ma, mb in [1/2, 1)),
    2^(ea - eb) |b| >= |a| exactly when mb >= ma.
    """
    ma, ea = np.frexp(np.abs(a))
    mb, eb = np.frexp(np.abs(b))
    return np.maximum(ea - eb + (mb < ma), 0)


def quadrant_sum():
    """x+y on the closed positive quadrant, 0 elsewhere (usc).

    Inf-family of maps (mx+ny)^+ over positive integer pairs (m, n).  The
    witness at a column is (1, 1), except for x > 0 > y, where it is
    (1, 2^k) with the smallest k >= 0 such that 2^k |y| >= x, whose value
    is 0; y > 0 > x is the mirror image.  Parameters are the exponents of m
    and n.
    """

    def witness(X):
        x, y = X
        return (
            np.where((y > 0) & (x < 0), _cover_exponent(y, x), 0),
            np.where((x > 0) & (y < 0), _cover_exponent(x, y), 0),
        )

    def member(exps, X):
        return np.maximum(np.ldexp(X[0], exps[0]) + np.ldexp(X[1], exps[1]), 0.0)

    def floor(X):
        # every member is >= 0, and on the closed first quadrant m, n >= 1
        # make it >= (x + y)^+ (rounding is monotone)
        x, y = X
        return np.where((x >= 0) & (y >= 0), np.maximum(x + y, 0.0), 0.0)

    def oracle(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return np.where((x >= 0) & (y >= 0), x + y, 0.0)

    return PHFunction(
        "example-7.1",
        2,
        inf_family=WitnessFamily(witness, member, bound_fn=floor),
        oracle=oracle,
    )


def sign_switch():
    """x when both coordinates are positive, y when y is negative, else 0 (lsc).

    Sup-family of maps min{lambda*x, n*y}, lambda in {0,1}, n a positive
    integer.  The witness at a column with x, y > 0 is (1, 2^k) with the
    smallest k >= 0 such that 2^k y >= x, whose value is x; at every other
    column it is (0, 1).  Parameters are lambda and the exponent of n.
    """

    def witness(X):
        x, y = X
        pos = (x > 0) & (y > 0)
        return pos.astype(float), np.where(pos, _cover_exponent(x, y), 0)

    def member(params, X):
        lam, e = params
        return np.minimum(lam * X[0], np.ldexp(X[1], e))

    def ceiling(X):
        # n >= 1 makes every member <= n*y <= y when y <= 0; lam in {0, 1}
        # makes it <= lam*x <= max(0*x, x) when y > 0
        x, y = X
        return np.where(y > 0, np.maximum(0.0 * x, x), y)

    def oracle(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return np.where((x > 0) & (y > 0), x, np.where(y < 0, y, 0.0))

    return PHFunction(
        "example-7.2",
        2,
        sup_family=WitnessFamily(witness, member, bound_fn=ceiling),
        oracle=oracle,
    )


def disk_map():
    return SublinearMap(Ball([0.0, 0.0], 1.0), label="euclidean")


def _tangents(count):
    """The directions (cos t, sin t) at t = 2 pi k / count, one row per k."""
    theta = np.arange(count) * (2.0 * np.pi / count)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def angle_superlinear_family(count):
    """Finite family of tangent linear maps (cos t, sin t) on a uniform grid."""
    T = _tangents(count)
    maps = [SuperlinearMap(VPolytope([t]), label=f"tangent({k}/{count})") for k, t in enumerate(T)]
    return FiniteFamily(maps)


def circumscribed_polygon_map(count):
    """Sublinear map whose subdifferential is the regular polygon tangent to
    the unit disk from outside; dominates the euclidean norm within
    sec(pi/count) - 1 relative."""
    r = 1.0 / np.cos(np.pi / count)
    theta = (2.0 * np.arange(count) + 1.0) * (np.pi / count)
    verts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return SublinearMap(VPolytope(verts), label=f"circumscribed-{count}")


def square_mean():
    """Euclidean norm on R^2 (continuous): the disk as inf-family, and as
    sup-family the tangent linear maps u.x over all unit vectors
    u = (cos t, sin t).  The sup-family's witness is the tangent at
    t = atan2(y, x), the direction of the column itself, and its value is
    the tangent's own u.x wherever no product underflows.  It has no
    bound_fn: its value is the norm only up to rounding."""

    def unit_scaled(X):
        # each column whose largest coordinate is normal, scaled by a power
        # of two to below 1 in magnitude, and the exponents that undo it:
        # arctan2 and the products see the same bits for x and for 2^k x,
        # and no product underflows where the value is normal, so the
        # value commutes with power-of-two scaling.  A column of subnormals
        # and zeros keeps exponent 0 and is evaluated as it stands.
        top = np.maximum(np.abs(X[0]), np.abs(X[1]))
        e = np.where(top >= np.finfo(float).tiny, np.frexp(top)[1], 0)
        return np.ldexp(X, -e), e

    def witness(X):
        (x, y), _ = unit_scaled(X)
        return np.arctan2(y, x)

    def member(t, X):
        (x, y), e = unit_scaled(X)
        return np.ldexp(np.cos(t) * x + np.sin(t) * y, e)

    def oracle(pts):
        pts = np.asarray(pts, dtype=float)
        return np.hypot(pts[..., 0], pts[..., 1])

    return PHFunction(
        "square-mean",
        2,
        inf_family=FiniteFamily([disk_map()]),
        sup_family=WitnessFamily(witness, member),
        oracle=oracle,
    )


def _polytope_function(name, vertices, label, labels, oracle):
    """The support function of the rows of vertices, continuous: as its
    inf-family the polytope's SublinearMap, labelled label, and as its
    sup-family the linear SuperlinearMap of each vertex, labelled by
    labels in vertex order."""
    inf_family = FiniteFamily([SublinearMap(VPolytope(vertices), label=label)])
    sup_family = FiniteFamily([SuperlinearMap(VPolytope([v]), label=lab) for v, lab in zip(vertices, labels)])
    return PHFunction(name, vertices.shape[1], inf_family, sup_family, oracle)


def abs_sum(n=2):
    """l1 norm on R^n (continuous): the support function of the 2^n sign
    vectors, in product order, labelled l1 and sign0, sign1, ..."""
    signs = np.array(list(product([-1.0, 1.0], repeat=n)))

    def oracle(pts):
        return np.abs(np.asarray(pts, dtype=float)).sum(axis=-1)

    return _polytope_function("abs-sum", signs, "l1", [f"sign{k}" for k in range(len(signs))], oracle)


def max_coord(n=2):
    """Largest coordinate on R^n (continuous): the support function of the
    standard basis, whose hull is the standard simplex, labelled max and
    coord1, ..., coordn."""

    def oracle(pts):
        return np.asarray(pts, dtype=float).max(axis=-1)

    return _polytope_function("max-coord", np.eye(n), "max", [f"coord{k + 1}" for k in range(n)], oracle)


_BUILTINS = {
    "example-7.1": quadrant_sum,
    "example-7.2": sign_switch,
    "square-mean": square_mean,
    "abs-sum": abs_sum,
    "max-coord": max_coord,
}


def builtin(name, **kwargs):
    """Named ready-made PHFunctions; kwargs pass through to the factory:
    n for abs-sum and max-coord."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTINS))
        raise UnknownBuiltin("builtin", f"unknown name {name!r}; known: {known}") from None
    return factory(**kwargs)
