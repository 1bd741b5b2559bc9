"""Positively homogeneous functions and their map families.

A sublinear map is the support function sigma_C of a convex compact set C
(its subdifferential at the origin); a superlinear map is the mirror image
x -> -sigma_C(-x), the pointwise minimum over C (its superdifferential).
Both are one evaluator with a sign and keep C in `.set`.  A PH function is
represented by an inf-family of sublinear maps (upper semicontinuous side),
a sup-family of superlinear maps (lower semicontinuous side), or both
(continuous), optionally paired with a closed-form oracle used for
cross-checks only: evaluation reads the families alone, and a lift reports
its drift from the oracle as data (fcalc's max_residual).  A finite family
is an explicit list of maps, and its value at a point is the extremum over
every member's value; members that are linear maps of one class are
evaluated as one stacked matrix, in their own arithmetic.  An infinite
family is never enumerated: it names, per point, one member that attains
its extremum (a witness), and its value is that member's value; where it
also declares a certified bound, the witness value must equal the bound
bitwise.

Semicontinuity cannot be certified from finitely many samples; the kind tag
is declarative and only the oracle/family agreement is checked numerically.
"""

import numpy as np
from scipy.special import ndtri

from .convexsets import (
    _BLOCK_CELLS,
    Ball,
    VPolytope,
    _dot_columns,
    set_from_json,
    set_to_json,
    support_batch,
)
from .errors import (
    DimensionMismatch,
    EmptyFamily,
    EnvelopeViolation,
    NonFiniteResult,
    SchemaError,
    UnattainedBound,
    UnknownBuiltin,
)

DEFAULT_TOL = 1e-9
_EVAL_CHUNK = 512


class RepresentationWarning(UserWarning):
    """Never raised: drift from the oracle is data, the max_residual of
    fcalc.fc_semicontinuous_detailed.  Kept defined and exported because the
    warning filters in bench/workloads.py and bench/test_bench.py name it."""


def _finite_values(evaluate, points, op, name="", unit="column", lazy=False):
    """evaluate() at finite points, with every value inside the float range.

    A NaN or infinite point raises ValueError before evaluate() runs, or,
    with lazy=True, only once some value is not finite (a support map's
    value at such a point is never finite).  A value outside the float range raises
    NonFiniteResult naming the first bad column (or point); values of shape
    (r, k) are checked per column.  Overflow on the way to a finite value
    raises nothing.
    """

    def check_points():
        if not np.isfinite(points).all():
            raise ValueError(f"{name or op}: points must be finite")

    if not lazy:
        check_points()
    with np.errstate(over="ignore", invalid="ignore"):
        values = evaluate()
    finite = np.isfinite(values)
    if not finite.all():
        check_points()
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
        # at the columns of cols (n, k), unchecked: a family scan lets a member
        # overflow on the way to a finite extremum
        return self.sign * support_batch(self.set, self.sign * cols.T)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        cols = x.reshape(x.shape[0], -1)
        values = _finite_values(lambda: self._values(cols), cols, type(self).__name__, lazy=True)
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

    values(cols, a, b) is the values of maps[a:b] at the columns of cols
    (n, k), shape (b-a, k), each row bitwise the member's own values.  When
    every member is a linear map of one class (each set a one-vertex
    VPolytope, and all SublinearMap or all SuperlinearMap), a block is one
    stacked matrix of their vertices, sign * (V . (sign * x)), the maps' own
    arithmetic; otherwise each member evaluates the columns in turn.
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

    def values(self, cols, a, b):
        if self._stack is None:
            return np.array([m._values(cols) for m in self.maps[a:b]])
        sign = self.maps[0].sign
        return sign * _dot_columns(self._stack[a:b], sign * cols)


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
    engine, only cross-checks and sphere grids.
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

    def oracle_at(self, x):
        return float(self.oracle(np.asarray(x, dtype=float)))

    def __repr__(self):
        return f"PHFunction({self.name!r}, kind={self.kind}, dim={self.dim})"


def _pick_side(h, side):
    if side == "auto":
        side = "inf" if h.inf_family is not None else "sup"
    if side == "inf":
        if h.inf_family is None:
            raise EmptyFamily("eval_family", f"{h.name}: no inf-family")
        return "inf", h.inf_family
    if side == "sup":
        if h.sup_family is None:
            raise EmptyFamily("eval_family", f"{h.name}: no sup-family")
        return "sup", h.sup_family
    raise ValueError(f"side must be 'auto', 'inf' or 'sup', got {side!r}")


def _scan_columns(family, X, minimize):
    """Extremum of a finite family at every column of X, shape (n, k).

    The fold of every member in order.  Columns go in groups of at most
    _EVAL_CHUNK and members in blocks of at most _BLOCK_CELLS
    member-by-column cells; every step is elementwise and ties keep the
    later member, so a column's value does not depend on its batch.
    """
    k = X.shape[1]
    total = len(family.maps)
    values = np.empty(k)
    for c0 in range(0, k, _EVAL_CHUNK):
        cols = X[:, c0 : c0 + _EVAL_CHUNK]
        width = cols.shape[1]
        step = max(1, min(_EVAL_CHUNK, _BLOCK_CELLS // width))
        best = np.full(width, np.inf)
        for a in range(0, total, step):
            vals = family.values(cols, a, min(a + step, total))
            best = np.minimum(best, np.minimum.accumulate(vals if minimize else -vals, axis=0)[-1])
        values[c0 : c0 + width] = best
    return values if minimize else -values


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
# sphere grids and envelopes

def _kronecker_alphas(n):
    # root of x**(n+1) = x + 1, Newton from 1.5; deterministic
    phi = 1.5
    for _ in range(64):
        phi -= (phi ** (n + 1) - phi - 1.0) / ((n + 1) * phi**n - 1.0)
    return np.array([(1.0 / phi) ** (j + 1) % 1.0 for j in range(n)])


def sphere_grid(n, density):
    """Deterministic unit-sphere sample: uniform angles (n=2), Fibonacci
    spiral (n=3), Kronecker lattice through the Gaussian (n>=4)."""
    if density < 8:
        raise ValueError("grid density must be >= 8")
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        theta = np.arange(density) * (2.0 * np.pi / density)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if n == 3:
        i = np.arange(density, dtype=float)
        offset = 2.0 / density
        increment = np.pi * (3.0 - np.sqrt(5.0))
        y = i * offset - 1.0 + offset / 2.0
        r = np.sqrt(np.maximum(1.0 - y * y, 0.0))
        phi = ((i + 1) % density) * increment
        return np.column_stack([np.cos(phi) * r, y, np.sin(phi) * r])
    alphas = _kronecker_alphas(n)
    i = np.arange(1, density + 1, dtype=float)
    u = (0.5 + np.outer(i, alphas)) % 1.0
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    bad = norms < 1e-9
    if np.any(bad):
        z[bad] = 0.0
        z[bad, 0] = 1.0
        norms[bad] = 1.0
    return z / norms[:, None]


def _values_on_grid(h, grid):
    if h.oracle is not None:
        return np.asarray(h.oracle(grid), dtype=float)
    return _eval_columns(h, grid.T, "auto")[0]


def _default_density(n):
    return 720 if n <= 2 else 2000


def sphere_bounds(h):
    """(m, M) with -m = min and M = max of h over the default sphere grid."""
    vals = _values_on_grid(h, sphere_grid(h.dim, _default_density(h.dim)))
    return float(-vals.min()), float(vals.max())


def domination_envelopes(h, grid_density=None):
    """Norm envelopes (psi, phi) with psi <= h <= phi on the sphere grid.

    psi = -m.||.|| (superdiff = ball of radius m), phi = M.||.||; negative
    sphere bounds clamp to radius 0 so both maps stay genuinely super/sub
    linear.  When both an oracle and a family are present they are
    cross-checked on a grid subsample; disagreement raises
    EnvelopeViolation, as does an actual bracket violation on the grid.
    """
    density = _default_density(h.dim) if grid_density is None else int(grid_density)
    grid = sphere_grid(h.dim, density)
    vals = _values_on_grid(h, grid)
    m, M = float(-vals.min()), float(vals.max())
    m_env = max(m, 0.0)
    M_env = max(M, 0.0)
    center = np.zeros(h.dim)
    psi = SuperlinearMap(Ball(center, m_env), label=f"-{m_env:g}*norm")
    phi = SublinearMap(Ball(center, M_env), label=f"{M_env:g}*norm")

    norms = np.linalg.norm(grid, axis=1)
    slack = 1e-12 * (1.0 + abs(m_env) + abs(M_env))
    low = -m_env * norms
    high = M_env * norms
    if np.any(vals < low - slack) or np.any(vals > high + slack):
        worst = max(float((low - vals).max()), float((vals - high).max()))
        raise EnvelopeViolation(
            "domination_envelopes",
            f"{h.name}: grid values escape [-m, M] envelope by {worst:.3e}",
        )
    if h.oracle is not None:
        stride = max(1, density // 128)
        fam = _eval_columns(h, grid[::stride].T, "auto")[0]
        orc = vals[::stride]
        diff = np.abs(fam - orc)
        bad = np.nonzero(diff > 1e-6 * (1.0 + np.abs(orc)))[0]
        if bad.size:
            raise EnvelopeViolation(
                "domination_envelopes",
                f"{h.name}: family and oracle disagree by {diff[bad[0]]:.3e} "
                "on the sphere grid (bad oracle or coarse family)",
            )
    return psi, phi


class HomogeneityReport:
    def __init__(self, name, samples, violations, seed):
        self.name = name
        self.samples = samples
        self.violations = violations
        self.seed = seed

    @property
    def passed(self):
        return not self.violations


def check_positive_homogeneity(h, samples=200, tol=DEFAULT_TOL, seed=0):
    """Sample |h(lam*x) - lam*h(x)| <= tol*(1+lam) through the oracle."""
    if h.oracle is None:
        raise ValueError("check_positive_homogeneity needs an oracle")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x504F53]))
    xs = rng.uniform(-5.0, 5.0, size=(samples, h.dim))
    lams = rng.uniform(0.0, 10.0, size=samples)
    violations = []
    for x, lam in zip(xs, lams):
        lhs = float(h.oracle(lam * x))
        rhs = lam * float(h.oracle(x))
        if abs(lhs - rhs) > tol * (1.0 + lam):
            violations.append({"x": x.tolist(), "lambda": float(lam), "gap": abs(lhs - rhs)})
    return HomogeneityReport(h.name, samples, violations, seed)


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


def angle_superlinear_family(count):
    """Finite family of tangent linear maps (cos t, sin t) on a uniform grid."""
    theta = np.arange(count) * (2.0 * np.pi / count)
    T = np.column_stack([np.cos(theta), np.sin(theta)])
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
    t = atan2(y, x), the direction of the column itself.  It has no
    bound_fn: its value is the norm only up to rounding."""

    def member(t, X):
        return np.cos(t) * X[0] + np.sin(t) * X[1]

    def oracle(pts):
        pts = np.asarray(pts, dtype=float)
        return np.hypot(pts[..., 0], pts[..., 1])

    return PHFunction(
        "square-mean",
        2,
        inf_family=FiniteFamily([disk_map()]),
        sup_family=WitnessFamily(lambda X: np.arctan2(X[1], X[0]), member),
        oracle=oracle,
    )


def abs_sum(n=2):
    """l1 norm on R^n (continuous)."""
    from itertools import product

    signs = np.array(list(product([-1.0, 1.0], repeat=n)))
    sup_maps = [SuperlinearMap(VPolytope([s]), label=f"sign{k}") for k, s in enumerate(signs)]

    def oracle(pts):
        return np.abs(np.asarray(pts, dtype=float)).sum(axis=-1)

    return PHFunction(
        "abs-sum",
        n,
        inf_family=FiniteFamily([SublinearMap(VPolytope(signs), label="l1")]),
        sup_family=FiniteFamily(sup_maps),
        oracle=oracle,
    )


def max_coord(n=2):
    """Largest coordinate on R^n (continuous); subdifferential is the
    standard simplex."""
    eye = np.eye(n)
    sup_maps = [SuperlinearMap(VPolytope([eye[k]]), label=f"coord{k + 1}") for k in range(n)]

    def oracle(pts):
        return np.asarray(pts, dtype=float).max(axis=-1)

    return PHFunction(
        "max-coord",
        n,
        inf_family=FiniteFamily([SublinearMap(VPolytope(eye), label="max")]),
        sup_family=FiniteFamily(sup_maps),
        oracle=oracle,
    )


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


# ---------------------------------------------------------------------------
# JSON:  {"sublinear": {"subdiff": <set>, "label": s}}
#        {"superlinear": {"superdiff": <set>, "label": s}}
#        {"family": {"kind": "usc"|"lsc"|"cts", "maps": [...] | {"builtin": name}}}

def map_to_json(m):
    if isinstance(m, _SupportMap):
        return {m.key: {m.set_key: set_to_json(m.set), "label": m.label}}
    raise TypeError(f"unsupported map type {type(m).__name__}")


def map_from_json(obj, source="<inline>", path="map"):
    if not isinstance(obj, dict):
        raise SchemaError(source, path, "expected an object")
    for cls in (SublinearMap, SuperlinearMap):
        if cls.key in obj:
            body, where = obj[cls.key], f"{path}.{cls.key}"
            if not isinstance(body, dict) or cls.set_key not in body:
                raise SchemaError(source, where, f"expected {{'{cls.set_key}': <set>}}")
            s = set_from_json(body[cls.set_key], source, f"{where}.{cls.set_key}")
            return cls(s, label=str(body.get("label", "")))
    raise SchemaError(source, path, "expected a 'sublinear' or 'superlinear' key")


def _family_from_map_list(objs, side, source, path):
    maps = [map_from_json(o, source, f"{path}[{i}]") for i, o in enumerate(objs)]
    want = SublinearMap if side == "inf" else SuperlinearMap
    for i, m in enumerate(maps):
        if not isinstance(m, want):
            raise SchemaError(
                source, f"{path}[{i}]", f"expected a {'sublinear' if side == 'inf' else 'superlinear'} map"
            )
    dims = {m.dim for m in maps}
    if len(dims) != 1:
        raise SchemaError(source, path, "maps have mixed dimensions")
    return FiniteFamily(maps), dims.pop()


def function_from_json(obj, source="<inline>", path="family"):
    if not isinstance(obj, dict) or "family" not in obj:
        raise SchemaError(source, path, "expected a 'family' object")
    body = obj["family"]
    if not isinstance(body, dict):
        raise SchemaError(source, f"{path}.family", "expected an object")
    maps = body.get("maps", body if "builtin" in body else None)
    if isinstance(maps, dict) and "builtin" in maps:
        name = maps["builtin"]
        if not isinstance(name, str):
            raise SchemaError(source, f"{path}.family.maps.builtin", "expected a string")
        try:
            h = builtin(name)
        except UnknownBuiltin as exc:
            raise SchemaError(source, f"{path}.family.maps.builtin", exc.message) from exc
        kind = body.get("kind")
        if kind is not None and kind != h.kind:
            raise SchemaError(
                source, f"{path}.family.kind", f"builtin {name!r} has kind {h.kind!r}, not {kind!r}"
            )
        return h
    kind = body.get("kind")
    if kind not in ("usc", "lsc", "cts"):
        raise SchemaError(source, f"{path}.family.kind", "expected 'usc', 'lsc' or 'cts'")
    if maps is None:
        raise SchemaError(source, f"{path}.family.maps", "expected a map list or {'builtin': name}")
    if kind == "cts":
        if not isinstance(maps, dict) or "inf" not in maps or "sup" not in maps:
            raise SchemaError(
                source, f"{path}.family.maps", "continuous kind needs {'inf': [...], 'sup': [...]}"
            )
        if not isinstance(maps["inf"], list) or not maps["inf"]:
            raise SchemaError(source, f"{path}.family.maps.inf", "expected a nonempty list")
        if not isinstance(maps["sup"], list) or not maps["sup"]:
            raise SchemaError(source, f"{path}.family.maps.sup", "expected a nonempty list")
        inf_fam, dim_inf = _family_from_map_list(maps["inf"], "inf", source, f"{path}.family.maps.inf")
        sup_fam, dim_sup = _family_from_map_list(maps["sup"], "sup", source, f"{path}.family.maps.sup")
        if dim_inf != dim_sup:
            raise SchemaError(source, f"{path}.family.maps", "inf and sup sides have different dims")
        return PHFunction("user-family", dim_inf, inf_family=inf_fam, sup_family=sup_fam)
    if not isinstance(maps, list) or not maps:
        raise SchemaError(source, f"{path}.family.maps", "expected a nonempty list")
    side = "inf" if kind == "usc" else "sup"
    fam, dim = _family_from_map_list(maps, side, source, f"{path}.family.maps")
    if kind == "usc":
        return PHFunction("user-family", dim, inf_family=fam)
    return PHFunction("user-family", dim, sup_family=fam)
