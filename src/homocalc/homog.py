"""Positively homogeneous functions and their map families.

A sublinear map is the support function sigma_C of a convex compact set C
(its subdifferential at the origin); a superlinear map is the mirror image
x -> -sigma_C(-x), the pointwise minimum over C (its superdifferential).
Both are one evaluator with a sign and keep C in `.set`.  A PH function is
represented by an inf-family of sublinear maps (upper semicontinuous side),
a sup-family of superlinear maps (lower semicontinuous side), or both
(continuous), optionally paired with a closed-form oracle used for
cross-checks only: evaluation reads the families alone, and a lift reports
its drift from the oracle as data (fcalc's max_residual).  A family is an
enumeration up to a budget, and its value at a point is the extremum over
all the members in the budget; a family that declares a certified bound
per column stops early where the bound is reached.  An explicit finite list
is the enumeration whose budget is its length.

Semicontinuity cannot be certified from finitely many samples; the kind tag
is declarative and only the oracle/family agreement is checked numerically.
"""

import functools

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
    UnknownBuiltin,
)

DEFAULT_TOL = 1e-9
DEFAULT_BUDGET = 10_000
_SQUARE_MEAN_ANGLES = 512
_RAY_EXP_CAP = 400  # keeps 2**e finite in float64
_EVAL_CHUNK = 512


class RepresentationWarning(UserWarning):
    """Never raised: drift from the oracle is data, the max_residual of
    fcalc.fc_semicontinuous_detailed.  Kept defined and exported because the
    warning filters in bench/workloads.py and bench/test_bench.py name it."""


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
        with np.errstate(over="ignore", invalid="ignore"):
            values = self._values(cols)
        if not np.isfinite(values).all():
            # a NaN or infinite point always has a non-finite value
            if not np.isfinite(cols).all():
                raise ValueError(f"{type(self).__name__}: points must be finite")
            bad = np.flatnonzero(~np.isfinite(values))
            raise NonFiniteResult(
                type(self).__name__, f"the value at column {bad[0]} is outside the float range"
            )
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
# family enumerations

class GeneratedFamily:
    """Deterministic enumeration of maps, evaluated lazily up to `budget`.

    block_fn(x, a, b) -> values of maps a..b-1 at x, shape (b-a,) for x of
    shape (n,) and (b-a, k) for x of shape (n, k); a block that ignores x
    and returns shape (b-a,) is broadcast over the columns.  map_at(k)
    materializes the k-th map.  Evaluation takes the extremum over the first
    `budget` maps.

    bound_fn(X), when given, is the family's certificate: for X of shape
    (n, k) it returns, per column, a value no member can beat in floating
    point (a floor for an inf-family, a ceiling for a sup-family), proven
    from the member formula and never from an oracle.  A column whose
    running extremum reaches its bound stops there: the bound is attained,
    so it is the family's extremum at that column.
    Re-entrant: no state is mutated during evaluation.
    """

    def __init__(self, block_fn, map_fn, budget=DEFAULT_BUDGET, bound_fn=None):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self._block_fn = block_fn
        self._map_fn = map_fn
        self.budget = int(budget)
        self.bound_fn = bound_fn

    def values(self, x, a, b):
        return self._block_fn(x, a, b)

    def map_at(self, k):
        return self._map_fn(k)


class FiniteFamily(GeneratedFamily):
    """Explicit finite list of maps: a generated family whose budget is its
    length, so every scan visits every member.

    Without `block_fn` a block calls each map's kernel on all its columns.
    `block_fn(x, a, b)`, when given, must return the same values as calling
    maps[a:b] one by one; it exists purely for speed.
    """

    def __init__(self, maps, block_fn=None):
        maps = tuple(maps)
        if not maps:
            raise ValueError("finite family needs at least one map")
        if block_fn is None:
            def block_fn(x, a, b):
                cols = x.reshape(x.shape[0], -1)
                return np.array([m._values(cols) for m in maps[a:b]]).reshape(b - a, *x.shape[1:])
        super().__init__(block_fn, maps.__getitem__, budget=len(maps))
        self.maps = maps


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
    """Extremum of the family at every column of X, shape (n, k).

    Returns (values, terms), both of shape (k,).  For a family with a
    bound_fn, a column stops after s + 1 terms at the first member index s
    where its running extremum reaches the column's bound; the bound is
    attained there, so that is the family's extremum.  Every other column
    takes the extremum over all `budget` members.

    Columns go in groups of at most _EVAL_CHUNK and members in blocks of at
    most _BLOCK_CELLS member-by-column cells; a column that has stopped
    drops out of later blocks.  Every step is elementwise and ties keep the
    later member, as one accumulate over the whole enumeration would, so a
    column's result does not depend on its batch or on the block bounds.
    """
    k = X.shape[1]
    total = family.budget
    values = np.empty(k)
    terms = np.full(k, total)
    reach = None
    if family.bound_fn is not None:
        reach = np.asarray(family.bound_fn(X), dtype=float)
        reach = reach if minimize else -reach
    for c0 in range(0, k, _EVAL_CHUNK):
        cols = np.arange(c0, min(c0 + _EVAL_CHUNK, k))
        best = np.full(cols.size, np.inf)
        a = 0
        while a < total and cols.size:
            b = min(a + min(_EVAL_CHUNK, _BLOCK_CELLS // cols.size), total)
            vals = np.asarray(family.values(X[:, cols], a, b), dtype=float).reshape(b - a, -1)
            vals = np.broadcast_to(vals if minimize else -vals, (b - a, cols.size))
            run = np.minimum.accumulate(vals, axis=0)
            np.minimum(best, run, out=run)
            if reach is not None:
                stop = run <= reach[cols]
                done = stop.any(axis=0)
                if done.any():
                    hit = np.nonzero(done)[0]
                    s = stop[:, hit].argmax(axis=0)
                    values[cols[hit]] = run[s, hit]
                    terms[cols[hit]] = a + s + 1
                    cols, run = cols[~done], run[:, ~done]
            best = run[-1]
            a = b
        values[cols] = best
    return (values if minimize else -values), terms


def _eval_columns(h, X, side):
    """(values, terms) of h at the columns of X (n, k), from one batched scan.

    Raises ValueError on a NaN or infinite point and NonFiniteResult when a
    value leaves the float range; members that overflow on the way to a
    finite value raise nothing.
    """
    chosen, family = _pick_side(h, side)
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{h.name}: points must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        values, terms = _scan_columns(family, X, minimize=(chosen == "inf"))
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFiniteResult(
            "eval_family", f"{h.name}: the value at column {bad[0]} is outside the float range"
        )
    return values, terms


def eval_family(h, x, side="auto"):
    """Value of h at x through its representing family."""
    value, _ = eval_family_detailed(h, x, side=side)
    return value


def eval_family_detailed(h, x, side="auto"):
    """(value, terms used) at one point: the one-column batched scan.

    Raises ValueError on a NaN or infinite point and NonFiniteResult on a
    value outside the float range.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != h.dim:
        raise DimensionMismatch("eval_family", f"point has dim {x.size}, function has dim {h.dim}")
    values, terms = _eval_columns(h, x[:, None], side)
    return float(values[0]), int(terms[0])


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
# The enumerations are memoised per argument and returned read-only, so that
# every builtin() call shares them.  Blocks take x of shape (n,) or (n, k)
# through np.multiply.outer, elementwise, so a column's values do not depend
# on the columns next to it.

def _read_only(a):
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=8)
def _diag_ray_pairs(budget):
    # diagonal order on N^2 (m+n ascending, then m ascending) interleaved with
    # geometric rays (2^e, 1), (1, 2^e); the rays make the infimum attainable
    # within budget for sign-mixed inputs arbitrarily close to an axis.
    ms, ns = [], []
    d = 2
    while len(ms) < budget:
        for m in range(1, d):
            ms.append(float(m))
            ns.append(float(d - m))
        e = min(d - 1, _RAY_EXP_CAP)
        ms.append(2.0**e)
        ns.append(1.0)
        ms.append(1.0)
        ns.append(2.0**e)
        d += 1
    return _read_only(np.array(ms[:budget])), _read_only(np.array(ns[:budget]))


def quadrant_sum(budget=DEFAULT_BUDGET):
    """x+y on the closed positive quadrant, 0 elsewhere (usc).

    Inf-family of maps (mx+ny)^+ over positive integer pairs; the infimum is
    attained at finite index for every sign pattern.  The rays (2^e, 1) and
    (1, 2^e) grow with the diagonal, so within the default budget it is
    attained wherever the coordinates' ratio is below about 2^138.
    """
    M, N = _diag_ray_pairs(budget)

    def block(x, a, b):
        return np.maximum(np.multiply.outer(M[a:b], x[0]) + np.multiply.outer(N[a:b], x[1]), 0.0)

    def map_at(k):
        return SublinearMap(
            VPolytope([[M[k], N[k]], [0.0, 0.0]]), label=f"pospart(m={M[k]:g},n={N[k]:g})"
        )

    def floor(X):
        # members are >= 0, and on the closed first quadrant m, n >= 1 makes
        # each >= x + y (rounding is monotone); member 0, (1, 1), attains it
        return np.where((X[0] >= 0) & (X[1] >= 0), X[0] + X[1], 0.0)

    def oracle(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return np.where((x >= 0) & (y >= 0), x + y, 0.0)

    return PHFunction(
        "example-7.1",
        2,
        inf_family=GeneratedFamily(block, map_at, budget=budget, bound_fn=floor),
        oracle=oracle,
    )


@functools.lru_cache(maxsize=8)
def _lambda_ray_pairs(budget):
    # (lambda, n) with lambda in {0,1}, n ascending, plus geometric n-rays.
    lams, ns = [], []
    j = 1
    while len(lams) < budget:
        e = min(j, _RAY_EXP_CAP)
        lams.extend([0.0, 1.0, 0.0, 1.0])
        ns.extend([float(j), float(j), 2.0**e, 2.0**e])
        j += 1
    return _read_only(np.array(lams[:budget])), _read_only(np.array(ns[:budget]))


def sign_switch(budget=DEFAULT_BUDGET):
    """x when both coordinates are positive, y when y is negative, else 0 (lsc).

    Sup-family of maps min{lambda*x, n*y}, lambda in {0,1}, n a positive
    integer; geometric n-rays make the supremum attained within budget.
    """
    L, N = _lambda_ray_pairs(budget)

    def block(x, a, b):
        return np.minimum(np.multiply.outer(L[a:b], x[0]), np.multiply.outer(N[a:b], x[1]))

    def map_at(k):
        return SuperlinearMap(
            VPolytope([[L[k], 0.0], [0.0, N[k]]]), label=f"min(lam={L[k]:g},n={N[k]:g})"
        )

    def ceiling(X):
        # n >= 1 makes each member <= y when y < 0, and member 0, min(0*x, y),
        # attains it; lam in {0, 1} makes each <= max(x, 0) when y > 0, and
        # n*y is a zero when y is
        x, y = X[0], X[1]
        return np.where(y < 0, y, np.where(y > 0, np.maximum(x, 0.0), 0.0))

    def oracle(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return np.where((x > 0) & (y > 0), x, np.where(y < 0, y, 0.0))

    return PHFunction(
        "example-7.2",
        2,
        sup_family=GeneratedFamily(block, map_at, budget=budget, bound_fn=ceiling),
        oracle=oracle,
    )


@functools.lru_cache(maxsize=8)
def _bit_reversed_angles(count):
    bits = count.bit_length() - 1
    if 1 << bits != count:
        raise ValueError("angle count must be a power of two")
    idx = np.arange(count)
    rev = np.zeros(count, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return _read_only(rev * (2.0 * np.pi / count))


def _linear_block(A):
    # block of the linear members x -> A[k].x
    return lambda x, a, b: _dot_columns(A[a:b], np.asarray(x, dtype=float))


def disk_map():
    return SublinearMap(Ball([0.0, 0.0], 1.0), label="euclidean")


def angle_superlinear_family(count):
    """Finite family of tangent linear maps (cos t, sin t) on a uniform grid."""
    theta = np.arange(count) * (2.0 * np.pi / count)
    T = np.column_stack([np.cos(theta), np.sin(theta)])
    maps = [SuperlinearMap(VPolytope([t]), label=f"tangent({k}/{count})") for k, t in enumerate(T)]
    return FiniteFamily(maps, block_fn=_linear_block(T))


def circumscribed_polygon_map(count):
    """Sublinear map whose subdifferential is the regular polygon tangent to
    the unit disk from outside; dominates the euclidean norm within
    sec(pi/count) - 1 relative."""
    r = 1.0 / np.cos(np.pi / count)
    theta = (2.0 * np.arange(count) + 1.0) * (np.pi / count)
    verts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return SublinearMap(VPolytope(verts), label=f"circumscribed-{count}")


def square_mean():
    """Euclidean norm on R^2 (continuous): disk inf-family plus a generated
    sup-family of 512 tangent maps on a bit-reversal-refined angle grid."""
    theta = _bit_reversed_angles(_SQUARE_MEAN_ANGLES)
    T = np.column_stack([np.cos(theta), np.sin(theta)])

    def map_at(k):
        return SuperlinearMap(VPolytope([T[k]]), label=f"tangent-bitrev-{k}")

    def oracle(pts):
        pts = np.asarray(pts, dtype=float)
        return np.hypot(pts[..., 0], pts[..., 1])

    return PHFunction(
        "square-mean",
        2,
        inf_family=FiniteFamily([disk_map()]),
        sup_family=GeneratedFamily(_linear_block(T), map_at, budget=_SQUARE_MEAN_ANGLES),
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
        sup_family=FiniteFamily(sup_maps, block_fn=_linear_block(signs)),
        oracle=oracle,
    )


def max_coord(n=2):
    """Largest coordinate on R^n (continuous); subdifferential is the
    standard simplex."""
    eye = np.eye(n)
    sup_maps = [SuperlinearMap(VPolytope([eye[k]]), label=f"coord{k + 1}") for k in range(n)]

    def block(x, a, b):
        return np.asarray(x, dtype=float)[a:b]

    def oracle(pts):
        return np.asarray(pts, dtype=float).max(axis=-1)

    return PHFunction(
        "max-coord",
        n,
        inf_family=FiniteFamily([SublinearMap(VPolytope(eye), label="max")]),
        sup_family=FiniteFamily(sup_maps, block_fn=block),
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
    budget for example-7.1 and example-7.2, n for abs-sum and max-coord."""
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
