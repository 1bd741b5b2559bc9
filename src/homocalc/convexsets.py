"""Convex compact subsets of R^n and the support-function toolkit.

Two concrete representations are supported: V-polytopes (convex hulls of
finitely many points) and closed Euclidean balls.  Everything downstream
(sub/superlinear maps, saddle coefficients) reduces to the operations here:
support values, nearest-point projection and a feasibility routine for
intersections.  The deterministic sphere grids that the domination
envelopes and the support plans sample directions from live here too.
"""

import math
import numbers
from functools import lru_cache, reduce
from statistics import NormalDist

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyIntersection,
    IndexOutOfRange,
    NoConvergence,
)

# Default bound on the distance between two sets that feasible_point still
# counts as meeting; saddle_build multiplies it by its maps' scale.
FEASIBLE_TOL = 1e-9
# Cap on the major cycles of Wolfe's min-norm-point method, read by
# _feasible_points when it is called.
PROJECT_MAX_ITER = 100_000
# Rounding floor of Wolfe's Frank-Wolfe gap, relative to the largest squared
# distance from p to a vertex: 1024 machine epsilons.
_GAP_FLOOR = 2.0**-42
# Wolfe's method runs on its data as given while their largest squared row
# norm lies in this range, far inside the float range; outside it the data
# are first scaled by an exact power of two.
_SAFE_SQ = (2.0**-510, 2.0**510)
# A sum of squares in this range has neither overflowed nor lost a square
# that matters to underflow.
_SAFE_SUM = (2.0**-960, 2.0**960)
# Largest number of values a batched kernel (support, family scan, saddle)
# holds in one block, so that the working set stays small for any batch;
# a block of one index may hold more (see _blocks).
_BLOCK_CELLS = 8192
# The default grid of R^2 holds this many uniform angles.  Every unit vector
# lies within a half step's chord, 2 sin(pi / (2 _CIRCLE_DENSITY)), of one of
# them; _CIRCLE_CHORD adds a margin of 2^-20 for the rounding of the grid's
# angles and norms and of the support plan's depth bound (_build_plan).
_CIRCLE_DENSITY = 720
_CIRCLE_CHORD = 2.0 * np.sin(np.pi / (2 * _CIRCLE_DENSITY)) * (1.0 + 2.0**-20)
# Every Wolfe problem's first weights, shared and read-only: no code writes
# a weight array in place.
_ONE = np.ones(1)
_ONE.flags.writeable = False


class VPolytope:
    """Convex hull of a nonempty finite vertex list (rows of `vertices`)."""

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float, copy=True)
        if v.ndim == 1:
            v = v.reshape(1, -1)
        if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] == 0:
            raise ValueError("vertex array must be nonempty with shape (k, n)")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        v.flags.writeable = False
        self.vertices = v
        # support_batch's pruning plan and the columns evaluated without one
        self._plan = None
        self._columns = 0

    @property
    def dim(self):
        return self.vertices.shape[1]

    def __repr__(self):
        return f"VPolytope({self.vertices.shape[0]} vertices in R^{self.dim})"


class Ball:
    """Closed Euclidean ball with given center and radius >= 0."""

    def __init__(self, center, radius):
        c = np.array(center, dtype=float, copy=True).reshape(-1)
        if c.size == 0 or not np.isfinite(c).all():
            raise ValueError("center must be a nonempty finite vector")
        r = float(radius)
        if not math.isfinite(r) or r < 0:
            raise ValueError("radius must be finite and >= 0")
        c.flags.writeable = False
        self.center = c
        self.radius = r

    @property
    def dim(self):
        return self.center.size

    def __repr__(self):
        return f"Ball(center in R^{self.dim}, radius={self.radius})"


def _whole(v):
    """True when v is a real number of integer value that a float holds, so
    not inf, NaN or an int beyond the float range."""
    if not isinstance(v, numbers.Real):
        return False
    try:
        return float(v).is_integer()
    except OverflowError:
        return False


def _check_point(s, x, op):
    """x as a finite vector of s's dimension: NaN and inf raise ValueError."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != s.dim:
        raise DimensionMismatch(op, f"point has dim {x.size}, set has dim {s.dim}")
    if not np.isfinite(x).all():
        raise ValueError(f"{op}: point must be finite")
    return x


def _blocks(count, cells):
    """Slices of range(count) in blocks of max(1, _BLOCK_CELLS // cells)
    indices: the block policy of every batched kernel, where an index
    stands for `cells` values, counted as at least 1 so that an empty batch
    is one block.  A block thus holds at most max(_BLOCK_CELLS, cells)
    values."""
    step = max(1, _BLOCK_CELLS // max(1, cells))
    return [slice(a, a + step) for a in range(0, count, step)]


def _reduce(ufunc, M, axis):
    """ufunc.reduce(M, axis) along a member axis of M (..., columns), folded
    member by member in order, so ties keep the later member in every column.

    numpy folds a C-contiguous block of two or more columns member by
    member, but reduces a lone column as one run with its own pairing; a
    lone column is therefore reduced as two copies of itself.
    """
    M = np.ascontiguousarray(M)
    if M.shape[-1] == 1:
        return ufunc.reduce(np.concatenate((M, M), axis=-1), axis=axis)[..., :1]
    return ufunc.reduce(M, axis=axis)


def _fold(ufunc, rows, count, cells):
    """The member-order fold of `count` members, each `cells` values wide.

    rows(members) gives the values of a slice of members, one row per
    member.  Members go in _blocks; each block is reduced in member order
    (_reduce) and folded into the result of the blocks before it, so ties
    keep the later member and a column's value does not depend on the
    other columns.  The one member fold of the family scan and of both
    support folds.
    """
    return reduce(ufunc, (_reduce(ufunc, rows(b), 0) for b in _blocks(count, cells)))


def _dot_paired(A, X):
    """sum_d A[..., d] * X[d], broadcast: A (..., n) against X (n, ...).

    Sums coordinate by coordinate in a fixed order with elementwise
    products, never through BLAS, so an entry does not depend on how many
    columns share the call.
    """
    out = A[..., 0] * X[0]
    for d in range(1, A.shape[-1]):
        out += A[..., d] * X[d]
    return out


def _norms(cols):
    """Norms of the columns of cols (n, k), squares summed coordinate by coordinate.

    Columns whose sum falls outside _SAFE_SUM are summed again after an
    exact power-of-two scaling; the others keep the plain sum, bit for bit.
    The overflow guard runs only when the largest coordinate lets a sum
    exceed _SAFE_SUM, and the per-column mask only when some sum may lie
    outside it.
    """
    top = float(np.maximum.reduce(np.abs(cols), axis=None, initial=0.0))
    if top * top * cols.shape[0] <= _SAFE_SUM[1] / 2:
        sq = _dot_paired(cols.T, cols)
        if not sq.size or sq.min() >= _SAFE_SUM[0]:
            return np.sqrt(sq)
    else:
        with np.errstate(over="ignore"):
            sq = _dot_paired(cols.T, cols)
    out = np.sqrt(sq)
    odd = np.flatnonzero(~(sq >= _SAFE_SUM[0]) | (sq > _SAFE_SUM[1]))
    if odd.size:
        exp = np.frexp(np.abs(cols[:, odd]).max(axis=0))[1]
        scaled = np.ldexp(cols[:, odd], -exp)
        # a norm beyond the float range is inf, with no warning
        with np.errstate(over="ignore"):
            out[odd] = np.ldexp(np.sqrt(_dot_paired(scaled.T, scaled)), exp)
    return out


def _norm(x):
    """Euclidean norm of a vector, as _norms computes it."""
    return float(_norms(np.asarray(x, dtype=float).reshape(-1, 1))[0])


def support(s, x):
    """Support value max{a.x : a in s}: the one-point case of support_batch.
    A NaN or infinite x raises ValueError."""
    x = _check_point(s, x, "support")
    return float(support_batch(s, x[None, :])[0])


def support_batch(s, points):
    """Support values for each row of `points`, shape (k, n) -> (k,).

    A ball's value is center.x + radius ||x||, summed coordinate by
    coordinate (_dot_paired, _norms); a polytope's is the vertex-order fold
    _vertex_support, or _pruned_support where it has a pruning plan
    (_support_plan), which gives the same bits.  A row's value does not
    depend on the other rows.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != s.dim:
        raise DimensionMismatch(
            "support", f"points have shape {pts.shape}, set has dim {s.dim}"
        )
    if isinstance(s, Ball):
        return _dot_paired(s.center, pts.T) + s.radius * _norms(pts.T)
    if not isinstance(s, VPolytope):
        raise TypeError(f"unsupported set type {type(s).__name__}")
    plan = _support_plan(s, pts.shape[0])
    if plan:
        return _pruned_support(pts.T, s.vertices, *plan)
    return _vertex_support(s.vertices, pts.T)


def _support_plan(s, columns):
    """The pruning plan of polytope s, built once and cached on s, or ().

    Building a plan costs about one all-vertex evaluation at the directions
    of the default sphere grid, so s is planned only once it has been
    evaluated at that many columns: a polytope evaluated once, such as the
    suite's polygon, keeps the all-vertex fold at the cost of a counter.
    A set in R^3 and up, whose grids have no proven covering chord, or of
    fewer than 32 vertices is never planned: it caches () at once, without
    the grid.  Vertices are read-only, so the plan stays valid.
    """
    if s._plan is None:
        k, n = s.vertices.shape
        if n > 2 or k < 32:
            s._plan = ()
        # a first call is never planned, so it does not build the grid
        elif not s._columns or s._columns < len(_default_grid(s.dim)):
            s._columns += columns
            return ()
        else:
            s._plan = _build_plan(s.vertices)
    return s._plan


def _build_plan(V):
    """(kept, rho) of the vertices V (k, n), or () where pruning cannot pay.

    A vertex v is dropped iff, at every direction g of the default grid,
    fl(M(g) - fl(v.g)) > tau, where M(g) is the largest fold (_dot_paired)
    of a vertex with g and tau = D c + 16 (n + 1) 2^-53 rho.  D is the
    diagonal of V's bounding box (_norm, one step up), c the grid's
    covering chord (0 on R^1, whose grid is {1, -1}; _CIRCLE_CHORD on R^2)
    and rho = max_v sum_d |v_d|.  kept (|K|, n) holds the other vertices,
    in vertex order.  The grid is read in _blocks, so no k x g array is
    formed.
    V lies in R^1 or R^2 and has at least 32 vertices (_support_plan).
    Returns () when the largest vertex entry lies outside [2^-960, 2^960],
    or when more than half the vertices are kept.
    """
    k, n = V.shape
    if not 2.0**-960 <= float(np.abs(V).max()) <= 2.0**960:
        return ()
    grid = _default_grid(n).T
    rho = float(np.abs(V).sum(axis=1).max())
    diagonal = np.nextafter(_norm(V.max(axis=0) - V.min(axis=0)), np.inf)
    tau = diagonal * (_CIRCLE_CHORD if n == 2 else 0.0) + 16 * (n + 1) * 2.0**-53 * rho
    keep = np.zeros(k, dtype=bool)
    for b in _blocks(grid.shape[1], k):
        dots = _dot_paired(V[:, None, :], grid[:, b])
        keep |= (dots.max(axis=0) - dots <= tau).any(axis=1)
    if 2 * np.count_nonzero(keep) > k:
        return ()
    return V[keep], rho


def _pruned_support(cols, vertices, kept, rho):
    """_vertex_support of one polytope at the columns of cols (n, c), bit for bit.

    Takes a plan of _build_plan.  Per column x, with p = rho max_d |x_d|,
    out is _vertex_support of the kept vertices alone: their largest fold
    (_dot_paired) with x, taken in vertex order.  A column takes out where
    2^-900 <= p <= 2^900.  The other columns, NaN and infinite ones
    included, take the all-vertex _vertex_support, as one batch.

    Why out is then the all-vertex value: let v be a dropped vertex,
    u = 2^-53, and g a grid direction within the covering chord c of
    x / ||x||.  A vertex w whose fold attains M(g) is kept, and exactly
    (w - v).x / ||x|| >= (w - v).g - ||w - v|| c >= (w - v).g - D c.  A
    fold of m products errs by at most 1.01 m u sum|terms| + m 2^-1074
    (underflow), and sum_d |v_d y_d| <= rho max|y| for every vertex v.
    The factor 1 + 2^-20 in c covers the rounding of the grid, of D, c and
    tau, so the build's test gives (w - v).g - D c > (16 (n + 1) - 2.03 n
    - 1) u rho, the underflow included as rho >= 2^-960.  At x, ||x|| >=
    max|x|, so (w - v).x > (16 (n + 1) - 2.03 n - 1) u p, while the two
    runtime folds err by at most 2.02 n u p + 2n 2^-1074 together; with
    p >= 2^-900, every dropped vertex's rounded value lies strictly below
    out, so none is one of the tied maxima.  The vertex-order maximum keeps
    the last of those, and the kept vertices keep their order, so out is
    the all-vertex value, the sign of a zero included.  p <= 2^900 keeps
    every term finite.
    """
    # support_batch passes points.T; the folds run faster on contiguous rows
    cols = np.ascontiguousarray(cols)
    with np.errstate(over="ignore", invalid="ignore"):
        p = rho * np.abs(cols).max(axis=0)
        out = _vertex_support(kept, cols)
    redo = np.flatnonzero(~((p >= 2.0**-900) & (p <= 2.0**900)))
    if redo.size:
        out[redo] = _vertex_support(vertices, cols[:, redo])
    return out


def _vertex_support(V, cols):
    """The largest v.x over the rows v of V (k, n) at each column x of cols
    (n, c), shape (c,): sums coordinate by coordinate (_dot_paired), the
    maximum in vertex order over blocks of vertices (_fold), so a column's
    value does not depend on the other columns."""
    return _fold(np.maximum, lambda b: _dot_paired(V[b, None, :], cols), len(V), cols.shape[1])


def _by_key(items, key):
    """items grouped by key(item), groups and members in order of appearance."""
    groups = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups.values()


class _Wolfe:
    """The state of one problem of _min_norm_weights: its operands A and B,
    their differences D, the operation named by its NoConvergence, and its
    corral with the corral's rows P = D[corral], weights, span (U, rank),
    last ||x||^2 and major cycle count; `end` holds the result."""

    __slots__ = ("A", "B", "D", "op", "floor", "corral", "P", "w", "span", "last", "cycle", "minor", "end")

    def __init__(self, A, B, op):
        self.A, self.B, self.op = A, B, op
        self.w, self.span, self.last, self.cycle = _ONE, None, np.inf, 0
        self.minor, self.end = False, None


def _differences(A, B):
    """The rows A[..., i, :] - B[..., j, :] of stacked operands, row i * len(B) + j."""
    return (A[..., :, None, :] - B[..., None, :, :]).reshape(*A.shape[:-2], -1, A.shape[-1])


def _min_norm_weights(problems, max_iter):
    """Wolfe's nearest point x = w @ D[corral] to 0 in the hull of the rows
    of D, the differences A[i] - B[j] in row i * len(B) + j, for every
    (A, B, op) of problems at once.

    Returns per problem its corral (row indices) and weights, all > 0, or
    NoConvergence(op).  A major cycle adds the row with the smallest x.d;
    minor cycles move to the corral's affine minimizer, dropping rows until
    every weight is > 0.  Stops at a Frank-Wolfe gap x.x - min_i x.d_i
    (which bounds (||x||^2 - min ||.||^2) / 2) of at most 0, or of at most
    _GAP_FLOOR max_i ||d_i||^2 once rounding stops progress (the chosen row
    is in the corral, or ||x|| did not fall).  Else ends in NoConvergence,
    as it does after max_iter major cycles.
    The weights do not depend on D's scale: where max_i ||d_i||^2 lies
    outside _SAFE_SQ, D is first scaled by an exact power of two; inside it
    the run sees D's own bits.  Where it is not finite, a difference or its
    square overflowed, and D is formed again from A / 2 and B / 2, whose
    differences are finite, before that scaling.

    The problems run in lockstep: each round takes one major cycle of every
    problem between minor cycles, then one minor cycle of every problem in
    one.  Each numpy call serves the problems of one exact shape, gathered
    into contiguous stacks, so matmul, einsum and svd take for every slice
    the route of a call on that slice alone: a problem's bits do not
    depend on the other problems.
    """
    probs = [_Wolfe(A, B, op) for A, B, op in problems]
    with np.errstate(over="ignore", invalid="ignore"):
        for group in _by_key(probs, lambda p: (p.A.shape, p.B.shape)):
            D = _differences(np.array([p.A for p in group]), np.array([p.B for p in group]))
            sq = np.einsum("pij,pij->pi", D, D)
            for p, d, top, j in zip(group, D, sq.max(axis=1).tolist(), sq.argmin(axis=1).tolist()):
                p.D = d
                if not _SAFE_SQ[0] <= top <= _SAFE_SQ[1]:
                    if not np.isfinite(top):
                        p.D = _differences(0.5 * p.A, 0.5 * p.B)
                    p.D = np.ldexp(p.D, -np.frexp(np.abs(p.D).max())[1])
                    rescaled = np.einsum("ij,ij->i", p.D, p.D)
                    top, j = float(rescaled.max()), int(np.argmin(rescaled))
                p.floor, p.corral, p.P = _GAP_FLOOR * top, [j], p.D[j : j + 1]
        run = probs
        while run:
            major = [p for p in run if not p.minor]
            for group in _by_key(major, lambda p: (p.D.shape, len(p.corral), None if p.span is None else p.span[1])):
                _major_cycles(group, max_iter)
            for group in _by_key([p for p in run if p.minor], lambda p: (len(p.corral), p.D.shape[1])):
                _minor_cycles(group)
            run = [p for p in run if p.end is None]
    return [p.end for p in probs]


def _major_cycles(group, max_iter):
    """One major cycle of each problem of group; they share D's shape, the
    corral's size and the span's rank.  The weights W and corral rows P are
    stacked once; where some problem goes on, the grown corrals are made
    once for the group, W with a zero column and P with the row D[g, J[g]],
    and each problem that goes on takes its own row of both."""
    W, P = np.array([p.w for p in group]), np.array([p.P for p in group])
    X = np.matmul(W[:, None, :], P)[:, 0]
    if group[0].span is not None:
        # x is the corral's affine minimizer, so it is orthogonal to the
        # corral's edges; removing the rounding along them makes x.d_i
        # exact to rounding in ||x|| max ||d_i||, not in max ||d_i||^2.
        S = np.array([p.span[0] for p in group])[:, :, : group[0].span[1]]
        X -= np.matmul(S, np.matmul(S.transpose(0, 2, 1), X[:, :, None]))[:, :, 0]
    D = np.array([p.D for p in group])
    G = np.matmul(D, X[:, :, None])[:, :, 0]
    J, at = G.argmin(axis=1), np.arange(len(group))
    XX = np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]
    grow = []
    for g, (p, j, dx, xx) in enumerate(zip(group, J.tolist(), G[at, J].tolist(), XX.tolist())):
        gap = xx - dx
        stalled = j in p.corral or xx >= p.last
        if gap <= 0 or (stalled and gap <= p.floor):
            p.end = p.corral, p.w
        elif stalled or p.cycle == max_iter:
            p.end = NoConvergence(p.op, f"optimality gap {gap:.3e} after {p.cycle} major cycles")
        else:
            p.last, p.cycle, p.minor = xx, p.cycle + 1, True
            p.corral.append(j)
            grow.append(g)
    if grow:
        W = np.concatenate((W, np.zeros((len(group), 1))), axis=1)
        P = np.concatenate((P, D[at, J][:, None, :]), axis=1)
        for g in grow:
            group[g].w, group[g].P = W[g], P[g]


def _minor_cycles(group):
    """One minor cycle of each problem of group, whose corrals share a shape.

    The corral's affine minimizer v (weights summing to 1) is least squares
    on the edges from the first row, by SVD with lstsq's rank cut, so
    duplicate, collinear or coplanar rows are no error; the solves go by
    rank.  A v > 0 becomes the weights; else w steps towards v until the
    first weight reaches 0, and that row leaves the corral.
    """
    P = np.array([p.P for p in group])
    if P.shape[1] == 1:
        solved = [(group, np.ones((len(group), 1)), [None] * len(group))]
    else:
        E = (P[:, 1:] - P[:, :1]).transpose(0, 2, 1)
        U, sv, Vt = np.linalg.svd(E, full_matrices=False)
        ranks = (sv > sv[:, :1] * max(E.shape[1:]) * np.finfo(float).eps).sum(axis=1).tolist()
        solved = []
        for idx in _by_key(range(len(group)), ranks.__getitem__):
            r, sel = ranks[idx[0]], slice(None) if len(idx) == len(group) else idx
            Ur = U[sel]
            y = np.matmul(Ur[:, :, :r].transpose(0, 2, 1), P[sel][:, 0, :, None])[:, :, 0] / sv[sel][:, :r]
            z = -np.matmul(Vt[sel][:, :r].transpose(0, 2, 1), y[:, :, None])[:, :, 0]
            v = np.concatenate([1.0 - z.sum(axis=1, keepdims=True), z], axis=1)
            solved.append(([group[i] for i in idx], v, [(u, r) for u in Ur]))
    for members, V, spans in solved:
        for p, v, span, taken in zip(members, V, spans, (V.min(axis=1) > 0).tolist()):
            if taken:
                p.w, p.span, p.minor = v, span, False
                continue
            # Step from w towards v until the first weight reaches 0, drop it.
            out = np.flatnonzero(v <= 0)
            ratio = p.w[out] / np.maximum(p.w[out] - v[out], np.finfo(float).tiny)
            k = int(np.argmin(ratio))
            w = p.w + ratio[k] * (v - p.w)
            w[out[k]] = 0.0
            keep = np.flatnonzero(w > 0)
            p.corral = [p.corral[i] for i in keep]
            p.P, p.w = p.P[keep], w[keep]


def project(s, p):
    """Nearest point q of s to p.

    Balls are handled in closed form.  For a polytope, q is the point
    feasible_point finds for s and the radius-0 ball at p (_feasible_points,
    with no bound on the distance): Wolfe's finite min-norm-point method
    (_min_norm_weights) on the vertices minus p, a convex combination of
    vertices.
    Certificate: the Frank-Wolfe gap x.x - min_i x.(v_i - p) at x = q - p
    is at most 0, or, where rounding stops progress first, at most 2^-42
    max_i ||v_i - p||^2; both are relative to the data, so the stop is the
    same at every scale.  Raises NoConvergence otherwise, and when
    PROJECT_MAX_ITER major cycles run out.  A NaN or infinite p raises
    ValueError.
    """
    p = _check_point(s, p, "project")
    if isinstance(s, Ball):
        with np.errstate(over="ignore"):
            d = p - s.center
            nrm = _norm(d)
        if nrm <= s.radius:
            return p.copy()
        if nrm == np.inf:
            # ||p - centre|| overflows: d from the halves, which is finite,
            # scaled by an exact power of two so that its norm is too
            d = 0.5 * p - 0.5 * s.center
            d = np.ldexp(d, -np.frexp(np.abs(d).max())[1])
            nrm = _norm(d)
        return s.center + (s.radius / nrm) * d
    if not isinstance(s, VPolytope):
        raise TypeError(f"unsupported set type {type(s).__name__}")
    (q,) = _feasible_points([(s, Ball(p, 0.0))], np.inf)
    if isinstance(q, Exception):
        raise q
    return q


def _check_tol(tol, op):
    """Raises ValueError unless tol is finite and >= 0."""
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"{op}: tol must be finite and >= 0, got {tol!r}")


def feasible_point(set_a, set_b, tol=FEASIBLE_TOL):
    """A point within tol of both sets, from exact cases.

    Two balls: the middle of the stretch of the segment between the centres
    that lies in both.  A ball and a polytope: the centre projected onto the
    polytope.  Two polytopes: Wolfe's method (see project) on the
    differences a_i - b_j; its weights give a in set_a and b in set_b with
    ||a - b|| the sets' distance, and a is returned.  Raises
    EmptyIntersection when the distance is above tol, or beyond the float
    range, and ValueError unless tol is finite and >= 0.  The one-pair case
    of _feasible_points.
    """
    if set_a.dim != set_b.dim:
        raise DimensionMismatch(
            "feasible_point", f"sets have dims {set_a.dim} and {set_b.dim}"
        )
    _check_tol(tol, "feasible_point")
    (point,) = _feasible_points([(set_a, set_b)], tol)
    if isinstance(point, Exception):
        raise point
    return point


def _feasible_points(pairs, tol):
    """feasible_point of each pair (set_a, set_b) of one dimension, as its
    point or as the error it raises.  A ball and a polytope are the problem
    (vertices, centre) of _min_norm_weights, two polytopes (vertices of a,
    vertices of b); the problems of all pairs go through it as one stack,
    capped at PROJECT_MAX_ITER major cycles, and the distances through one
    _norms call.  A one-row problem (a one-vertex polytope against a ball or
    another one-vertex polytope) skips the kernel: it ends there at its
    first major cycle, at any scale and cap, with corral [0] and weights
    [1.0], since x = d and the gap x.x - x.d is 0.  Its point is computed
    from that end as the kernel's is, so a -0.0 coordinate comes out +0.0.
    A ball and a polytope end in the NoConvergence of project.  A distance
    that overflows is inf, above every finite tol."""
    balls = [(isinstance(a, Ball), isinstance(b, Ball)) for a, b in pairs]
    # per pair: its Wolfe operands and operation, None for two balls
    problems = []
    for (a, b), (ball_a, ball_b) in zip(pairs, balls):
        if ball_a != ball_b:
            ball, poly = (a, b) if ball_a else (b, a)
            problems.append((poly.vertices, ball.center[None, :], "project"))
        else:
            problems.append(None if ball_a else (a.vertices, b.vertices, "feasible_point"))
    solved = iter(_min_norm_weights([q for q in problems if q and len(q[0]) * len(q[1]) > 1], PROJECT_MAX_ITER))
    ends = (None if q is None else ([0], _ONE) if len(q[0]) * len(q[1]) == 1 else next(solved) for q in problems)
    # per pair: its point (None for two balls, until their distance is
    # known), and the vector and radii whose norm less the radii is the
    # sets' distance
    points, gaps, radii = [], [], []
    with np.errstate(over="ignore"):
        for (a, b), (ball_a, ball_b), end in zip(pairs, balls, ends):
            if end is None:
                point, gap, r = None, b.center - a.center, (a.radius, b.radius)
            elif isinstance(end, Exception):
                point, gap, r = end, np.zeros(a.dim), (0.0, 0.0)
            elif ball_a != ball_b:
                ball, poly = (a, b) if ball_a else (b, a)
                point = end[1] @ poly.vertices[end[0]]
                gap, r = point - ball.center, (ball.radius, 0.0)
            else:
                rows, k = np.array(end[0]), len(b.vertices)
                point = end[1] @ a.vertices[rows // k]
                gap, r = point - end[1] @ b.vertices[rows % k], (0.0, 0.0)
            points.append(point)
            gaps.append(gap)
            radii.append(r)
        norms = _norms(np.array(gaps).T).tolist()
    for i, (nrm, (ra, rb)) in enumerate(zip(norms, radii)):
        dist = nrm - ra - rb
        if dist > tol and not isinstance(points[i], Exception):
            points[i] = EmptyIntersection("feasible_point", f"the sets are {dist:.3e} apart, above {tol:.1e}")
        elif points[i] is None:
            # two balls: the middle of the stretch of the segment between
            # the centres that lies in both, measured from a's centre
            points[i] = pairs[i][0].center.copy()
            if nrm > 0:
                lo, hi = max(nrm - rb, 0.0), min(ra, nrm)
                mid = hi if lo > hi else 0.5 * (lo + hi)
                if mid == math.inf:
                    # lo + hi overflowed: halve each before the sum
                    mid = 0.5 * lo + 0.5 * hi
                points[i] += (mid / nrm) * gaps[i]
    return points


def coordinate_bound(s, k):
    """Bound on the k-th coordinate (1-based) of any point of s.

    Equals max(support(s, e_k), support(s, -e_k)); every a in s satisfies
    |a_k| <= that value.  k must be a whole number in 1..n, as CoordinateHom
    takes j; else IndexOutOfRange.
    """
    if not _whole(k) or not 1 <= k <= s.dim:
        raise IndexOutOfRange("coordinate_bound", f"k must be a whole number in 1..{s.dim}, got {k!r}")
    e = np.zeros(s.dim)
    e[int(k) - 1] = 1.0
    return max(support(s, e), support(s, -e))


# ---------------------------------------------------------------------------
# sphere grids: the directions of domination envelopes and support plans

def _kronecker_alphas(n):
    # root of x**(n+1) = x + 1, Newton from 1.5; deterministic
    phi = 1.5
    for _ in range(64):
        phi -= (phi ** (n + 1) - phi - 1.0) / ((n + 1) * phi**n - 1.0)
    return np.array([(1.0 / phi) ** (j + 1) % 1.0 for j in range(n)])


def sphere_grid(n, density):
    """Deterministic unit-sphere sample: uniform angles (n=2), Fibonacci
    spiral (n=3), Kronecker lattice through the Gaussian (n>=4), mapped by
    the standard library's inverse normal, statistics.NormalDist().inv_cdf
    (Wichura's AS 241).  n must be a whole number >= 1 and density a whole
    number >= 8; else ValueError."""
    if not _whole(n) or n < 1:
        raise ValueError(f"grid dimension must be a whole number >= 1, got {n!r}")
    if not _whole(density):
        raise ValueError(f"grid density must be a whole number, got {density!r}")
    if density < 8:
        raise ValueError("grid density must be >= 8")
    n, density = int(n), int(density)
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
    z = np.vectorize(NormalDist().inv_cdf, otypes=[float])(np.clip(u, 1e-12, 1.0 - 1e-12))
    return z / np.linalg.norm(z, axis=1)[:, None]


@lru_cache(maxsize=None)
def _default_grid(n):
    """The default sphere grid of R^n, built once and read-only."""
    grid = sphere_grid(n, _CIRCLE_DENSITY if n <= 2 else 2000)
    grid.flags.writeable = False
    return grid
