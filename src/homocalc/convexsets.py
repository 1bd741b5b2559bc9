"""Convex compact subsets of R^n and the support-function toolkit.

Two concrete representations are supported: V-polytopes (convex hulls of
finitely many points) and closed Euclidean balls.  Everything downstream
(sub/superlinear maps, saddle coefficients) reduces to the operations here:
support values, support witnesses, membership, nearest-point projection,
and a feasibility routine for intersections.
"""

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyIntersection,
    IndexOutOfRange,
    NoConvergence,
    SchemaError,
)

# Defaults pinned for the projection solve: Frank-Wolfe gap tolerance and
# cap on the major cycles of Wolfe's min-norm-point method.
PROJECT_TOL = 1e-9
PROJECT_MAX_ITER = 100_000
# Rounding floor of that gap, relative to the largest squared distance from
# p to a vertex: 1024 machine epsilons.
_GAP_FLOOR = 2.0**-42
# A sum of squares in this range has neither overflowed nor lost a square
# that matters to underflow.
_SAFE_SUM = (2.0**-960, 2.0**960)
# Largest number of values a batched kernel (support, family scan, saddle)
# holds in one block, so that the working set stays small for any batch.
_BLOCK_CELLS = 8192


class VPolytope:
    """Convex hull of a nonempty finite vertex list (rows of `vertices`)."""

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float, copy=True)
        if v.ndim == 1:
            v = v.reshape(1, -1)
        if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] == 0:
            raise ValueError("vertex array must be nonempty with shape (k, n)")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        v.flags.writeable = False
        self.vertices = v

    @property
    def dim(self):
        return self.vertices.shape[1]

    def __repr__(self):
        return f"VPolytope({self.vertices.shape[0]} vertices in R^{self.dim})"


class Ball:
    """Closed Euclidean ball with given center and radius >= 0."""

    def __init__(self, center, radius):
        c = np.array(center, dtype=float, copy=True).reshape(-1)
        if c.size == 0 or not np.all(np.isfinite(c)):
            raise ValueError("center must be a nonempty finite vector")
        r = float(radius)
        if not np.isfinite(r) or r < 0:
            raise ValueError("radius must be finite and >= 0")
        c.flags.writeable = False
        self.center = c
        self.radius = r

    @property
    def dim(self):
        return self.center.size

    def __repr__(self):
        return f"Ball(center in R^{self.dim}, radius={self.radius})"


def _check_point(s, x, op):
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != s.dim:
        raise DimensionMismatch(op, f"point has dim {x.size}, set has dim {s.dim}")
    return x


def _dot_columns(A, X):
    """A (..., n) against X (n,) or (n, k): shape (...) or (..., k).

    Sums coordinate by coordinate in a fixed order with elementwise
    products, never through BLAS, so an entry does not depend on how many
    columns share the call.
    """
    out = np.multiply.outer(A[..., 0], X[0])
    for d in range(1, A.shape[-1]):
        out += np.multiply.outer(A[..., d], X[d])
    return out


def _sum_squares(cols):
    sq = cols[0] * cols[0]
    for d in range(1, cols.shape[0]):
        sq += cols[d] * cols[d]
    return sq


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
        sq = _sum_squares(cols)
        if not sq.size or sq.min() >= _SAFE_SUM[0]:
            return np.sqrt(sq)
    else:
        with np.errstate(over="ignore"):
            sq = _sum_squares(cols)
    out = np.sqrt(sq)
    odd = np.flatnonzero(~(sq >= _SAFE_SUM[0]) | (sq > _SAFE_SUM[1]))
    if odd.size:
        exp = np.frexp(np.abs(cols[:, odd]).max(axis=0))[1]
        out[odd] = np.ldexp(np.sqrt(_sum_squares(np.ldexp(cols[:, odd], -exp))), exp)
    return out


def _norm(x):
    """Euclidean norm of a vector, as _norms computes it."""
    return float(_norms(np.asarray(x, dtype=float).reshape(-1, 1))[0])


def support(s, x):
    """Support value max{a.x : a in s}: the one-point case of support_batch."""
    x = _check_point(s, x, "support")
    return float(support_batch(s, x[None, :])[0])


def support_batch(s, points):
    """Support values for each row of `points`, shape (k, n) -> (k,).

    A row's value does not depend on the other rows: sums run coordinate by
    coordinate, and polytopes are evaluated in blocks of at most
    _BLOCK_CELLS vertex-by-point cells.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != s.dim:
        raise DimensionMismatch(
            "support", f"points have shape {pts.shape}, set has dim {s.dim}"
        )
    cols = pts.T
    if isinstance(s, VPolytope):
        V = s.vertices
        out = np.empty(cols.shape[1])
        step = max(1, _BLOCK_CELLS // V.shape[0])
        for c in range(0, cols.shape[1], step):
            out[c : c + step] = _dot_columns(V, cols[:, c : c + step]).max(axis=0)
        return out
    if isinstance(s, Ball):
        return _dot_columns(s.center, cols) + s.radius * _norms(cols)
    raise TypeError(f"unsupported set type {type(s).__name__}")


def support_argmax(s, x):
    """A point of s attaining the support value in direction x.

    Polytope ties resolve to the lowest vertex index; for a ball with x = 0
    the center is returned.
    """
    x = _check_point(s, x, "support_argmax")
    if isinstance(s, VPolytope):
        idx = int(np.argmax(s.vertices @ x))
        return s.vertices[idx].copy()
    if isinstance(s, Ball):
        top = np.abs(x).max()
        if top == 0.0:
            return s.center.copy()
        # an exact power-of-two scaling first, so that a subnormal x still
        # divides to a unit vector
        x = np.ldexp(x, -np.frexp(top)[1])
        return s.center + s.radius * (x / _norm(x))
    raise TypeError(f"unsupported set type {type(s).__name__}")


def _affine_weights(P):
    """Weights v, sum 1, minimizing ||v @ P||, and a basis of the edges' span.

    Least squares on the edges from the first row, by SVD with lstsq's rank
    cut, so duplicate, collinear or coplanar rows are no error.
    """
    if P.shape[0] == 1:
        return np.ones(1), None
    E = (P[1:] - P[0]).T
    U, sv, Vt = np.linalg.svd(E, full_matrices=False)
    r = int(np.count_nonzero(sv > sv[0] * max(E.shape) * np.finfo(float).eps))
    z = -(Vt[:r].T @ ((U[:, :r].T @ P[0]) / sv[:r]))
    return np.concatenate(([1.0 - z.sum()], z)), U[:, :r]


def _min_norm_weights(D, tol, max_iter, op):
    """Wolfe's nearest point x = w @ D[corral] to 0 in the hull of D's rows.

    Returns the corral (row indices) and its weights, all > 0.  A major
    cycle adds the row with the smallest x.d; minor cycles move to the
    corral's affine minimizer, dropping rows until every weight is > 0.
    Stops at a Frank-Wolfe gap x.x - min_i x.d_i (which bounds
    (||x||^2 - min ||.||^2) / 2) of at most tol, or of at most _GAP_FLOOR
    max_i ||d_i||^2 once rounding stops progress (the chosen row is in the
    corral, or ||x|| did not fall).  Else raises NoConvergence, as it does
    after max_iter major cycles.
    """
    sq = np.einsum("ij,ij->i", D, D)
    floor = _GAP_FLOOR * float(sq.max())
    corral = [int(np.argmin(sq))]
    w, span = np.ones(1), None
    last = np.inf
    for cycle in range(max_iter + 1):
        x = w @ D[corral]
        if span is not None:
            # x is the corral's affine minimizer, so it is orthogonal to the
            # corral's edges; removing the rounding along them makes x.d_i
            # exact to rounding in ||x|| max ||d_i||, not in max ||d_i||^2.
            x -= span @ (span.T @ x)
        g = D @ x
        j = int(np.argmin(g))
        xx = float(x @ x)
        gap = xx - float(g[j])
        stalled = j in corral or xx >= last
        if gap <= tol or (stalled and gap <= floor):
            return corral, w
        if stalled or cycle == max_iter:
            break
        last = xx
        corral.append(j)
        w = np.append(w, 0.0)
        while True:
            v, basis = _affine_weights(D[corral])
            if v.min() > 0:
                w, span = v, basis
                break
            # Step from w towards v until the first weight reaches 0, drop it.
            out = np.flatnonzero(v <= 0)
            ratio = w[out] / np.maximum(w[out] - v[out], np.finfo(float).tiny)
            k = int(np.argmin(ratio))
            w = w + ratio[k] * (v - w)
            w[out[k]] = 0.0
            keep = np.flatnonzero(w > 0)
            corral = [corral[i] for i in keep]
            w = w[keep]
    raise NoConvergence(
        op, f"optimality gap {gap:.3e} above {tol:.1e} after {cycle} major cycles"
    )


def project(s, p, tol=PROJECT_TOL, max_iter=PROJECT_MAX_ITER):
    """Nearest point q of s to p.

    Balls are handled in closed form.  Polytopes run Wolfe's finite
    min-norm-point method on the vertices minus p; q is a convex combination
    of vertices.  Certificate: the Frank-Wolfe gap x.x - min_i x.(v_i - p)
    at x = q - p is at most tol, or, where rounding stops progress first,
    at most 2^-42 max_i ||v_i - p||^2.  Raises NoConvergence otherwise, and
    when max_iter major cycles run out.
    """
    p = _check_point(s, p, "project")
    if isinstance(s, Ball):
        d = p - s.center
        nrm = _norm(d)
        if nrm <= s.radius:
            return p.copy()
        return s.center + (s.radius / nrm) * d
    if isinstance(s, VPolytope):
        corral, w = _min_norm_weights(s.vertices - p, tol, max_iter, "project")
        return w @ s.vertices[corral]
    raise TypeError(f"unsupported set type {type(s).__name__}")


def contains(s, a, tol):
    """Membership test: dist(a, s) <= tol, projecting with a gap of tol^2 in [1e-16, 1e-12]."""
    a = _check_point(s, a, "contains")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if isinstance(s, Ball):
        return _norm(a - s.center) - s.radius <= tol
    return _norm(a - project(s, a, tol=max(min(tol * tol, 1e-12), 1e-16))) <= tol


def feasible_point(set_a, set_b, tol=PROJECT_TOL):
    """A point within tol of both sets, from exact cases.

    Two balls: the middle of the stretch of the segment between the centres
    that lies in both.  A ball and a polytope: the centre projected onto the
    polytope.  Two polytopes: Wolfe's method (see project) on the
    differences a_i - b_j; its weights give a in set_a and b in set_b with
    ||a - b|| the sets' distance, and a is returned.  Raises
    EmptyIntersection when the distance is above tol.
    """
    if set_a.dim != set_b.dim:
        raise DimensionMismatch(
            "feasible_point", f"sets have dims {set_a.dim} and {set_b.dim}"
        )
    if isinstance(set_a, Ball) and isinstance(set_b, Ball):
        d = set_b.center - set_a.center
        nrm = _norm(d)
        dist = nrm - set_a.radius - set_b.radius
        point = set_a.center.copy()
        if nrm > 0:
            # distances from set_a's centre, along d, that lie in both balls
            lo, hi = max(nrm - set_b.radius, 0.0), min(set_a.radius, nrm)
            point += ((hi if lo > hi else 0.5 * (lo + hi)) / nrm) * d
    elif isinstance(set_a, Ball) or isinstance(set_b, Ball):
        ball, poly = (set_a, set_b) if isinstance(set_a, Ball) else (set_b, set_a)
        point = project(poly, ball.center, tol=0.0)
        dist = _norm(point - ball.center) - ball.radius
    else:
        A, B = set_a.vertices, set_b.vertices
        D = (A[:, None, :] - B[None, :, :]).reshape(-1, A.shape[1])
        corral, w = _min_norm_weights(D, 0.0, PROJECT_MAX_ITER, "feasible_point")
        rows = np.array(corral)
        point = w @ A[rows // B.shape[0]]
        dist = _norm(point - w @ B[rows % B.shape[0]])
    if dist > tol:
        raise EmptyIntersection(
            "feasible_point", f"the sets are {dist:.3e} apart, above {tol:.1e}"
        )
    return point


def coordinate_bound(s, k):
    """Bound on the k-th coordinate (1-based) of any point of s.

    Equals max(support(s, e_k), support(s, -e_k)); every a in s satisfies
    |a_k| <= that value.
    """
    if not 1 <= k <= s.dim:
        raise IndexOutOfRange("coordinate_bound", f"k={k} outside 1..{s.dim}")
    e = np.zeros(s.dim)
    e[k - 1] = 1.0
    return max(support(s, e), support(s, -e))


# ---------------------------------------------------------------------------
# JSON encoding:  {"polytope": {"vertices": [[...], ...]}}
#                 {"ball": {"center": [...], "radius": r}}

def set_to_json(s):
    if isinstance(s, VPolytope):
        return {"polytope": {"vertices": s.vertices.tolist()}}
    if isinstance(s, Ball):
        return {"ball": {"center": s.center.tolist(), "radius": s.radius}}
    raise TypeError(f"unsupported set type {type(s).__name__}")


def _expect_number_list(obj, source, path):
    if not isinstance(obj, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj
    ):
        raise SchemaError(source, path, "expected a list of numbers")
    return [float(v) for v in obj]


def set_from_json(obj, source="<inline>", path="set"):
    if not isinstance(obj, dict):
        raise SchemaError(source, path, "expected an object")
    if "polytope" in obj:
        body = obj["polytope"]
        if not isinstance(body, dict) or "vertices" not in body:
            raise SchemaError(source, f"{path}.polytope", "expected {'vertices': [[...]]}")
        verts = body["vertices"]
        if not isinstance(verts, list) or not verts:
            raise SchemaError(source, f"{path}.polytope.vertices", "expected a nonempty list")
        rows = []
        for i, row in enumerate(verts):
            rows.append(_expect_number_list(row, source, f"{path}.polytope.vertices[{i}]"))
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise SchemaError(source, f"{path}.polytope.vertices", "rows have mixed lengths")
        return VPolytope(rows)
    if "ball" in obj:
        body = obj["ball"]
        if not isinstance(body, dict) or "center" not in body or "radius" not in body:
            raise SchemaError(source, f"{path}.ball", "expected {'center': [...], 'radius': r}")
        center = _expect_number_list(body["center"], source, f"{path}.ball.center")
        radius = body["radius"]
        if not isinstance(radius, (int, float)) or isinstance(radius, bool) or radius < 0:
            raise SchemaError(source, f"{path}.ball.radius", "expected a number >= 0")
        return Ball(center, float(radius))
    raise SchemaError(source, path, "expected a 'polytope' or 'ball' key")
