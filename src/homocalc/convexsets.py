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

# Defaults pinned for the projection solve: duality-gap tolerance and
# iteration cap for the projected-gradient loop over simplex weights.
PROJECT_TOL = 1e-9
PROJECT_MAX_ITER = 100_000

FEASIBLE_MAX_ITER = 10_000
_STALL_WINDOW = 50
_STALL_REL = 1e-12
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
        sq = cols[0] * cols[0]
        for d in range(1, s.dim):
            sq += cols[d] * cols[d]
        return _dot_columns(s.center, cols) + s.radius * np.sqrt(sq)
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
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            return s.center.copy()
        return s.center + (s.radius / nrm) * x
    raise TypeError(f"unsupported set type {type(s).__name__}")


def _project_simplex(y):
    # Euclidean projection onto the probability simplex, sort-based.
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, y.size + 1)
    rho = np.nonzero(u - css / ks > 0)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(y - tau, 0.0)


def _fw_gap(grad, w):
    # Frank-Wolfe duality gap over the simplex: certifies f(w) - f* <= gap.
    return float(grad @ w - grad.min())


def _polish_face(G, c, w):
    # Solve the equality-constrained least squares on the active face.
    # Returns an improved weight vector or None if the face solve is infeasible.
    S = np.nonzero(w > 1e-12)[0]
    k = S.size
    A = np.zeros((k + 1, k + 1))
    A[:k, :k] = G[np.ix_(S, S)]
    A[:k, k] = 1.0
    A[k, :k] = 1.0
    rhs = np.concatenate([c[S], [1.0]])
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    ws = sol[:k]
    if not np.all(np.isfinite(ws)) or ws.min() < -1e-10:
        return None
    ws = np.maximum(ws, 0.0)
    tot = ws.sum()
    if tot <= 0:
        return None
    out = np.zeros_like(w)
    out[S] = ws / tot
    return out


def _project_polytope(P, p, tol, max_iter):
    V = P.vertices
    k = V.shape[0]
    if k == 1:
        return V[0].copy()

    # minimize f(w) = 0.5 * ||w V - p||^2 over the simplex.
    G = V @ V.T
    c = V @ p

    def fval(w):
        r = w @ V - p
        return 0.5 * float(r @ r)

    # Warm start at the nearest vertex (ties -> lowest index); projecting a
    # vertex of the hull then terminates immediately with zero gap.
    d2 = np.einsum("ij,ij->i", V - p, V - p)
    w = np.zeros(k)
    w[int(np.argmin(d2))] = 1.0

    L = float(np.linalg.eigvalsh(G)[-1])
    if L <= 0.0:
        # all vertices are the origin
        return (w @ V).copy()
    step = 1.0 / L

    def try_polish(w):
        w2 = _polish_face(G, c, w)
        if w2 is not None and fval(w2) <= fval(w) + 1e-15 * (1.0 + abs(fval(w))):
            return w2
        return w

    gap = np.inf
    for it in range(max_iter):
        grad = G @ w - c
        gap = _fw_gap(grad, w)
        if gap <= tol:
            w = try_polish(w)
            return w @ V
        if it > 0 and it % 200 == 0:
            w2 = try_polish(w)
            if fval(w2) < fval(w):
                w = w2
                grad = G @ w - c
                gap = _fw_gap(grad, w)
                if gap <= tol:
                    return w @ V
        w = _project_simplex(w - step * grad)

    grad = G @ w - c
    gap = _fw_gap(grad, w)
    if gap <= tol:
        return w @ V
    raise NoConvergence(
        "project",
        f"optimality gap {gap:.3e} above {tol:.1e} after {max_iter} iterations",
    )


def project(s, p, tol=PROJECT_TOL, max_iter=PROJECT_MAX_ITER):
    """Nearest point of s to p.

    Balls are handled in closed form.  Polytopes run projected gradient over
    simplex weights (step 1/lambda_max of the Gram matrix) until the duality
    gap drops below `tol`, with an active-face polish that makes the generic
    desk-scale case exact; raises NoConvergence if the gap stays above tol.
    """
    p = _check_point(s, p, "project")
    if isinstance(s, Ball):
        d = p - s.center
        nrm = np.linalg.norm(d)
        if nrm <= s.radius:
            return p.copy()
        return s.center + (s.radius / nrm) * d
    if isinstance(s, VPolytope):
        return _project_polytope(s, p, tol, max_iter)
    raise TypeError(f"unsupported set type {type(s).__name__}")


def _dist(s, p, gap_tol=1e-12):
    """Distance from p to s, via projection with a tightened gap."""
    if isinstance(s, Ball):
        return max(0.0, float(np.linalg.norm(np.asarray(p, float) - s.center)) - s.radius)
    q = project(s, p, tol=gap_tol)
    return float(np.linalg.norm(np.asarray(p, float) - q))


def contains(s, a, tol):
    """Membership test: dist(a, s) <= tol."""
    a = _check_point(s, a, "contains")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    return _dist(s, a, gap_tol=max(min(tol * tol, 1e-12), 1e-16)) <= tol


def _representative(s):
    if isinstance(s, Ball):
        return s.center.copy()
    return s.vertices.mean(axis=0)


def feasible_point(set_a, set_b, tol=PROJECT_TOL, max_iter=FEASIBLE_MAX_ITER):
    """A point within tol of both sets, by alternating projections.

    Raises EmptyIntersection when the residual stalls above tol (relative
    improvement below 1e-12 over 50 consecutive iterations) or the iteration
    cap runs out.  For intersecting convex sets the residual is monotone
    nonincreasing, so the stall test is a reliable emptiness signal.
    """
    if set_a.dim != set_b.dim:
        raise DimensionMismatch(
            "feasible_point", f"sets have dims {set_a.dim} and {set_b.dim}"
        )
    x = _representative(set_a)
    best = np.inf
    stall = 0
    residual = np.inf
    for _ in range(max_iter):
        b = project(set_b, x, tol=1e-12)
        a = project(set_a, b, tol=1e-12)
        residual = float(np.linalg.norm(a - b))
        if residual <= tol:
            return a
        if best - residual <= _STALL_REL * max(best, 1.0):
            stall += 1
            if stall >= _STALL_WINDOW:
                break
        else:
            stall = 0
        best = min(best, residual)
        x = a
    raise EmptyIntersection(
        "feasible_point",
        f"alternating-projection residual {residual:.3e} stalled above {tol:.1e}",
    )


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
