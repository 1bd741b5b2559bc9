import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from homocalc import convexsets
from homocalc.convexsets import (
    Ball,
    VPolytope,
    _CIRCLE_CHORD,
    _default_grid,
    _dot_paired,
    _norms,
    coordinate_bound,
    feasible_point,
    project,
    support,
    support_batch,
)
from homocalc.documents import set_from_json, set_to_json
from homocalc.errors import (
    DimensionMismatch,
    EmptyIntersection,
    IndexOutOfRange,
    NoConvergence,
    SchemaError,
)
from homocalc.homog import circumscribed_polygon_map

SQUARE = VPolytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
SEGMENT = VPolytope([[1.0, 0.0], [0.0, 1.0]])


def finite_vec(n, lo=-5.0, hi=5.0):
    return st.lists(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False), min_size=n, max_size=n
    ).map(np.array)


def test_support_unit_ball():
    assert support(Ball([0.0, 0.0], 1.0), [3.0, 4.0]) == pytest.approx(5.0)


def test_support_polytope_max_over_vertices():
    assert support(SQUARE, [2.0, 1.0]) == pytest.approx(3.0)
    assert support(SQUARE, [0.0, 0.0]) == 0.0


def test_support_batch_matches_pointwise():
    pts = np.array([[3.0, 4.0], [1.0, 0.0], [-2.0, 5.0]])
    for s in (SQUARE, Ball([1.0, -1.0], 2.0)):
        batched = support_batch(s, pts)
        assert batched == pytest.approx([support(s, p) for p in pts])
    # a finite column whose norm leaves the float range: inf, with no
    # warning (which the warnings filter would make an error)
    assert support_batch(Ball([0.0, 0.0], 1.0), [[1.5e308, 1.5e308]]).tolist() == [np.inf]


_EXTREME_GRID = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.1e-318, 0.1, -0.7, 1 / 3, 1.0, -3.0, 1e300, -1e300, 1.7e308]
_BALL_RADII = [0.0, 5e-324, 1.0, 1e300, 1.7e308]
_EXTREME_SHA256 = {
    1: "5832167882b110783cdead2b4b126680060b98d03f931c0967055a137bd68ba1",
    2: "27b2f976b7a3897f18d071ffe6d40a88198794df4cd5c7f849b78ce8e8b32c07",
    3: "f3b1b2017a72aab2442efe0aee4caede46d8123331fcf55b917463e1568c13e4",
}


@pytest.mark.parametrize("n", sorted(_EXTREME_SHA256))
def test_norms_and_ball_support_bytes_are_pinned(n):
    # every column of signed zeros, subnormals, huge entries and values
    # whose squares round (so the sum order shows in R^3), and balls
    # centred on every 7th of them, at x and -x: the bytes of the values,
    # overflows and NaN patterns included
    cols = np.array(list(itertools.product(_EXTREME_GRID, repeat=n))).T
    sha = hashlib.sha256()
    with np.errstate(over="ignore", invalid="ignore"):
        sha.update(_norms(cols).tobytes())
        for center, r in zip(cols.T[::7], itertools.cycle(_BALL_RADII)):
            ball = Ball(center, r)
            for sign in (1.0, -1.0):
                sha.update(support_batch(ball, sign * cols.T).tobytes())
    assert sha.hexdigest() == _EXTREME_SHA256[n]


def test_support_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        support(SQUARE, [1.0, 2.0, 3.0])


def test_project_segment_midpoint():
    q = project(SEGMENT, [1.0, 1.0])
    assert q == pytest.approx([0.5, 0.5], abs=1e-12)


def test_project_vertex_is_exact():
    q = project(SQUARE, [5.0, 5.0])
    assert np.array_equal(q, [1.0, 1.0])


def test_project_interior_point_returned_for_ball():
    b = Ball([0.0, 0.0], 2.0)
    assert np.array_equal(project(b, [1.0, 0.5]), [1.0, 0.5])
    assert project(b, [4.0, 0.0]) == pytest.approx([2.0, 0.0])


def test_project_no_convergence_with_tiny_iteration_cap(monkeypatch):
    monkeypatch.setattr(convexsets, "PROJECT_MAX_ITER", 0)
    with pytest.raises(NoConvergence):
        project(SQUARE, [2.0, 0.0])


def test_project_thin_triangle_gap_at_tight_tol():
    # An iterative method stalls here far above a 1e-12 gap.
    tri = VPolytope(
        [
            [0.47410345865830655, -0.00810366661777852],
            [0.3441160968967407, -0.2898434775120157],
            [0.30974720018562935, -0.3643256232866426],
        ]
    )
    p = np.array([0.3897486148023525, -0.16807201777335612])
    q = project(tri, p)
    feasible_point(tri, Ball(q, 0.0), 1e-12)
    # nearest: no vertex lies beyond the plane through q normal to p - q
    assert ((tri.vertices - q) @ (p - q)).max() <= 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_project_and_contains_reject_non_finite_points(bad):
    # membership is feasible_point of the set and the radius-0 ball at the
    # point, whose centre must be finite
    for s in (SQUARE, Ball([0.0, 0.0], 1.0)):
        with pytest.raises(ValueError, match="support: point must be finite"):
            support(s, [bad, 0.0])
        with pytest.raises(ValueError, match="project: point must be finite"):
            project(s, [bad, 0.0])
        with pytest.raises(ValueError, match="center must be a nonempty finite vector"):
            feasible_point(s, Ball([0.0, bad], 0.0), 1e-9)


def test_contains_inside_and_outside():
    # a point lies in a set when feasible_point meets it with the set
    feasible_point(SQUARE, Ball([0.3, -0.9], 0.0), 1e-9)
    with pytest.raises(EmptyIntersection):
        feasible_point(SQUARE, Ball([1.1, 0.0], 0.0), 1e-3)
    feasible_point(Ball([0.0, 0.0], 1.0), Ball([0.6, 0.8], 0.0), 1e-9)


def test_feasible_point_square_and_segment():
    a = feasible_point(SQUARE, SEGMENT)
    feasible_point(SQUARE, Ball(a, 0.0), 1e-9)
    feasible_point(SEGMENT, Ball(a, 0.0), 1e-9)


def test_feasible_point_singletons_forced():
    a = feasible_point(VPolytope([[2.0, -1.0]]), VPolytope([[2.0, -1.0]]))
    assert np.array_equal(a, [2.0, -1.0])


def test_feasible_point_empty_intersection():
    with pytest.raises(EmptyIntersection):
        feasible_point(Ball([0.0, 0.0], 1.0), Ball([5.0, 0.0], 1.0))


def test_feasible_point_two_balls():
    a = feasible_point(Ball([0.0, 0.0], 2.0), Ball([3.0, 0.0], 2.0))
    assert np.array_equal(a, [1.5, 0.0])
    # touching from outside: the point of contact
    assert np.array_equal(feasible_point(Ball([0.0, 0.0], 1.0), Ball([3.0, 0.0], 2.0)), [1.0, 0.0])
    # one ball inside the other
    a = feasible_point(Ball([0.0, 0.0], 5.0), Ball([1.0, 1.0], 0.5))
    feasible_point(Ball([1.0, 1.0], 0.5), Ball(a, 0.0), 1e-12)


def test_feasible_point_ball_and_polytope():
    ball = Ball([0.0, 0.0], 1.0)
    for args in ((ball, SEGMENT), (SEGMENT, ball)):
        a = feasible_point(*args)
        assert a == pytest.approx([0.5, 0.5], abs=1e-15)
    with pytest.raises(EmptyIntersection):
        feasible_point(ball, VPolytope([[2.0, 0.0], [0.0, 2.0]]))


def _touching_pair(rng, n):
    """Two polytopes in R^n that meet only at their first vertices.

    A lies in the half-space u.x <= u.t and B in u.x >= u.t, each with
    exactly one vertex, t, on the plane.  Returns A, B, t and u.
    """
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    t = rng.uniform(-2.0, 2.0, n)
    A = rng.uniform(-2.0, 2.0, size=(n + 2, n))
    B = rng.uniform(-2.0, 2.0, size=(n + 2, n))
    A -= ((A - t) @ u - rng.uniform(-2.0, -0.1, n + 2))[:, None] * u
    B -= ((B - t) @ u - rng.uniform(0.1, 2.0, n + 2))[:, None] * u
    A[0] = B[0] = t
    return A, B, t, u


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 4))
def test_feasible_point_touching_polytopes(seed, n):
    A, B, t, u = _touching_pair(np.random.default_rng(seed), n)
    a = feasible_point(VPolytope(A), VPolytope(B))
    assert a == pytest.approx(t, abs=1e-12)
    with pytest.raises(EmptyIntersection):
        feasible_point(VPolytope(A), VPolytope(B + 1e-6 * u), tol=1e-9)


def test_coordinate_bound_values():
    P = VPolytope([[2.0, 3.0], [-1.0, 0.0]])
    assert coordinate_bound(P, 1) == pytest.approx(2.0)
    assert coordinate_bound(P, 2) == pytest.approx(3.0)
    # any whole number type gives the same value
    for k in (np.int64(2), 2.0):
        assert coordinate_bound(P, k) == coordinate_bound(P, 2)


def test_coordinate_bound_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        coordinate_bound(SQUARE, 3)
    with pytest.raises(IndexOutOfRange):
        coordinate_bound(SQUARE, 0)


@pytest.mark.parametrize("k", [1.5, "1", np.inf, np.nan, pytest.param(10**400, id="beyond-float")])
def test_coordinate_bound_takes_a_whole_number(k):
    # k is taken as CoordinateHom takes j: a whole number in 1..n
    with pytest.raises(IndexOutOfRange, match="k must be a whole number in 1..2"):
        coordinate_bound(SQUARE, k)

def test_set_json_round_trip():
    for s in (SQUARE, Ball([1.0, 2.0], 0.5)):
        s2 = set_from_json(set_to_json(s))
        assert type(s2) is type(s)
        assert support(s2, [1.0, -2.0]) == support(s, [1.0, -2.0])


def test_set_json_rejects_bool_entries():
    with pytest.raises(SchemaError):
        set_from_json({"ball": {"center": [True, 0.0], "radius": 1.0}})


def test_set_json_rejects_unknown_shape():
    with pytest.raises(SchemaError):
        set_from_json({"simplex": {}})


def test_vpolytope_rejects_nonfinite():
    with pytest.raises(ValueError):
        VPolytope([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        Ball([0.0], -1.0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: VPolytope([]), "vertex array must be nonempty with shape (k, n)"),
        (lambda: VPolytope([[0.0, np.nan]]), "vertices must be finite"),
        (lambda: VPolytope([[1.0, 0.0], [-np.inf, 0.0]]), "vertices must be finite"),
        (lambda: Ball([], 1.0), "center must be a nonempty finite vector"),
        (lambda: Ball([np.nan, 0.0], 1.0), "center must be a nonempty finite vector"),
        (lambda: Ball([0.0], -1.0), "radius must be finite and >= 0"),
        (lambda: Ball([0.0], np.nan), "radius must be finite and >= 0"),
        (lambda: Ball([0.0], np.inf), "radius must be finite and >= 0"),
    ],
    ids=[
        "polytope-empty",
        "polytope-nan",
        "polytope-inf",
        "ball-empty-centre",
        "ball-nan-centre",
        "ball-negative-radius",
        "ball-nan-radius",
        "ball-inf-radius",
    ],
)
def test_set_constructor_rejections_keep_their_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@settings(max_examples=60, deadline=None)
@given(finite_vec(3), finite_vec(3), st.floats(0.0, 4.0))
def test_support_is_sublinear_on_random_polytope(x, y, lam):
    rng = np.random.default_rng(7)
    P = VPolytope(rng.uniform(-3, 3, size=(5, 3)))
    fx, fy = support(P, x), support(P, y)
    scale = 1.0 + abs(fx) + abs(fy)
    assert support(P, x + y) <= fx + fy + 1e-9 * scale
    assert support(P, lam * x) == pytest.approx(lam * fx, abs=1e-9 * scale)


def _vertex_set(rng, shape):
    """Five vertices in R^3: generic, with repeats, on a line, on a plane or thin."""
    V = rng.uniform(-3, 3, size=(5, 3))
    if shape == "duplicate":
        V = V[[0, 1, 1, 2, 0]]
    elif shape == "collinear":
        V = V[0] + rng.uniform(-1, 2, size=(5, 1)) * (V[1] - V[0])
    elif shape == "coplanar":
        st_ = rng.uniform(-1, 2, size=(5, 2))
        V = V[0] + st_[:, :1] * (V[1] - V[0]) + st_[:, 1:] * (V[2] - V[0])
    elif shape == "thin":
        # a simplex squashed to 1e-8 across one plane, then turned
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        V = V[:4] * [1.0, 1.0, 1e-8] @ q.T
    return V


@settings(max_examples=40, deadline=None)
@given(
    finite_vec(3),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["generic", "duplicate", "collinear", "coplanar", "thin"]),
    st.sampled_from([1e-6, 1.0, 1e6]),
)
def test_projection_is_nearest(p, seed, shape, scale):
    rng = np.random.default_rng(seed)
    P = VPolytope(scale * _vertex_set(rng, shape))
    p = scale * p
    q = project(P, p)
    feasible_point(P, Ball(q, 0.0), 1e-7)
    d = np.linalg.norm(p - q)
    w = rng.dirichlet(np.ones(len(P.vertices)), size=8)
    others = np.linalg.norm(w @ P.vertices - p, axis=1)
    assert d <= others.min() + 1e-7


def _normal(a):
    """True when no entry of a is subnormal."""
    return bool(np.all((a == 0) | (np.abs(a) >= np.finfo(float).tiny)))


@settings(max_examples=60, deadline=None)
@given(
    finite_vec(3),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["generic", "duplicate", "collinear", "coplanar", "thin"]),
    st.integers(-1000, 1000),
)
@example(np.array([4.0, -1.0, 2.5]), 0, "generic", 1000)
@example(np.array([4.0, -1.0, 2.5]), 0, "generic", -1000)
# vertices and point are finite at these k, but vertex minus point overflows
@example(np.array([3.5, -3.5, 3.5]), 0, "generic", 1022)
@example(np.array([3.5, -3.5, 3.5]), 0, "duplicate", 1022)
@example(np.array([-3.9, 3.9, 0.0]), 0, "thin", 1022)
def test_projection_commutes_with_power_of_two_scaling(p, seed, shape, k):
    V = _vertex_set(np.random.default_rng(seed), shape)
    Vk, pk = np.ldexp(V, k), np.ldexp(p, k)
    assume(_normal(Vk) and _normal(pk))
    q = project(VPolytope(V), p)
    qk = project(VPolytope(Vk), pk)
    top = max(np.abs(V).max(), np.abs(p).max())
    assert np.abs(np.ldexp(qk, -k) - q).max() <= 1e-12 * top


def test_projection_onto_a_small_polytope_passes_its_nearest_vertex():
    # 1e-6 across; the nearest vertex is 4.08e-6 from p, so a stop rule
    # that does not scale with the data can end there
    rng = np.random.default_rng(1)
    V = 1e-6 * rng.uniform(-3, 3, (5, 3))
    p = 1e-6 * rng.uniform(-5, 5, 3)
    q = project(VPolytope(V), p)
    assert np.linalg.norm(q - p) == pytest.approx(3.7136e-6, rel=1e-4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 3))
def test_coordinate_bound_dominates_vertices(seed, k):
    rng = np.random.default_rng(seed)
    P = VPolytope(rng.uniform(-4, 4, size=(5, 3)))
    bound = coordinate_bound(P, k)
    assert np.all(np.abs(P.vertices[:, k - 1]) <= bound + 1e-12)


# ---------------------------------------------------------------------------
# the pruned polytope support path


def _all_vertex_fold(V, X):
    """The reference: every vertex's coordinate-order fold at the columns of
    X (n, c), folded per column vertex by vertex in order with np.maximum,
    so ties keep the later vertex."""
    return np.maximum.accumulate(_dot_paired(V[:, None, :], X), axis=0)[-1]


def _bits(a):
    """The float64 bytes of a, NaN sign and payload included."""
    return np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes()


_PRUNE_GRID = [*_EXTREME_GRID, np.inf, -np.inf, np.nan]


def _prune_columns(rng, n, count, scale):
    """Columns (n, c): every pair of _PRUNE_GRID in the first two coordinates
    (random entries of it after), random binary exponents, and uniform
    columns at 2^-scale, where the polytope's values are ordinary."""
    grid = np.array(list(itertools.product(_PRUNE_GRID, repeat=min(n, 2))))
    grid = np.hstack([grid, rng.choice(_PRUNE_GRID, size=(len(grid), n - len(grid[0])))])
    binary = np.ldexp(rng.uniform(-1.0, 1.0, (count, n)), rng.integers(-1074, 1025, (count, n)))
    near = np.ldexp(rng.uniform(-5.0, 5.0, (count, n)), -scale)
    return np.vstack([grid, binary, near]).T


def _prune_vertices(rng, n, k, shape):
    V = rng.uniform(-3.0, 3.0, size=(k, n))
    if shape == "interior":
        V[n + 1 :] *= 0.5
    elif shape == "duplicate":
        V[k // 2 :] = V[: k - k // 2]
    elif shape == "collinear":
        V[k // 2 :] = V[0] + rng.uniform(0.0, 1.0, (k - k // 2, 1)) * (V[1] - V[0])
    return V


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(20, 300),
    st.sampled_from(["generic", "interior", "duplicate", "collinear"]),
    st.integers(-900, 900),
    st.integers(0, 2**31 - 1),
)
@example(2, 200, "generic", 0, 0)
@example(4, 300, "interior", -900, 1)
def test_pruned_support_is_the_all_vertex_fold(n, k, shape, scale, seed):
    rng = np.random.default_rng(seed)
    V = np.ldexp(_prune_vertices(rng, n, k, shape), scale)
    X = _prune_columns(rng, n, 300, scale)
    P = VPolytope(V)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _all_vertex_fold(V, X)
        # once through the default grid's worth of columns, so the plan is built
        support_batch(P, _default_grid(n))
        assert _bits(support_batch(P, X.T)) == _bits(want)
        assert _bits(support_batch(P, -X.T)) == _bits(_all_vertex_fold(V, -X))


def test_a_planned_polytope_takes_the_pruned_path(monkeypatch):
    # 200 points uniform in [-3, 3]^2, as in the lift benchmark: few of them
    # come near a maximum, and no uniform column falls back
    rng = np.random.default_rng(5)
    P = VPolytope(rng.uniform(-3.0, 3.0, size=(200, 2)))
    grid = _default_grid(2)
    support_batch(P, grid)
    assert P._plan is None  # the plan waits for a grid's worth of columns
    support_batch(P, grid)
    kept, _ = P._plan
    assert 2 * len(kept) <= 200
    X = rng.uniform(-5.0, 5.0, size=(2, 1000))
    want = _all_vertex_fold(P.vertices, X)
    fold = convexsets._vertex_support

    def no_fallback(V, cols):
        # the kept fold passes the kept vertices, the fallback all 200
        if len(V) == len(P.vertices):
            raise AssertionError("a column fell back on the all-vertex fold")
        return fold(V, cols)

    monkeypatch.setattr(convexsets, "_vertex_support", no_fallback)
    assert _bits(support_batch(P, X.T)) == _bits(want)


def _planned(V):
    """VPolytope(V) with its plan built: two default grids' worth of columns."""
    P = VPolytope(V)
    for _ in range(2):
        support_batch(P, _default_grid(P.dim))
    return P


def _interior(seed, count):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(count, 2))


def _midway_directions(n):
    """Unit columns (n, c) halfway between neighbouring default grid
    directions: the directions farthest from the grid."""
    if n == 1:
        return np.array([[1.0, -1.0]])
    step = 2.0 * np.pi / len(_default_grid(2))
    theta = (np.arange(len(_default_grid(2))) + 0.5) * step
    return np.array([np.cos(theta), np.sin(theta)])


def _adversarial_vertices(rng, n, kind):
    """200 vertices of one stress kind: a few on the unit circle (the
    points +-1 on R^1) at directions midway between grid directions, a few
    1e-16..1e-3 inside it, the rest deep inside; a sliver, whose vertex at
    a midway direction e is the maximum only within a fraction of a grid
    step of e (R^2); or a square of points offset by up to 1e6."""
    if kind == "sliver" and n == 2:
        mid = _midway_directions(2).T
        e = mid[rng.integers(len(mid))]
        t = np.array([-e[1], e[0]])
        # at the grid directions next to e, the vertex e lies about half
        # the plan's depth bound below base + t or base - t
        base = e * (1.0 - 10.0 ** rng.uniform(-16, -3))
        return np.vstack([e, base + t, base - t, rng.uniform(-0.3, 0.3, (197, 2))])
    if kind == "square":
        corners = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
        inner = rng.uniform(-1.0, 1.0, (200 - len(corners), n))
        return np.vstack([corners, inner]) + rng.uniform(-1e6, 1e6, n)
    mid = _midway_directions(n).T
    rim = mid[rng.choice(len(mid), 24 if n == 2 else 2, replace=n == 1)]
    depth = np.concatenate([np.zeros(len(rim) // 2), 10.0 ** rng.uniform(-16, -3, len(rim) - len(rim) // 2)])
    inner = rng.uniform(-0.5, 0.5, (200 - len(rim), n))
    return np.vstack([rim * (1.0 - depth)[:, None], inner])


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 2),
    st.sampled_from(["circle", "sliver", "square"]),
    st.sampled_from([-900, 0, 900]),
    st.integers(0, 2**31 - 1),
)
@example(2, "circle", 0, 0)
@example(2, "sliver", 0, 3)
@example(2, "square", 900, 1)
@example(1, "circle", -900, 2)
def test_the_depth_certificate_holds_at_adversarial_columns(n, kind, scale, seed):
    # columns at the directions farthest from the grid, at the vertices' own
    # directions and at random binary exponents, each at random scales
    rng = np.random.default_rng(seed)
    V0 = _adversarial_vertices(rng, n, kind)
    V = np.ldexp(V0, scale)
    P = _planned(V)
    assert P._plan
    U = np.hstack([_midway_directions(n), V0.T, rng.uniform(-1.0, 1.0, (n, 400))])
    # directions kept exactly, largest entry in [1/2, 1)
    U = np.ldexp(U, -np.frexp(np.abs(U).max(axis=0))[1])
    X = np.hstack([np.ldexp(U, rng.integers(-1074, 1024, U.shape[1])), np.ldexp(U, -scale)])
    with np.errstate(over="ignore", invalid="ignore"):
        for sign in (1.0, -1.0):
            assert _bits(support_batch(P, sign * X.T)) == _bits(_all_vertex_fold(V, sign * X))


def test_the_circle_chord_covers_the_default_grid():
    # every unit vector lies within half the largest angular gap of a grid
    # direction, and within its chord of it: _build_plan's c must cover
    # that chord and the grid's distance from the unit circle
    grid = _default_grid(2)
    theta = np.sort(np.arctan2(grid[:, 1], grid[:, 0]))
    gaps = np.diff(np.append(theta, theta[0] + 2.0 * np.pi))
    assert 2.0 * np.sin(gaps.max() / 4.0) + 2.0**-50 <= _CIRCLE_CHORD
    assert np.abs(np.linalg.norm(grid, axis=1) - 1.0).max() <= 2.0**-50


def test_a_vertex_one_ulp_above_the_kept_maximum_is_kept():
    # v's first coordinate is one ulp above w's, and at x its fold is two
    # ulps above w's: both lie within the depth bound of the maximum
    w = [2.7726799071232624, 1.5084788439901458]
    v = [2.772679907123263, 1.5084788439901458]
    x = np.array([[1.518498715074279], [0.6465755741657495]])
    V = np.vstack([w, v, _interior(3, 30)])
    P = _planned(V)
    kept, _ = P._plan
    assert len(kept) <= 16
    assert {tuple(r) for r in kept} >= {tuple(w), tuple(v)}
    assert _dot_paired(V[0], x)[0] < _dot_paired(V[1], x)[0]
    assert _bits(support_batch(P, x.T)) == _bits(_all_vertex_fold(V, x))


def test_a_column_below_the_magnitude_range_falls_back(monkeypatch):
    # v lies 0.14 inside the hull, deeper than the depth bound, so it is
    # dropped; at x = (1, 1) 2^-1074 every product rounds to a whole
    # multiple of 2^-1074, and v's fold (3 + 3) beats every kept one's
    # (at most 3 + 2).  rho max|x| < 2^-900, so x takes the all-vertex fold.
    hull = [[3.0, 2.4], [2.4, 3.0], [3.0, -3.0], [-3.0, 3.0], [-3.0, -3.0]]
    v = [2.6, 2.6]
    V = np.vstack([hull, [v], _interior(4, 30)])
    P = _planned(V)
    kept, rho = P._plan
    assert tuple(v) not in {tuple(r) for r in kept}
    x = np.array([[5e-324], [5e-324]])
    want = _all_vertex_fold(V, x)
    assert _dot_paired(kept, x).max() < want[0] == _dot_paired(np.array(v), x)[0]
    assert rho * 5e-324 < 2.0**-900
    calls = []
    fold = convexsets._vertex_support

    def counted(W, cols):
        # the kept fold passes the kept vertices, the fallback all of V
        if len(W) == len(V):
            calls.append(cols.shape)
        return fold(W, cols)

    monkeypatch.setattr(convexsets, "_vertex_support", counted)
    assert _bits(support_batch(P, x.T)) == _bits(want)
    assert calls == [(2, 1)]


def test_a_tie_of_signed_zeros_takes_the_sign_of_the_all_vertex_blocks():
    # at x = (1, 0) the vertex (0, 1) gives +0 and the later (-0, -1) gives
    # -0, and every other vertex less; the vertex-order maximum is -0.  x
    # sits alone in the last block of an all-vertex call of 41 columns, and
    # in a block of 40 in the middle of one.
    rng = np.random.default_rng(0)
    V = np.column_stack([rng.uniform(-3.0, -0.5, 200), rng.uniform(-1.0, 1.0, 200)])
    V[98:100] = [[0.0, 1.0], [-0.0, -1.0]]
    P = VPolytope(V)
    for _ in range(2):
        support_batch(P, _default_grid(2))
    assert P._plan
    x = np.array([[1.0], [0.0]])
    U = np.random.default_rng(1).uniform(-5.0, 5.0, (2, 40))
    for X, at in ((np.hstack([U, x]), 40), (np.hstack([U[:, :20], x, U[:, 20:]]), 20)):
        values = support_batch(P, X.T)
        assert _bits(values) == _bits(_all_vertex_fold(V, X))
        assert values[at].hex() == (-0.0).hex()


def test_small_polytopes_are_never_planned():
    # fewer than 32 vertices, or a grid with no proven covering chord (R^3
    # and up): the all-vertex fold always
    for k, n in [(31, 3), (31, 2), (200, 3), (1000, 3), (1000, 4)]:
        P = VPolytope(np.random.default_rng(2).uniform(-1.0, 1.0, size=(k, n)))
        for _ in range(3):
            support_batch(P, _default_grid(n))
        assert P._plan == ()


# The digest of support_batch on a polytope drawn as the lift benchmark
# draws its 200 vertices (seed 0), at _prune_columns (seed 17) and their
# negatives, NaN collapsed; recorded with the all-vertex kernel alone.
_LIFT_POLY_SHA256 = "3ea68d6c72d64b36d0f000da9efdb7c299d81e2c82b8cdb552bd5a027ada836c"


def test_lift_polytope_support_bytes_are_pinned():
    P = VPolytope(np.random.default_rng([0, 0x11F7]).uniform(-3.0, 3.0, size=(200, 2)))
    X = _prune_columns(np.random.default_rng(17), 2, 2000, 0)
    support_batch(P, _default_grid(2))
    sha = hashlib.sha256()
    with np.errstate(over="ignore", invalid="ignore"):
        for sign in (1.0, -1.0):
            values = support_batch(P, sign * X.T)
            # the pin was recorded with every NaN collapsed to one NaN
            sha.update(_bits(np.where(np.isnan(values), np.nan, values)))
    assert P._plan
    assert sha.hexdigest() == _LIFT_POLY_SHA256


def test_planning_a_polygon_holds_no_vertex_by_grid_array():
    # the suite's fresh 720-gon on the default circle: the first call folds
    # every vertex, the second builds the plan (here: none pays).  Peaks
    # measured with the all-vertex kernel alone: 280,374 bytes for the first
    # call; the bound adds 64 KiB.  A 720 x 720 array would need 4 MB.
    grid = _default_grid(2)
    P = circumscribed_polygon_map(720).set
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            support_batch(P, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert P._plan == ()
    assert max(peaks) <= 280_374 + 65_536
