import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homocalc.convexsets import (
    PROJECT_TOL,
    Ball,
    VPolytope,
    contains,
    coordinate_bound,
    feasible_point,
    project,
    set_from_json,
    set_to_json,
    support,
    support_argmax,
    support_batch,
)
from homocalc.errors import (
    DimensionMismatch,
    EmptyIntersection,
    IndexOutOfRange,
    NoConvergence,
    SchemaError,
)

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


def test_support_argmax_tie_lowest_index():
    P = VPolytope([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(support_argmax(P, [1.0, 1.0]), [1.0, 0.0])


def test_support_argmax_ball_zero_direction():
    b = Ball([2.0, 3.0], 1.5)
    assert np.array_equal(support_argmax(b, [0.0, 0.0]), [2.0, 3.0])


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


def test_project_no_convergence_with_tiny_iteration_cap():
    with pytest.raises(NoConvergence):
        project(SQUARE, [2.0, 0.0], max_iter=0)


def test_project_thin_triangle_gap_at_tight_tol():
    # An iterative method stalls here far above the 1e-12 gap.
    tri = VPolytope(
        [
            [0.47410345865830655, -0.00810366661777852],
            [0.3441160968967407, -0.2898434775120157],
            [0.30974720018562935, -0.3643256232866426],
        ]
    )
    p = np.array([0.3897486148023525, -0.16807201777335612])
    q = project(tri, p, tol=1e-12)
    assert contains(tri, q, 1e-12)
    # nearest: no vertex lies beyond the plane through q normal to p - q
    assert ((tri.vertices - q) @ (p - q)).max() <= 1e-15


def test_contains_requires_positive_tol():
    with pytest.raises(ValueError):
        contains(SQUARE, [0.0, 0.0], 0.0)


def test_contains_inside_and_outside():
    assert contains(SQUARE, [0.3, -0.9], 1e-9)
    assert not contains(SQUARE, [1.1, 0.0], 1e-3)
    assert contains(Ball([0.0, 0.0], 1.0), [0.6, 0.8], 1e-9)


def test_feasible_point_square_and_segment():
    a = feasible_point(SQUARE, SEGMENT)
    assert contains(SQUARE, a, 1e-9)
    assert contains(SEGMENT, a, 1e-9)


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
    assert contains(Ball([1.0, 1.0], 0.5), a, 1e-12)


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


def test_coordinate_bound_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        coordinate_bound(SQUARE, 3)
    with pytest.raises(IndexOutOfRange):
        coordinate_bound(SQUARE, 0)


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


@settings(max_examples=60, deadline=None)
@given(finite_vec(3), finite_vec(3), st.floats(0.0, 4.0))
def test_support_is_sublinear_on_random_polytope(x, y, lam):
    rng = np.random.default_rng(7)
    P = VPolytope(rng.uniform(-3, 3, size=(5, 3)))
    fx, fy = support(P, x), support(P, y)
    scale = 1.0 + abs(fx) + abs(fy)
    assert support(P, x + y) <= fx + fy + 1e-9 * scale
    assert support(P, lam * x) == pytest.approx(lam * fx, abs=1e-9 * scale)


@settings(max_examples=60, deadline=None)
@given(finite_vec(3))
@example(np.array([0.0, 5e-324, 5e-324]))  # the norm rounds to 5e-324, so x / norm was (0, 1, 1)
def test_support_witness_attains_value(x):
    rng = np.random.default_rng(11)
    for s in (VPolytope(rng.uniform(-3, 3, size=(6, 3))), Ball(rng.uniform(-1, 1, 3), 1.7)):
        a = support_argmax(s, x)
        assert contains(s, a, 1e-8)
        assert float(a @ x) == pytest.approx(support(s, x), abs=1e-9 * (1 + np.abs(x).sum()))


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
    # the gap tolerance is absolute: scale it with the squared distances
    q = project(P, p, tol=PROJECT_TOL * scale**2)
    assert contains(P, q, 1e-7)
    d = np.linalg.norm(p - q)
    w = rng.dirichlet(np.ones(len(P.vertices)), size=8)
    others = np.linalg.norm(w @ P.vertices - p, axis=1)
    assert d <= others.min() + 1e-7


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 3))
def test_coordinate_bound_dominates_vertices(seed, k):
    rng = np.random.default_rng(seed)
    P = VPolytope(rng.uniform(-4, 4, size=(5, 3)))
    bound = coordinate_bound(P, k)
    assert np.all(np.abs(P.vertices[:, k - 1]) <= bound + 1e-12)
