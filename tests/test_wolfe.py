"""Wolfe's min-norm-point kernel: every problem of a stack gets its own bits.

The digests pin the bytes of saddle_build, project and feasible_point on
seeded problems; they were recorded while each problem still ran through
its own call of the kernel, so they hold the stacked kernel to the
arithmetic of one problem at a time.
"""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homocalc import convexsets
from homocalc.convexsets import (
    FEASIBLE_TOL,
    PROJECT_MAX_ITER,
    Ball,
    VPolytope,
    _default_grid,
    _feasible_points,
    _min_norm_weights,
    feasible_point,
    project,
)
from homocalc.errors import CalculusError, EmptyIntersection, NoConvergence, NotOrdered
from homocalc.fcalc import saddle_build, saddle_eval
from homocalc.homog import SublinearMap, SuperlinearMap, angle_superlinear_family, disk_map


def _simplex(rng, n):
    """A random simplex in R^n: n + 1 points around a random centre."""
    return rng.uniform(-0.5, 0.5, n) + rng.uniform(-1.0, 1.0, (n + 1, n))


def _core(rng, n, shape):
    """The vertices of a polytope in R^n: a simplex, one squashed to 1e-8
    across a plane and turned, one in a lower-dimensional affine subspace,
    or one with repeated vertices."""
    if shape == "thin":
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return (_simplex(rng, n) * np.r_[np.ones(n - 1), 1e-8]) @ q.T
    if shape == "lowdim":
        base, span = rng.uniform(-1.0, 1.0, n), rng.normal(size=(n - 1, n))
        return base + rng.uniform(-1.0, 1.0, (n + 1, n - 1)) @ span
    V = _simplex(rng, n)
    if shape == "duplicate":
        V = V[[0, 1, 1, 2, 0, *range(3, n + 1)]]
    return V


def _ordered_families(rng, n, shape, size):
    """phis around a core polytope and psis inside it, shaped like the
    convex-saddle benchmark's: the core, blown-up copies and balls holding
    it against singletons, shrunken copies and (for a simplex) small balls
    inside it.  Every psi set lies in every phi set."""
    core = _core(rng, n, shape)
    cen = core.mean(axis=0)
    phis = [VPolytope(core)]
    for i in range(1, size):
        if i % 2:
            phis.append(VPolytope(cen + rng.uniform(1.2, 2.0) * (core - cen)))
        else:
            c = cen + rng.uniform(-0.3, 0.3, n)
            phis.append(Ball(c, np.linalg.norm(core - c, axis=1).max() * rng.uniform(1.05, 1.5)))
    psis = [VPolytope(v) for v in core[: size // 2]]
    if shape == "simplex":
        a = np.linalg.inv(np.vstack([core.T, np.ones(n + 1)]))[:, :n]
        inradius = (1.0 / (n + 1)) / np.linalg.norm(a, axis=1).max()
    while len(psis) < size:
        p = rng.dirichlet(np.ones(len(core))) @ core
        rho = rng.uniform(0.1, 0.4)
        if shape == "simplex" and len(psis) % 2:
            psis.append(Ball((1.0 - rho) * p + rho * cen, rho * inradius))
        else:
            psis.append(VPolytope((1.0 - rho) * p + rho * core))
    return [SublinearMap(s) for s in phis], [SuperlinearMap(s) for s in psis]


_SADDLE_SHA256 = "4f0fbb924bafe00bfab88be6cdc5e32dbd8a1bd7b688d3d6d000ce72c2ef35ea"


def test_saddle_build_coefficient_bytes_are_pinned():
    sha = hashlib.sha256()
    for seed, (n, shape) in enumerate(
        (n, shape) for n in (2, 3, 4) for shape in ("simplex", "thin", "lowdim", "duplicate")
    ):
        rng = np.random.default_rng([seed, 0x5ADD])
        phis, psis = _ordered_families(rng, n, shape, 8 if shape == "simplex" else 5)
        sha.update(saddle_build(phis, psis).coeffs.tobytes())
    sha.update(saddle_build([disk_map()], list(angle_superlinear_family(32).maps)).coeffs.tobytes())
    assert sha.hexdigest() == _SADDLE_SHA256


def _scaled_map(m, k):
    """m with its set scaled by 2^k, exactly."""
    s = m.set
    if isinstance(s, Ball):
        return type(m)(Ball(np.ldexp(s.center, k), np.ldexp(s.radius, k)))
    return type(m)(VPolytope(np.ldexp(s.vertices, k)))


@pytest.mark.parametrize("k", [-600, 0, 600])
def test_saddle_values_lie_in_the_family_bracket(k):
    # every coefficient lies in subdiff(phi_i) cap superdiff(psi_j), so
    # max_j psi_j <= infsup, supinf <= min_i phi_i on the whole sphere;
    # on the default grid it holds to 2 tol times the sets' scale, the
    # largest |a| over them
    for seed, (n, shape) in enumerate(
        (n, shape) for n in (2, 3, 4) for shape in ("simplex", "thin", "lowdim", "duplicate")
    ):
        rng = np.random.default_rng([seed, 0x5ADD])
        phis, psis = _ordered_families(rng, n, shape, 8 if shape == "simplex" else 5)
        scale = max(
            np.linalg.norm(s.center) + s.radius if isinstance(s, Ball) else np.linalg.norm(s.vertices, axis=1).max()
            for s in [m.set for m in phis + psis]
        )
        slack = 2.0 * FEASIBLE_TOL * np.ldexp(scale, k)
        phis, psis = [_scaled_map(m, k) for m in phis], [_scaled_map(m, k) for m in psis]
        grid = _default_grid(n)
        hi = np.min([p(grid.T) for p in phis], axis=0) + slack
        lo = np.max([q(grid.T) for q in psis], axis=0) - slack
        for values in saddle_eval(saddle_build(phis, psis), grid):
            assert np.all(lo <= values) and np.all(values <= hi), (n, shape)


def _outcome(fn, *args):
    """The bytes of fn's point, or its error's class and message."""
    try:
        return fn(*args).tobytes()
    except CalculusError as exc:
        return f"{type(exc).__name__}: {exc}".encode()


def _random_set(rng, n, kind, scale):
    if kind == "ball":
        return Ball(scale * rng.uniform(-1.0, 1.0, n), scale * rng.uniform(0.0, 1.5))
    shape = rng.choice(["simplex", "thin", "lowdim", "duplicate"])
    return VPolytope(scale * _core(rng, n, shape))


_PROJECT_SHA256 = "ae8a88e65a739801556151783a30d5cdd0bbccba5b27b5b91c765605487657a8"


def test_project_and_feasible_point_bytes_are_pinned():
    sha = hashlib.sha256()
    for seed in range(40):
        rng = np.random.default_rng([seed, 0xF0E5])
        n = int(rng.integers(2, 5))
        scale = float(np.ldexp(1.0, int(rng.integers(-600, 600))))
        poly = _random_set(rng, n, "poly", scale)
        for p in scale * rng.uniform(-2.0, 2.0, (3, n)):
            sha.update(_outcome(project, poly, p))
        kinds = ("ball", "poly")
        for ka in kinds:
            for kb in kinds:
                a, b = _random_set(rng, n, ka, scale), _random_set(rng, n, kb, scale)
                sha.update(_outcome(feasible_point, a, b, 0.5 * scale))
    assert sha.hexdigest() == _PROJECT_SHA256


def _end_bits(end):
    """A kernel result as bytes: corral and weights, or the error's message."""
    if isinstance(end, NoConvergence):
        return str(end).encode()
    corral, w = end
    return np.array(corral).tobytes() + w.tobytes()


def _rows(n, k, shape, exp, seed):
    """A problem of _min_norm_weights: k rows in R^n, with 0 in their hull
    or not, scaled by 2^exp.  Shapes: generic, repeated rows, collinear,
    squashed to 1e-8 across a plane, or the differences a_i - b_j of two
    overlapping polytopes, as the kernel forms them."""
    rng = np.random.default_rng(seed)
    if shape == "difference":
        A, B = rng.uniform(-1.0, 1.0, (k, n)), rng.uniform(-0.5, 0.5, (2, n))
        D = (A[:, None, :] - B[None, :, :]).reshape(-1, n)
    else:
        D = rng.uniform(-1.0, 1.0, (k, n)) + rng.uniform(-1.5, 1.5, n)
        if shape == "duplicate":
            D[k // 2 :] = D[: k - k // 2]
        elif shape == "collinear":
            D = D[0] + rng.uniform(-1.0, 2.0, (k, 1)) * (D[1 % k] - D[0])
        elif shape == "thin":
            D[:, -1] *= 1e-8
    return np.ldexp(D, exp)


def _overflowing(seed):
    """Operands of a problem of _min_norm_weights in R^2 whose differences
    overflow: a triangle and a segment with coordinates up to 1.7e308,
    whose first vertices differ by 3.4e308 in the first coordinate."""
    rng = np.random.default_rng(seed)
    A, B = 1.7e308 * rng.uniform(-1.0, 1.0, (3, 2)), 1.7e308 * rng.uniform(-1.0, 1.0, (2, 2))
    A[0, 0], B[0, 0] = 1.7e308, -1.7e308
    return A, B, "feasible_point"


_PROBLEM = st.tuples(
    st.integers(1, 5),
    st.integers(1, 7),
    st.sampled_from(["generic", "duplicate", "collinear", "thin", "difference"]),
    st.one_of(st.just(0), st.integers(-1000, 1000)),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_PROBLEM, st.integers(1, 4)), min_size=1, max_size=8),
    st.sampled_from([0, 1, 2, PROJECT_MAX_ITER]),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
@example([((2, 6, "generic", 0, 7), 2), ((2, 3, "difference", 5, 8), 1)], PROJECT_MAX_ITER, 11)
def test_a_stack_solves_each_problem_as_it_is_solved_alone(specs, max_iter, overflow):
    # each drawn problem appears in 1-4 copies of one shape, some scaled by
    # another power of two, so that the stack holds groups of equal shapes;
    # with an `overflow` seed the stack opens with a problem whose
    # differences overflow, which is solved as well
    problems = [] if overflow is None else [_overflowing(overflow)]
    for (n, k, shape, exp, seed), copies in specs:
        for c in range(copies):
            problems.append((_rows(n, k, shape, exp if c % 2 else 0, seed + c), np.zeros((1, n)), "project"))
    stacked = _min_norm_weights(problems, max_iter)
    for problem, end in zip(problems, stacked):
        (alone,) = _min_norm_weights([problem], max_iter)
        assert _end_bits(end) == _end_bits(alone)
    if overflow is not None and max_iter == PROJECT_MAX_ITER:
        assert not isinstance(stacked[0], Exception)


def test_each_problem_of_a_stack_keeps_its_own_no_convergence(monkeypatch):
    # a one-row problem ends at once; the others run out of major cycles
    # at different gaps, each named after its own operation
    rng = np.random.default_rng(3)
    square = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    triangle = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
    problems = [
        (square - [2.0, 0.0], np.zeros((1, 2)), "feasible_point"),
        (rng.uniform(-1.0, 1.0, (1, 3)), np.zeros((1, 3)), "project"),
        (triangle - [2.0, 2.0], np.zeros((1, 2)), "project"),
    ]
    ends = _min_norm_weights(problems, 0)
    assert str(ends[0]) == "feasible_point: optimality gap 2.000e+00 after 0 major cycles"
    assert str(ends[2]) == "project: optimality gap 5.000e+00 after 0 major cycles"
    assert isinstance(ends[0], NoConvergence) and isinstance(ends[2], NoConvergence)
    assert ends[1][0] == [0]
    # project reads the cap when it is called
    monkeypatch.setattr(convexsets, "PROJECT_MAX_ITER", 0)
    with pytest.raises(NoConvergence) as caught:
        project(VPolytope(square), [2.0, 0.0])
    assert str(caught.value) == "project" + str(ends[0])[len("feasible_point") :]


def test_a_problem_whose_differences_overflow_is_solved_in_the_stack():
    # with warnings as errors: the differences of big with itself overflow
    # to +-inf, so the kernel forms them again from the halved operands and
    # solves that problem at its zero rows, and the others end as they do
    # alone
    square = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    big = np.array([[1.7e308, 0.0], [-1.7e308, 1.0]])
    zero = np.zeros((1, 2))
    problems = [(square - [2.0, 0.0], zero, "feasible_point"), (big, big, "feasible_point"), (square - [0.0, 3.0], zero, "project")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = _min_norm_weights(problems, 0)
        alone = [_min_norm_weights([problem], 0)[0] for problem in problems[::2]]
    corral, w = ends[1]
    assert corral == [0] and w.tolist() == [1.0]
    assert [_end_bits(end) for end in ends[::2]] == [_end_bits(end) for end in alone]


def test_sets_beyond_the_float_range_apart_are_empty_without_a_warning():
    # the centres' difference, or a one-point set's gap to the other set,
    # overflows, so the distance is inf
    ball = Ball([1.7e308, 0.0], 1.0)
    pairs = [(ball, Ball([-1.7e308, 0.0], 1.0)), (ball, VPolytope([[-1.7e308, 0.0]]))]
    pairs += [(Ball([-1e308, 0.0], 0.0), VPolytope([[1e308, 0.0]])), (VPolytope([[1e308, 0.0]]), VPolytope([[-1e308, 0.0]]))]
    for a, b in pairs + [(b, a) for a, b in pairs]:
        with pytest.raises(EmptyIntersection) as caught:
            feasible_point(a, b)
        assert str(caught.value) == "feasible_point: the sets are inf apart, above 1.0e-09"
    for s in (ball, VPolytope([[1.7e308, 0.0], [1.7e308, 1.0]])):
        with pytest.raises(EmptyIntersection):
            feasible_point(s, Ball([-1.7e308, 0.0], 0.0), 1.0)


def test_sets_whose_vertex_differences_overflow_meet_where_they_meet():
    # every vertex difference below is formed again from halved vertices:
    # the foot of the perpendicular from p to the triangle's edge, and the
    # one vertex two polytopes share
    triangle = VPolytope([[1.7e308, 0.0], [-1.7e308, 1.0], [0.0, -1.7e308]])
    q = project(triangle, [-1.7e308, 0.0])
    assert q[0] == -1.7e308 and q[1] == pytest.approx(0.5, rel=1e-15)
    feasible_point(triangle, Ball([-1.7e308, 0.0], 0.0), 1.0)
    with pytest.raises(EmptyIntersection):
        feasible_point(triangle, Ball([-1.7e308, -3.0], 0.0), 1.0)
    phi = VPolytope([[1e308, 1e308], [-1e308, -1e308], [1e308, -1e308]])
    psi = VPolytope([[-1e308, 1e308], [1e308, 1e308]])
    assert np.array_equal(feasible_point(phi, psi), [1e308, 1e308])
    assert np.array_equal(feasible_point(Ball([-1.7e308, 1.0], 0.0), triangle), [-1.7e308, 1.0])


def test_projection_onto_a_ball_beyond_the_float_range_lands_on_the_ball():
    # p minus the centre, or its norm, overflows: the direction comes from
    # the halves, scaled by a power of two
    assert project(Ball([1.7e308, 0.0], 1.0), [-1.7e308, 0.0]).tolist() == [1.7e308, 0.0]
    assert project(Ball([1.7e308, 1.7e308], 1.0), [-1.7e308, -1.7e308]).tolist() == [1.7e308, 1.7e308]
    q = project(Ball([0.0, 0.0], 1.0), [1.5e308, 1.5e308])
    assert q.tolist() == pytest.approx([2.0**-0.5, 2.0**-0.5], rel=1e-15)


def test_two_balls_whose_stretch_ends_sum_beyond_the_float_range_meet_where_they_meet():
    # the stretch of the centres' segment that lies in both balls ends at
    # lo and hi from a's centre; where lo + hi overflows, each is halved
    # before the sum, so the middle is finite and no warning is raised
    a, b = Ball([0.0, 0.0], 1.5e308), Ball([1e308, 0.0], 0.0)
    assert feasible_point(a, b).tolist() == [1e308, 0.0]
    assert feasible_point(b, a).tolist() == [1e308, 0.0]
    assert saddle_build([SublinearMap(a)], [SuperlinearMap(b)]).coeffs.tolist() == [[[1e308, 0.0]]]
    wide = feasible_point(Ball([0.0, 0.0], 1.7e308), Ball([1.6e308, 0.0], 1e308))
    assert wide.tolist() == [0.5 * 0.6e308 + 0.5 * 1.6e308, 0.0]


def _edge_polygon():
    """A triangle whose one edge has its outward normal n0 half a step of
    the default grid of R^2 from the nearest grid directions, at distance 1:
    a point up to about 4e-3 beyond that edge stays below the triangle on
    the grid, so a check on the grid would miss the gap that the sets'
    distance finds."""
    t0 = np.pi / 720
    n0, e = np.array([np.cos(t0), np.sin(t0)]), np.array([-np.sin(t0), np.cos(t0)])
    return VPolytope([n0 + e, n0 - e, [-2.0, 0.0]]), n0


def test_saddle_build_raises_the_first_failing_pair_in_row_major_order():
    # pair (0, 1), a ball 2e-3 beyond the edge, fails before pair (0, 2),
    # a point 1e-3 beyond it; every pair of the big ball builds.  The
    # message names the pair and keeps feasible_point's distance and
    # threshold, tol times the big ball's radius.
    phi, n0 = _edge_polygon()
    psis = [VPolytope([0.5 * n0]), Ball((1.0 + 2e-3 + 0.25) * n0, 0.25), VPolytope([(1.0 + 1e-3) * n0])]
    psis = [SuperlinearMap(s) for s in psis]
    big = SublinearMap(Ball([0.0, 0.0], 3.0))
    for phis, name in (([SublinearMap(phi), big], "phi0"), ([big, SublinearMap(phi)], "phi1")):
        with pytest.raises(NotOrdered) as caught:
            saddle_build(phis, psis)
        assert str(caught.value) == f"saddle_build: psi1 exceeds {name}: the sets are 2.000e-03 apart, above 3.0e-09"
    with pytest.raises(NotOrdered) as caught:
        saddle_build([big, SublinearMap(phi)], psis[::-1])
    assert str(caught.value) == "saddle_build: psi0 exceeds phi1: the sets are 1.000e-03 apart, above 3.0e-09"


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_tolerances_must_be_finite_and_not_negative(tol):
    with pytest.raises(ValueError, match="saddle_build: tol must be finite and >= 0"):
        saddle_build([SublinearMap(VPolytope([[1.0, 0.0]]))], [SuperlinearMap(VPolytope([[0.0, 1.0]]))], tol=tol)
    with pytest.raises(ValueError, match="feasible_point: tol must be finite and >= 0"):
        feasible_point(Ball([0.0, 0.0], 1.0), Ball([5.0, 0.0], 1.0), tol=tol)


def test_feasible_point_takes_a_zero_tolerance():
    assert np.array_equal(feasible_point(VPolytope([[2.0, -1.0]]), VPolytope([[2.0, -1.0]]), tol=0.0), [2.0, -1.0])



def _counting_kernel(monkeypatch):
    """The problems sent to _min_norm_weights from here on, as a list."""
    sent, kernel = [], convexsets._min_norm_weights

    def counting(problems, max_iter):
        sent.extend(problems)
        return kernel(problems, max_iter)

    monkeypatch.setattr(convexsets, "_min_norm_weights", counting)
    return sent


def test_one_point_pairs_never_reach_the_kernel(monkeypatch):
    # the disk against 32 tangents is 32 pairs of a ball and one vertex,
    # and two one-vertex polytopes are one row too; a second vertex sends
    # its pair to the kernel
    sent = _counting_kernel(monkeypatch)
    saddle_build([disk_map()], list(angle_superlinear_family(32).maps))
    feasible_point(VPolytope([[0.5, -2.0]]), VPolytope([[0.5, -2.0]]))
    assert sent == []
    feasible_point(VPolytope([[0.5, -2.0], [1.0, 0.0]]), VPolytope([[0.5, -2.0]]))
    assert len(sent) == 1


def _kernel_point(pair, max_iter):
    """The point of a one-row pair as the kernel's own end gives it, which
    must be corral [0] and weights [1.0]."""
    a, b = pair
    if isinstance(a, Ball) or isinstance(b, Ball):
        ball, poly = (a, b) if isinstance(a, Ball) else (b, a)
        problem = (poly.vertices, ball.center[None, :], "project")
    else:
        poly, problem = a, (a.vertices, b.vertices, "feasible_point")
    ((corral, w),) = _min_norm_weights([problem], max_iter)
    assert corral == [0] and w.tobytes() == np.ones(1).tobytes()
    return w @ poly.vertices[corral]


@pytest.mark.parametrize("k", [-1070, -600, 0, 600])
@pytest.mark.parametrize("max_iter", [0, PROJECT_MAX_ITER])
def test_one_point_pairs_keep_the_kernels_bits(monkeypatch, k, max_iter):
    # at every scale and cap; the -0.0 coordinates come back +0.0, as the
    # kernel's product [1.0] @ vertices[[0]] gives them
    monkeypatch.setattr(convexsets, "PROJECT_MAX_ITER", max_iter)
    v = np.ldexp(np.array([-0.0, 1.5, -0.0]), k)
    near = np.ldexp(np.array([2.0**-30, 1.5, 0.0]), k)
    pairs = [
        (VPolytope([v]), Ball(near, np.ldexp(1.0, k))),
        (Ball(near, np.ldexp(1.0, k)), VPolytope([v])),
        (VPolytope([v]), VPolytope([v])),
        (VPolytope([v]), VPolytope([near])),
    ]
    points = _feasible_points(pairs, np.inf)
    for pair, point in zip(pairs, points):
        assert point.tobytes() == _kernel_point(pair, max_iter).tobytes()
    assert not np.signbit(points[0]).any() and not np.signbit(points[2]).any()


def _mixed_pair(kind, n, shape, exp, seed):
    """A pair of sets in R^n scaled by 2^exp: two balls, a ball and a
    one-vertex polytope, two one-vertex polytopes, a ball and a polytope or
    two polytopes (in either order), some coordinates of a one-vertex
    polytope set to -0.0."""
    rng = np.random.default_rng([seed, 0x313])

    def make(part):
        if part == "ball":
            return Ball(np.ldexp(rng.uniform(-1.0, 1.0, n), exp), np.ldexp(rng.uniform(0.0, 1.5), exp))
        if part == "point":
            v = rng.uniform(-1.0, 1.0, n)
            return VPolytope([np.ldexp(np.where(rng.random(n) < 0.3, -0.0, v), exp)])
        return VPolytope(np.ldexp(_core(rng, n, shape), exp))

    return tuple(make(part) for part in kind.split("-"))


_KINDS = ["ball-ball", "ball-point", "point-ball", "point-point", "ball-poly", "poly-ball", "poly-poly", "point-poly"]


def _pair_outcome(point):
    """A _feasible_points result as bytes: the point, or the error's class and message."""
    if isinstance(point, Exception):
        return f"{type(point).__name__}: {point}".encode()
    return point.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.lists(
        st.tuples(
            st.sampled_from(_KINDS),
            st.sampled_from(["simplex", "thin", "lowdim", "duplicate"]),
            st.sampled_from([0, 0, -600, 600]),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=10,
    ),
    st.sampled_from([0.0, 1e-9, 0.5, np.inf]),
    st.randoms(use_true_random=False),
)
def test_a_mixed_stack_of_pairs_solves_each_pair_as_it_is_solved_alone(n, specs, tol, order):
    # each drawn pair comes twice, the copy from the next seed, so that the
    # stack holds groups of equal shapes that grow their corrals together
    pairs = [_mixed_pair(kind, n, shape, exp, seed + c) for kind, shape, exp, seed in specs for c in range(2)]
    order.shuffle(pairs)
    for pair, point in zip(pairs, _feasible_points(pairs, tol)):
        (alone,) = _feasible_points([pair], tol)
        assert _pair_outcome(point) == _pair_outcome(alone)
