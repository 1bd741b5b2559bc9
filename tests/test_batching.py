"""One column lifted alone equals the same column inside a batch, bit for bit.

Every batched kernel (family scan or witness, support, saddle) sums coordinate by
coordinate in a fixed order, so a column's value must not depend on the
columns it shares a call with.  Comparisons are on the float64 bytes, so
they also catch a flipped sign of zero.
"""

import ast
import itertools
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homocalc
from homocalc import convexsets
from homocalc.convexsets import (
    _BLOCK_CELLS,
    Ball,
    VPolytope,
    _default_grid,
    _dot_paired,
    _norms,
    support_batch,
)
from homocalc.errors import DimensionMismatch
from homocalc.fcalc import (
    SaddleFamily,
    fc_saddle,
    fc_semicontinuous,
    fc_sublinear,
    fc_superlinear,
    saddle_build,
    saddle_eval,
)
from homocalc.homog import (
    FiniteFamily,
    PHFunction,
    SublinearMap,
    SuperlinearMap,
    WitnessFamily,
    _eval_columns,
    _scan_columns,
    angle_superlinear_family,
    builtin,
    disk_map,
    eval_family_detailed,
)
from homocalc.lattice import RmElement, StepFunction, common_refinement

BUILTINS = [
    builtin("example-7.1"),
    builtin("example-7.2"),
    builtin("square-mean"),
    builtin("abs-sum", n=3),
    builtin("max-coord", n=4),
]


def _bits(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64)).tobytes()


def _columns(rng, n, k):
    """k columns with magnitudes from 1e-300 to 1e300, signs and ratios mixed."""
    mags = 10.0 ** rng.uniform(-300.0, 300.0, size=(n, k))
    X = rng.choice([-1.0, 1.0], size=(n, k)) * mags
    X[:, : k // 2] = rng.uniform(-5.0, 5.0, size=(n, k // 2))
    X[0, ::7] *= 1e-30  # near an axis
    return X


def _map_family(rng, n):
    """A PHFunction on both sides from polytope and ball maps."""
    subs = [
        SublinearMap(VPolytope(rng.uniform(-3.0, 3.0, size=(5, n)))),
        SublinearMap(Ball(rng.uniform(-1.0, 1.0, n), 2.0)),
    ]
    sups = [
        SuperlinearMap(VPolytope(rng.uniform(-3.0, 3.0, size=(3, n)))),
        SuperlinearMap(Ball(np.zeros(n), 0.5)),
    ]
    return PHFunction("plain-maps", n, inf_family=FiniteFamily(subs), sup_family=FiniteFamily(sups))


def _mixed_linear_family(rng, n):
    """Linear maps of both classes on each side, so no side is one stacked
    matrix and every member evaluates in turn."""
    V = rng.uniform(-3.0, 3.0, size=(6, n))
    inf_maps = [(SublinearMap if k % 2 else SuperlinearMap)(VPolytope([v])) for k, v in enumerate(V)]
    sup_maps = [(SuperlinearMap if k % 3 else SublinearMap)(VPolytope([v])) for k, v in enumerate(V)]
    return PHFunction(
        "mixed-linear-maps", n, inf_family=FiniteFamily(inf_maps), sup_family=FiniteFamily(sup_maps)
    )


def _sides(h):
    return [side for side, fam in (("inf", h.inf_family), ("sup", h.sup_family)) if fam is not None]


def _assert_scan_matches_single_columns(h, X):
    for side in _sides(h):
        values, terms = _eval_columns(h, X, side)
        single = [eval_family_detailed(h, X[:, j], side=side) for j in range(X.shape[1])]
        assert _bits(values) == _bits([v for v, _ in single]), (h.name, side)
        assert [terms] * X.shape[1] == [t for _, t in single], (h.name, side)


@pytest.mark.parametrize(
    "h",
    [*BUILTINS, _map_family(np.random.default_rng(11), 3), _mixed_linear_family(np.random.default_rng(13), 3)],
    ids=lambda h: h.name,
)
def test_batched_scan_equals_single_column_scans(h):
    # 530 columns in one call, in member blocks of 8192 // 530, against one
    # call per column, in member blocks of 8192
    X = _columns(np.random.default_rng(7), h.dim, 530)
    _assert_scan_matches_single_columns(h, X)


@pytest.mark.parametrize("h", BUILTINS, ids=lambda h: h.name)
def test_builtin_block_values_equal_stacked_columns(h):
    # a finite family's block of members, or a witness family's one member
    # per column
    X = _columns(np.random.default_rng(3), h.dim, 40)
    for family in (h.inf_family, h.sup_family):
        if family is None:
            continue
        with np.errstate(all="ignore"):
            if isinstance(family, WitnessFamily):
                def block(cols):
                    return family.member_fn(family.witness_fn(cols), cols)
            else:
                def block(cols):
                    return family.values(cols, slice(None))
            whole = block(X)
            stacked = np.stack([block(X[:, j : j + 1]) for j in range(X.shape[1])], axis=-1)
        assert _bits(whole) == _bits(stacked.reshape(whole.shape))


def _lifted_alone(lift, m, X):
    return [lift(m, [RmElement([x]) for x in X[:, j]]).coords[0] for j in range(X.shape[1])]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_map_and_saddle_lifts_equal_single_column_lifts(n):
    rng = np.random.default_rng(100 + n)
    verts = rng.uniform(-3.0, 3.0, size=(200, n))
    phi = SublinearMap(VPolytope(verts))
    psi = SuperlinearMap(VPolytope(verts))
    ball = SublinearMap(Ball(rng.uniform(-1.0, 1.0, n), 1.5))
    few = verts[:5]
    # one row (P = 1) and one column (Q = 1)
    one_row = saddle_build([SublinearMap(VPolytope(few))], [SuperlinearMap(VPolytope([v])) for v in few])
    one_col = saddle_build([SublinearMap(VPolytope([v])) for v in few], [SuperlinearMap(VPolytope(few))])
    X = rng.uniform(-5.0, 5.0, size=(n, 300))
    fs = [RmElement(row) for row in X]
    lifts = (
        (fc_sublinear, phi), (fc_superlinear, psi), (fc_sublinear, ball), (fc_saddle, one_row), (fc_saddle, one_col)
    )
    for lift, m in lifts:
        assert _bits(lift(m, fs).coords) == _bits(_lifted_alone(lift, m, X))


@pytest.mark.parametrize("h", BUILTINS, ids=lambda h: h.name)
def test_step_lift_equals_lift_of_refinement_columns(h):
    # the lift of a step tuple is the R^m lift of its common refinement's
    # columns, wrapped on the refinement's breakpoints
    rng = np.random.default_rng(21)
    for _ in range(5):
        fs = []
        for _ in range(h.dim):
            bp = np.concatenate(([0.0], np.unique(rng.uniform(0.0, 1.0, size=6)), [1.0]))
            fs.append(StepFunction(bp, rng.uniform(-5.0, 5.0, size=bp.size - 1)))
        bp, vals = common_refinement(fs)
        on_steps = fc_semicontinuous(h, fs)
        via_columns = StepFunction(bp, fc_semicontinuous(h, [RmElement(r) for r in vals]).coords)
        assert _bits(on_steps.breakpoints) == _bits(via_columns.breakpoints)
        assert _bits(on_steps.values) == _bits(via_columns.values)


_MAGNITUDE = st.builds(
    lambda sign, exponent, mantissa: sign * mantissa * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.integers(-300, 299),
    st.floats(1.0, 9.999),
)
POLY = SublinearMap(VPolytope(np.random.default_rng(5).uniform(-3.0, 3.0, size=(50, 2))))
SADDLE16 = saddle_build([disk_map()], list(angle_superlinear_family(16).maps))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(_MAGNITUDE, _MAGNITUDE), min_size=1, max_size=24))
def test_extreme_columns_lift_the_same_alone_and_in_a_batch(points):
    X = np.array(points, dtype=float).T
    for h in BUILTINS[:3]:
        _assert_scan_matches_single_columns(h, X)
    fs = [RmElement(row) for row in X]
    mirror = SuperlinearMap(POLY.set)
    with np.errstate(all="ignore"):
        for lift, m in ((fc_sublinear, POLY), (fc_superlinear, mirror), (fc_saddle, SADDLE16)):
            assert _bits(lift(m, fs).coords) == _bits(_lifted_alone(lift, m, X))


SETS = (
    VPolytope(np.random.default_rng(6).uniform(-3.0, 3.0, size=(50, 2))),
    Ball([0.5, -1.5], 2.0),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(_MAGNITUDE, _MAGNITUDE), min_size=1, max_size=24))
def test_maps_are_the_signed_support_of_their_set(points):
    # a superlinear map is x -> -support(-x); one point or many, same bits
    X = np.array(points, dtype=float).T
    for s in SETS:
        sub, sup = SublinearMap(s), SuperlinearMap(s)
        assert _bits(sub(X)) == _bits(support_batch(s, X.T))
        assert _bits(sup(X)) == _bits(-support_batch(s, -X.T))
        for x in X.T:
            assert _bits(sub(x)) == _bits(support_batch(s, x[None, :]))
            assert _bits(sup(x)) == _bits(-support_batch(s, -x[None, :]))


def test_finite_family_visits_every_member():
    # 250 maps whose only improvement is the last one: a scan that stopped
    # before the end would return the value x
    maps = [SublinearMap(VPolytope([[1.0]])) for _ in range(249)]
    maps.append(SublinearMap(VPolytope([[0.5]])))
    h = PHFunction("last-improves", 1, inf_family=FiniteFamily(maps))
    X = np.array([[1.0, 3.5, 1e-300, 1e300]])
    values, terms = _eval_columns(h, X, "inf")
    assert _bits(values) == _bits(0.5 * X[0])
    assert _bits(_scan_columns(h.inf_family, X, minimize=True)) == _bits(values)
    assert terms == len(maps)


def _ball_polytope_family(rng, n, cls):
    """Maps of one class on polytopes and balls alike: never one stack."""
    sets = [VPolytope(rng.uniform(-3.0, 3.0, size=(k, n))) for k in (1, 4, 7)]
    sets += [Ball(rng.uniform(-1.0, 1.0, n), r) for r in (0.0, 0.5, 2.0)]
    return FiniteFamily([cls(s) for s in sets])


# s = 1 eight times and then -1: the maps x -> s x (or s (x_1 + x_2)) tie
# at +0 and -0 at x = 0, the last one at -0
_NINE = [1.0] * 8 + [-1.0]
_NINE_MAPS = FiniteFamily([SublinearMap(VPolytope([[s, s]])) for s in _NINE])


@pytest.mark.parametrize(
    "family, minimize",
    [
        (angle_superlinear_family(32), False),
        (angle_superlinear_family(720), False),
        (_ball_polytope_family(np.random.default_rng(17), 2, SublinearMap), True),
        (_ball_polytope_family(np.random.default_rng(19), 2, SuperlinearMap), False),
        (_NINE_MAPS, True),
    ],
    ids=["angles-32", "angles-720", "balls-polytopes-inf", "balls-polytopes-sup", "nine-maps-inf"],
)
def test_scan_past_one_block_is_the_member_by_member_fold(family, minimize):
    # _BLOCK_CELLS + 1 columns leave room for one member per block, and one
    # column for the most; both must be the fold of the members in order.
    # The one column is (0, 0), where the members tie in signed zeros.
    rng = np.random.default_rng(29)
    grid = np.array(list(itertools.product(_SIGNED_ZERO_GRID, repeat=2))).T
    X = np.hstack([grid, _columns(rng, 2, _BLOCK_CELLS + 1 - grid.shape[1])])
    sign = 1.0 if minimize else -1.0
    for cols in (X, X[:, :1]):
        with np.errstate(over="ignore", invalid="ignore"):
            values = _scan_columns(family, cols, minimize)
            members = np.array([m._values(cols) for m in family.maps])
        fold = sign * np.minimum.accumulate(sign * members, axis=0)[-1]
        assert _bits(values) == _bits(fold)


# support_batch of one set per call, as a lift stacks the runs of columns
# that different sets answer.  Each set's values at its own run, computed
# alone, must be its values in the full batch and the reference of its
# kind: the vertex-order fold of a polytope, center.x + radius ||x|| of a
# ball.  Columns are signed (x and -x), the two sides of a map.  The grid
# is that of test_homog.py::test_finite_family_block_is_its_members_values.

_SIGNED_ZERO_GRID = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.7e308, 3.0, -3.0]
_SET_KINDS = [(n, k) for n in (1, 2, 3, 4) for k in (1, 2, 3, 4, 5, 6, 0)]  # k = 0: balls


def _random_sets(rng, n, k, count, values=None):
    """count polytopes with k vertices in R^n (balls for k = 0), with entries
    uniform in [-3, 3] or drawn from values."""

    def draw(shape):
        return rng.uniform(-3.0, 3.0, size=shape) if values is None else rng.choice(values, size=shape)

    if k:
        return [VPolytope(draw((k, n))) for _ in range(count)]
    return [Ball(draw(n), float(np.abs(draw(())))) for _ in range(count)]


def _reference_support(s, cols):
    """The support values of s at the columns of cols (n, c), by its kind."""
    if isinstance(s, Ball):
        return _dot_paired(s.center, cols) + s.radius * _norms(cols)
    return _fold(np.maximum, _dot_paired(s.vertices[:, None, :], cols))


def _assert_runs_are_per_set(sets, runs, cols):
    """support_batch of each set at the columns cols (n, c) is its reference,
    and at each of its runs (slices of columns), alone, its values in that
    batch; for x and -x."""
    with np.errstate(over="ignore", invalid="ignore"):
        for sign in (1.0, -1.0):
            X = sign * cols
            for s, own in zip(sets, runs):
                full = support_batch(s, X.T)
                assert _bits(full) == _bits(_reference_support(s, X)), (s, sign)
                for run in own:
                    assert _bits(support_batch(s, X[:, run].T)) == _bits(full[run]), (s, sign, X[:, run])


@pytest.mark.parametrize("n, k", _SET_KINDS, ids=lambda v: str(v))
def test_stacked_support_is_per_set_support(n, k):
    # each set answers one column of its own
    rng = np.random.default_rng(100 * n + k)
    sets = _random_sets(rng, n, k, 40)
    _assert_runs_are_per_set(sets, [[slice(i, i + 1)] for i in range(40)], rng.uniform(-5.0, 5.0, size=(n, 40)))


@pytest.mark.parametrize("n, k", _SET_KINDS, ids=lambda v: str(v))
def test_stacked_support_of_sets_spanning_several_columns(n, k):
    # the layout of a lift: each set answers its own run of 1..8 columns
    rng = np.random.default_rng(200 * n + k)
    sets = _random_sets(rng, n, k, 30)
    edges = np.cumsum([0, *rng.integers(1, 9, size=30).tolist()]).tolist()
    runs = [[slice(a, b)] for a, b in zip(edges[:-1], edges[1:])]
    _assert_runs_are_per_set(sets, runs, _columns(rng, n, edges[-1]))


@pytest.mark.parametrize("n, k", _SET_KINDS, ids=lambda v: str(v))
def test_stacked_support_on_the_signed_zero_grid(n, k):
    # sets and points with signed zeros, subnormals and huge entries; the
    # sign of a zero value must match too.  Each of 8 sets takes every 8th
    # column alone.
    rng = np.random.default_rng(300 * n + k)
    grid = np.array(list(itertools.product(_SIGNED_ZERO_GRID, repeat=n))).T
    cols = grid if grid.shape[1] <= 2000 else grid[:, rng.choice(grid.shape[1], 2000, replace=False)]
    sets = _random_sets(rng, n, k, 8, values=_SIGNED_ZERO_GRID)
    runs = [[slice(j, j + 1) for j in range(i, cols.shape[1], 8)] for i in range(8)]
    _assert_runs_are_per_set(sets, runs, cols)


def test_stack_needs_one_kind_of_set_and_matching_columns():
    # support_batch takes a polytope or a ball, and points of its dimension
    square = VPolytope([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    for s in (square, Ball([0.0, 0.0], 1.0)):
        with pytest.raises(DimensionMismatch):
            support_batch(s, np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            support_batch(s, np.ones(2))
    with pytest.raises(TypeError, match="unsupported set type SimpleNamespace"):
        support_batch(SimpleNamespace(dim=2), np.ones((3, 2)))


# A column alone against the same column first, in the middle and alone in
# the last _blocks block of a batch, with members that tie at +0 and -0
# drawn from _SIGNED_ZERO_GRID.  The reference is the member-order fold,
# np.minimum/np.maximum.accumulate(...)[-1]: ties keep the later member.

_FINITE_TIES = [v for v in _SIGNED_ZERO_GRID if abs(v) < 1e300]  # no product overflows
_NINE_CASE = (np.array(_NINE)[:, None], np.array([[0.0]]))  # members s of x -> s x, at x = 0


@st.composite
def _tie_case(draw, members, values=_SIGNED_ZERO_GRID):
    """(members (k, n), x (n, 1)): k in `members`, entries drawn from values."""
    n = draw(st.integers(1, 3))
    entry = st.sampled_from(values)
    vector = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(vector, min_size=members[0], max_size=members[1]))
    return np.array(rows), np.array(draw(vector))[:, None]


def _fill(values, rows, width):
    return np.random.default_rng(rows * width).choice(values, size=(rows, width))


def _assert_alone_as_in_batches(kernel, x, fill, steps, want):
    """kernel(cols) at x alone is want, and so is its value in batches of x
    and fill's columns: x first, and for blocks of each of `steps` columns,
    x in the middle of the first block and alone in the last one."""
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(kernel(x)) == _bits(want)
        layouts = [(0, fill.shape[1])]
        for step in steps:
            layouts += [(step // 2, fill.shape[1]), (step, step)]
        for before, end in layouts:
            X = np.hstack([fill[:, :before], x, fill[:, before:end]])
            assert _bits(kernel(X)[..., before : before + 1]) == _bits(want), (before, end)


def _fold(ufunc, values, axis=0):
    return ufunc.accumulate(values, axis=axis).take([-1], axis=axis).squeeze(axis)


@settings(max_examples=40, deadline=None)
@given(_tie_case((9, 40)), st.booleans(), st.booleans())
@example(_NINE_CASE, True, False)
@example(_NINE_CASE, True, True)
def test_a_scan_column_alone_is_the_member_order_fold_in_any_batch(case, stacked, minimize):
    # one stacked matrix of one-vertex sublinear maps, or the per-member
    # path when the classes alternate
    V, x = case
    classes = (SublinearMap, SublinearMap if stacked else SuperlinearMap)
    family = FiniteFamily([classes[i % 2](VPolytope([v])) for i, v in enumerate(V)])
    assert (family._stack is not None) == stacked
    with np.errstate(over="ignore", invalid="ignore"):
        members = np.array([m._values(x) for m in family.maps])
    want = _fold(np.minimum if minimize else np.maximum, members)
    fill = _fill(_SIGNED_ZERO_GRID, len(x), 24)
    _assert_alone_as_in_batches(lambda cols: _scan_columns(family, cols, minimize), x, fill, [8], want)


@settings(max_examples=40, deadline=None)
@given(_tie_case((9, 31)))
@example(_NINE_CASE)
def test_an_unplanned_support_column_alone_is_the_vertex_order_fold_in_any_batch(case):
    # fewer than 32 vertices: never planned, the all-vertex fold of
    # support_batch in blocks of _BLOCK_CELLS // k columns
    V, x = case
    P = VPolytope(V)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _fold(np.maximum, _dot_paired(V[:, None, :], x))
    fill = _fill(_SIGNED_ZERO_GRID, len(x), 2 * (_BLOCK_CELLS // len(V)))

    def kernel(cols):
        return support_batch(P, cols.T)

    _assert_alone_as_in_batches(kernel, x, fill, [_BLOCK_CELLS // len(V)], want)
    assert not P._plan


def _tied_polygon():
    """200 points uniform in [-3, -0.5] x [-1, 1] with (0, 1) and (-0, -1)
    among them: at (1, 0) the two tie at +0 and -0 above every other vertex."""
    rng = np.random.default_rng(0)
    V = np.column_stack([rng.uniform(-3.0, -0.5, 200), rng.uniform(-1.0, 1.0, 200)])
    V[98:100] = [[0.0, 1.0], [-0.0, -1.0]]
    return V


_TIED = _tied_polygon()
_PLANNED = VPolytope(_TIED)
for _ in range(2):
    support_batch(_PLANNED, _default_grid(2))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_SIGNED_ZERO_GRID), min_size=2, max_size=2))
@example([1.0, 0.0])
@example([5e-324, -0.0])
def test_a_planned_support_column_alone_is_the_vertex_order_fold_in_any_batch(x):
    # the kept vertices' fold in blocks of _BLOCK_CELLS // len(kept) columns,
    # and the all-vertex fold for columns outside the guard's range
    kept, _ = _PLANNED._plan
    x = np.array(x)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        want = _fold(np.maximum, _dot_paired(_TIED[:, None, :], x))
    steps = [_BLOCK_CELLS // len(kept), _BLOCK_CELLS // len(_TIED)]
    fill = _fill(_SIGNED_ZERO_GRID, 2, 2 * steps[0])

    def kernel(cols):
        return support_batch(_PLANNED, cols.T)

    _assert_alone_as_in_batches(kernel, x, fill, steps, want)


def _swapped(V, i):
    """V with rows i and i + 1 swapped."""
    W = V.copy()
    W[[i, i + 1]] = W[[i + 1, i]]
    return W


def _planned(V):
    """VPolytope(V) with its plan built: two default grids' worth of columns."""
    P = VPolytope(V)
    for _ in range(2):
        support_batch(P, _default_grid(2))
    assert P._plan
    return P


# seven vertices of which the third and fourth tie at +0 and -0 at (1, 0),
# above the others
_SEAM_TIE = np.array([[-1.0, 5.0], [-2.0, 1.0], [0.0, 1.0], [-0.0, -1.0], [-1.0, 0.0], [-3.0, 2.0], [-0.5, 0.0]])


def test_support_folds_are_the_vertex_order_fold_across_member_block_seams(monkeypatch):
    # the all-vertex and pruned folds, with _BLOCK_CELLS cut so that the
    # first vertex block ends between the two tied vertices (in either
    # order): the fold of the blocks must be the fold of all vertices
    X = np.hstack([[[1.0, 1.0], [0.0, 0.0]], np.random.default_rng(3).uniform(-5.0, 5.0, (2, 2))])
    cases = []
    for V in (_SEAM_TIE, _swapped(_SEAM_TIE, 2)):
        P = VPolytope(V)
        cases.append((V[:, None, :], 3, lambda cols, P=P: support_batch(P, cols.T)))
    for V in (_TIED, _swapped(_TIED, 98)):
        P = _planned(V)
        kept = P._plan[0]
        first = int(np.flatnonzero((kept == V[98]).all(axis=1))[0])
        assert (kept[first + 1] == V[99]).all()
        cases.append((V[:, None, :], first + 1, lambda cols, P=P: support_batch(P, cols.T)))
    for vertices, seam, kernel in cases:
        monkeypatch.setattr(convexsets, "_BLOCK_CELLS", seam * X.shape[1])
        assert convexsets._blocks(len(vertices), X.shape[1])[0] == slice(0, seam)
        want = _fold(np.maximum, _dot_paired(vertices, X))
        assert _bits(kernel(X)) == _bits(want)


def test_empty_batches_give_empty_float_arrays():
    # no column, or no point: every batched kernel returns an empty array
    square, disk = VPolytope([[1.0, 1.0], [-1.0, -1.0]]), Ball([0.0, 0.0], 1.0)
    values = [
        support_batch(square, np.empty((0, 2))),
        support_batch(disk, np.empty((0, 2))),
        support_batch(_PLANNED, np.empty((0, 2))),
        SublinearMap(square)(np.empty((2, 0))),
        SuperlinearMap(disk)(np.empty((2, 0))),
        _eval_columns(builtin("abs-sum"), np.empty((2, 0)), "inf")[0],
        _eval_columns(builtin("abs-sum"), np.empty((2, 0)), "sup")[0],
        _eval_columns(builtin("example-7.1"), np.empty((2, 0)), "inf")[0],
        *saddle_eval(SaddleFamily(np.ones((2, 3, 2))), np.empty((0, 2))),
    ]
    for v in values:
        assert isinstance(v, np.ndarray) and v.dtype == np.float64 and v.shape == (0,)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), _tie_case((2, 12), _FINITE_TIES))
@example(2, _NINE_CASE)
def test_a_saddle_point_alone_is_the_member_order_fold_in_any_batch(P, case):
    # P rows of the drawn Q coefficients, each later row a fixed
    # permutation of the first; both orderings, min-max and max-min
    row, x = case
    rng = np.random.default_rng(len(row))
    coeffs = np.array([row[rng.permutation(len(row))] if i else row for i in range(P)])
    S = SaddleFamily(coeffs)
    M = _dot_paired(coeffs[..., None, :], x)
    want = np.array([
        _fold(np.minimum, _fold(np.maximum, M, axis=1)),
        _fold(np.maximum, _fold(np.minimum, M, axis=0)),
    ])
    step = _BLOCK_CELLS // M[..., 0].size
    fill = _fill(_FINITE_TIES, len(x), 2 * step)
    _assert_alone_as_in_batches(lambda cols: np.array(saddle_eval(S, cols.T)), x, fill, [step], want)


def _names_read(path):
    """Every name a module reads: bare names, attributes and imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
    return names


def test_only_convexsets_reads_the_block_size():
    # one block policy: the other kernels loop over convexsets._blocks
    src = Path(homocalc.__file__).parent
    readers = [path.name for path in sorted(src.glob("*.py")) if "_BLOCK_CELLS" in _names_read(path)]
    assert readers == ["convexsets.py"]


def test_the_family_scan_folds_through_convexsets():
    # one member fold: homog's scan calls convexsets._fold, never its parts
    read = _names_read(Path(homocalc.__file__).parent / "homog.py")
    assert "_fold" in read and not read & {"_blocks", "_reduce"}


def test_only_convexsets_reads_a_ufunc_reduce():
    # one member order: the other kernels reduce through convexsets._reduce
    src = Path(homocalc.__file__).parent
    readers = [path.name for path in sorted(src.glob("*.py")) if "reduce" in _names_read(path)]
    assert readers == ["convexsets.py"]
