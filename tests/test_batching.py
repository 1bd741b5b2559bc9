"""One column lifted alone equals the same column inside a batch, bit for bit.

Every batched kernel (family scan or witness, support, saddle) sums coordinate by
coordinate in a fixed order, so a column's value must not depend on the
columns it shares a call with.  Comparisons are on the float64 bytes, so
they also catch a flipped sign of zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homocalc.convexsets import Ball, VPolytope, support_batch
from homocalc.fcalc import (
    fc_saddle,
    fc_semicontinuous,
    fc_sublinear,
    fc_superlinear,
    saddle_build,
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
    # 530 columns: more than one column group, and blocks of every height
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
                    return family.values(cols, 0, len(family.maps))
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
    S = saddle_build([SublinearMap(VPolytope(few))], [SuperlinearMap(VPolytope([v])) for v in few])
    X = rng.uniform(-5.0, 5.0, size=(n, 300))
    fs = [RmElement(row) for row in X]
    lifts = ((fc_sublinear, phi), (fc_superlinear, psi), (fc_sublinear, ball), (fc_saddle, S))
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
