import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homocalc import convexsets, fcalc, lattice, verify
from homocalc.convexsets import Ball, VPolytope, _dot_paired, _reduce, feasible_point
from homocalc.documents import saddle_from_json, saddle_to_json
from homocalc.errors import (
    CalculusError,
    DimensionMismatch,
    EmptyFamily,
    LatticeMismatch,
    NoConvergence,
    NonFiniteResult,
    NotOrdered,
    SaddleGap,
    SchemaError,
)
from homocalc.fcalc import (
    SaddleFamily,
    fc_saddle,
    fc_semicontinuous,
    fc_semicontinuous_detailed,
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
    angle_superlinear_family,
    builtin,
    disk_map,
    domination_envelopes,
    eval_family,
    eval_family_detailed,
)
from homocalc.lattice import PointEvalHom, RmElement, StepFunction, hom_eval

PHI_11 = SublinearMap(VPolytope([[1.0, 1.0], [0.0, 0.0]]), label="pospart")
PSI_11 = SuperlinearMap(VPolytope([[1.0, 0.0], [0.0, 1.0]]), label="min")


def test_fc_sublinear_square_mean_columns():
    sm = SublinearMap(Ball([0.0, 0.0], 1.0))
    r = fc_sublinear(sm, [RmElement([3.0, 0.0]), RmElement([4.0, 0.0])])
    assert r.coords == pytest.approx([5.0, 0.0])


def test_fc_sublinear_pospart():
    r = fc_sublinear(PHI_11, [RmElement([1.0, -1.0]), RmElement([1.0, 2.0])])
    assert np.array_equal(r.coords, [2.0, 1.0])


def test_fc_sublinear_singleton_is_linear():
    lin = SublinearMap(VPolytope([[2.0, -1.0]]))
    f, g = RmElement([1.0, 0.0, 2.0]), RmElement([3.0, 1.0, 1.0])
    r = fc_sublinear(lin, [f, g])
    assert r.coords == pytest.approx(2.0 * f.coords - g.coords)


def test_fc_superlinear_min():
    r = fc_superlinear(PSI_11, [RmElement([2.0, -3.0]), RmElement([1.0, 1.0])])
    assert np.array_equal(r.coords, [1.0, -3.0])


def test_fc_superlinear_envelope():
    env = SuperlinearMap(Ball([0.0, 0.0], 1.0))
    r = fc_superlinear(env, [RmElement([3.0, 0.0]), RmElement([4.0, 0.0])])
    assert r.coords == pytest.approx([-5.0, 0.0])


def test_fc_semicontinuous_example_71():
    h = builtin("example-7.1")
    r = fc_semicontinuous(h, [RmElement([1.0, -1.0, 0.0]), RmElement([1.0, 2.0, -1.0])])
    assert r.coords == pytest.approx([2.0, 0.0, 0.0], abs=1e-12)


def test_fc_semicontinuous_step_example_72():
    h = builtin("example-7.2")
    f = StepFunction([0.0, 0.5, 1.0], [2.0, 5.0])
    g = StepFunction([0.0, 0.5, 1.0], [3.0, -1.0])
    r = fc_semicontinuous(h, [f, g])
    assert np.array_equal(r.breakpoints, [0.0, 0.5, 1.0])
    assert r.values == pytest.approx([2.0, -1.0], abs=1e-12)


def test_fc_semicontinuous_singleton_family_equals_fc_sublinear():
    h = PHFunction("one-map", 2, inf_family=FiniteFamily([PHI_11]))
    fs = [RmElement([1.0, -4.0, 2.0]), RmElement([0.5, 3.0, 1.0])]
    assert np.array_equal(fc_semicontinuous(h, fs).coords, fc_sublinear(PHI_11, fs).coords)


def test_fc_semicontinuous_detailed_diagnostics():
    h = builtin("example-7.2")
    fs = [RmElement([2.0, 5.0, -1.0]), RmElement([3.0, -1.0, 1.0])]
    element, diag = fc_semicontinuous_detailed(h, fs)
    assert element.coords == pytest.approx([2.0, -1.0, 0.0], abs=1e-12)
    assert diag["family_terms_used"] >= 1
    assert diag["max_residual"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("name", ["example-7.1", "example-7.2", "square-mean", "abs-sum", "max-coord"])
def test_the_oracle_feeds_only_the_lift_residual(name):
    # family evaluation and the plain lift never call the oracle; a detailed
    # lift calls it once over all its columns, for max_residual
    h = builtin(name)
    calls = []
    oracle = h.oracle
    h.oracle = lambda pts: calls.append(np.shape(pts)) or oracle(pts)
    for side in ("inf", "sup"):
        if getattr(h, f"{side}_family") is not None:
            eval_family(h, [1.0, -1e-30], side=side)
            eval_family_detailed(h, [3.0, 4.0], side=side)
    assert calls == []
    fs = [RmElement([3.0, 1.0, 0.0]), RmElement([4.0, -1e-30, 0.0])]
    # refined on [0, 0.25, 0.5, 1]: three columns, as for fs
    steps = [StepFunction([0.0, 0.5, 1.0], [3.0, 1.0]), StepFunction([0.0, 0.25, 1.0], [4.0, -1e-30])]
    for k, elements in enumerate((fs, steps, fs), start=1):
        fc_semicontinuous(h, elements)
        assert len(calls) == k - 1
        fc_semicontinuous_detailed(h, elements)
        assert calls == [(3, 2)] * k
    domination_envelopes(h)  # its cross-check reads the oracle, once
    assert len(calls) == 4


def test_fc_mismatches():
    with pytest.raises(DimensionMismatch):
        fc_sublinear(PHI_11, [RmElement([1.0, 2.0])])
    with pytest.raises(LatticeMismatch):
        fc_sublinear(PHI_11, [RmElement([1.0]), StepFunction([0.0, 1.0], [1.0])])
    with pytest.raises(DimensionMismatch):
        fc_sublinear(PHI_11, [RmElement([1.0]), RmElement([1.0, 2.0])])
    with pytest.raises(EmptyFamily):
        fc_sublinear(PHI_11, [])


# every operation on a tuple of lattice elements reads it through
# lattice._columns; the detailed lift names the lift it details, as the CLI
# prints it
_TUPLE_OPS = {
    "join": (lattice.join, "join"),
    "meet": (lattice.meet, "meet"),
    "add": (lambda f, g: f + g, "add"),
    "le": (lambda f, g: f <= g, "<="),
    "fc_sublinear": (lambda f, g: fc_sublinear(PHI_11, [f, g]), "fc_sublinear"),
    "fc_superlinear": (lambda f, g: fc_superlinear(PSI_11, [f, g]), "fc_superlinear"),
    "fc_semicontinuous": (lambda f, g: fc_semicontinuous(builtin("abs-sum"), [f, g]), "fc_semicontinuous"),
    "fc_semicontinuous_detailed": (
        lambda f, g: fc_semicontinuous_detailed(builtin("abs-sum"), [f, g]),
        "fc_semicontinuous",
    ),
    "fc_saddle": (lambda f, g: fc_saddle(SaddleFamily([[[0.5, 0.5]]]), [f, g]), "fc_saddle"),
    "oracle_fc": (lambda f, g: verify.oracle_fc(builtin("abs-sum"), [f, g]), "oracle_fc"),
}


@pytest.mark.parametrize("name", list(_TUPLE_OPS))
@pytest.mark.parametrize(
    "f, g, error",
    [
        (RmElement([1.0]), RmElement([1.0, 2.0]), DimensionMismatch),
        (RmElement([1.0]), StepFunction([0.0, 1.0], [1.0]), LatticeMismatch),
    ],
    ids=["rm-dims", "rm-step"],
)
def test_every_tuple_operation_checks_its_operands_one_way(name, f, g, error):
    op, operation = _TUPLE_OPS[name]
    with pytest.raises(CalculusError) as info:
        op(f, g)
    assert type(info.value) is error
    assert info.value.operation == operation


@pytest.mark.parametrize(
    "s", [VPolytope([[1.0, 1.0]]), Ball([0.0, 0.0], 1.0)], ids=["polytope", "ball"]
)
@pytest.mark.parametrize(
    "cls, lift",
    [(SublinearMap, fc_sublinear), (SuperlinearMap, fc_superlinear)],
    ids=["sub", "super"],
)
def test_map_values_beyond_the_float_range_raise(cls, lift, s):
    # at (1.7e308, 1.7e308) the true values, 3.4e308 and 2.4e308 in size,
    # exceed the largest float; the first column is fine
    m = cls(s)
    fs = [RmElement([1.0, 1.7e308]), RmElement([1.0, 1.7e308])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteResult, match="value at column 1 is outside the float range"):
            lift(m, fs)
        with pytest.raises(NonFiniteResult, match="value at column 0 is outside the float range"):
            m([1.7e308, 1.7e308])
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize(
    "s", [VPolytope([[1.0, 1.0]]), Ball([0.0, 0.0], 1.0)], ids=["polytope", "ball"]
)
@pytest.mark.parametrize("cls", [SublinearMap, SuperlinearMap], ids=["sub", "super"])
def test_map_calls_reject_non_finite_points(cls, s, bad):
    m = cls(s)
    with pytest.raises(ValueError, match="points must be finite"):
        m([bad, 0.0])
    with pytest.raises(ValueError, match="points must be finite"):
        m(np.array([[1.0, 2.0, bad], [0.0, 1.0, 1.0]]))


def test_family_member_overflow_on_the_way_to_a_finite_value_raises_nothing():
    # the ball member overflows at (1e10, 1e10); the inf-family value is finite
    big = SublinearMap(Ball([0.0, 0.0], 1e300))
    h = PHFunction("big-and-small", 2, inf_family=FiniteFamily([big, PHI_11]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lifted = fc_semicontinuous(h, [RmElement([1e10]), RmElement([1e10])])
    assert lifted.coords.tolist() == [2e10]
    assert [str(w.message) for w in caught] == []


def test_interchange_point_eval_hom():
    h = builtin("example-7.2")
    f = StepFunction([0.0, 0.25, 1.0], [2.0, 5.0])
    g = StepFunction([0.0, 0.5, 1.0], [3.0, -1.0])
    lifted = fc_semicontinuous(h, [f, g])
    for t in (0.0, 0.3, 0.6, 1.0):
        T = PointEvalHom(t)
        col = [hom_eval(T, f), hom_eval(T, g)]
        assert hom_eval(T, lifted) == pytest.approx(h.oracle(col), abs=1e-9)


def test_saddle_build_singleton_forced():
    a = np.array([0.7, -0.2])
    S = saddle_build([SublinearMap(VPolytope([a]))], [SuperlinearMap(VPolytope([a]))])
    assert S.shape == (1, 1)
    assert S.coeffs[0, 0] == pytest.approx(a, abs=1e-9)
    infsup, supinf = saddle_eval(S, [2.0, 1.0])
    assert infsup == pytest.approx(a @ [2, 1])
    assert supinf == pytest.approx(infsup)


def test_saddle_build_segment_in_square():
    square = SublinearMap(VPolytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
    seg = SuperlinearMap(VPolytope([[1.0, 0.0], [0.0, 1.0]]))
    S = saddle_build([square], [seg])
    a = S.coeffs[0, 0]
    assert a[0] + a[1] == pytest.approx(1.0, abs=1e-7)
    assert np.all(np.abs(a) <= 1.0 + 1e-9)


def test_saddle_build_angle_grid_forced_to_angles():
    fam = angle_superlinear_family(16)
    S = saddle_build([disk_map()], list(fam.maps))
    theta = np.arange(16) * (2 * np.pi / 16)
    expected = np.column_stack([np.cos(theta), np.sin(theta)])
    assert S.coeffs[0] == pytest.approx(expected, abs=1e-9)


def test_saddle_build_random_polytopes_around_a_shared_base():
    # An ordered pair whose coefficient an iterative projection cannot
    # certify to a 1e-12 gap.
    rng = np.random.default_rng(5)
    base = rng.uniform(-1, 1, size=(6, 3))
    phis = [VPolytope(np.vstack([base, rng.uniform(-3, 3, size=(6, 3))])) for _ in range(7)]
    psis = [VPolytope(base[rng.choice(6, 3, replace=False)]) for _ in range(7)]
    S = saddle_build([SublinearMap(phis[0])], [SuperlinearMap(psis[6])])
    a = S.coeffs[0, 0]
    # a lies within 1e-9 of both sets
    feasible_point(phis[0], Ball(a, 0.0), 1e-9)
    feasible_point(psis[6], Ball(a, 0.0), 1e-9)


def test_saddle_build_not_ordered():
    small = SublinearMap(Ball([0.0, 0.0], 0.5))
    big = SuperlinearMap(VPolytope([[1.0, 0.0]]))
    with pytest.raises(NotOrdered):
        saddle_build([small], [big])


def test_saddle_build_tolerance_is_relative_to_the_maps():
    # the same two pairs at s = 2^k: the tolerance scales with the maps, so
    # each pair gets the same verdict, and its coefficients scale exactly
    def near(s):
        # psi's point lies 2^-40 s outside phi's segment, within the tolerance
        phi = SublinearMap(VPolytope([[s, 0.0], [0.0, s]]))
        return saddle_build([phi], [SuperlinearMap(VPolytope([[s * (1.0 + 2.0**-40), 0.0]]))])

    base = near(1.0).coeffs
    for k in range(-40, 41):
        s = 2.0**k
        # psi = (0, s).x exceeds phi = (s, 0).x by up to s sqrt(2)
        with pytest.raises(NotOrdered):
            saddle_build([SublinearMap(VPolytope([[s, 0.0]]))], [SuperlinearMap(VPolytope([[0.0, s]]))])
        assert np.array_equal(near(s).coeffs, s * base)


def test_saddle_eval_square_mean_grid():
    S = saddle_build([disk_map()], list(angle_superlinear_family(32).maps))
    infsup, supinf = saddle_eval(S, [1.0, 0.0])
    assert infsup == pytest.approx(1.0, abs=1e-9)
    assert supinf == pytest.approx(1.0, abs=1e-9)


def test_saddle_eval_batches_points_and_rejects_non_finite():
    S = saddle_build([disk_map()], list(angle_superlinear_family(32).maps))
    pts = np.array([[1.0, 0.0], [-2.5, 0.7], [0.3, -4.0]])
    infsup, supinf = saddle_eval(S, pts)
    assert infsup.shape == supinf.shape == (3,)
    assert [saddle_eval(S, p) for p in pts] == list(zip(infsup, supinf))
    for bad in ([np.nan, 1.0], [np.inf, 0.0], [[1.0, 0.0], [0.0, -np.inf]]):
        with pytest.raises(ValueError, match="finite"):
            saddle_eval(S, bad)
    with pytest.raises(DimensionMismatch):
        saddle_eval(S, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("shape", [(1, 6), (6, 1), (1, 1)], ids=["one-row", "one-column", "one-by-one"])
def test_one_row_or_column_saddles_reduce_both_orderings_alike(shape):
    # with one row or one column the two orderings reduce the same values in
    # the same order, so supinf is computed once; the data hold +0/-0
    # coefficient ties and zero points, where a different pairing of the
    # maximum or minimum would show in the sign of a zero
    rng = np.random.default_rng(11)
    for n in (2, 3):
        for _ in range(20):
            coeffs = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(*shape, n))
            pts = rng.choice([-1.0, -0.0, 0.0, 3.0], size=(40, n))
            pts[:4] = [[-0.0] * n, [0.0] * n, [-0.0] + [0.0] * (n - 1), [0.0] + [-0.0] * (n - 1)]
            M = _dot_paired(coeffs[..., None, :], pts.T)
            infsup, supinf = saddle_eval(SaddleFamily(coeffs), pts)
            assert supinf.tobytes() == M.min(axis=0).max(axis=0).tobytes()
            assert infsup.tobytes() == M.max(axis=1).min(axis=0).tobytes()


@pytest.mark.parametrize("k", [1, 40, 3000])
@pytest.mark.parametrize("shape", [(1, 6), (6, 1), (1, 1)], ids=["one-row", "one-column", "one-by-one"])
def test_one_row_or_column_saddles_keep_the_two_reduction_bits(shape, k):
    # saddle_eval reduces such a saddle once and fc_saddle returns straight
    # after it; both keep the bits of the two orderings as two _reduce calls
    # each, at one column and at many (3000 points span three blocks of a
    # six-cell saddle), where products tie at +0.0 and -0.0
    rng = np.random.default_rng(23)
    coeffs = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(*shape, 2))
    pts = rng.choice([-1.0, -0.0, 0.0, 3.0], size=(k, 2))
    pts[:4] = [[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]][:k]
    M = _dot_paired(coeffs[..., None, :], pts.T)
    infsup = _reduce(np.minimum, _reduce(np.maximum, M, 1), 0)
    supinf = _reduce(np.maximum, _reduce(np.minimum, M, 0), 0)
    if k > 1:
        zeros = infsup[infsup == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    S = SaddleFamily(coeffs)
    got = saddle_eval(S, pts)
    assert [v.tobytes() for v in got] == [infsup.tobytes(), supinf.tobytes()]
    assert not np.shares_memory(*got)
    assert np.array(saddle_eval(S, pts[0])).tobytes() == np.array([infsup[0], supinf[0]]).tobytes()
    lifted = fc_saddle(S, [RmElement(c) for c in pts.T])
    assert lifted.coords.tobytes() == infsup.tobytes()


def test_fc_saddle_singleton_linear():
    a = np.array([1.5, -0.5])
    S = SaddleFamily(a.reshape(1, 1, 2))
    f, g = RmElement([2.0, 0.0, 1.0]), RmElement([1.0, 1.0, -2.0])
    r = fc_saddle(S, [f, g])
    assert r.coords == pytest.approx(1.5 * f.coords - 0.5 * g.coords)


def test_fc_saddle_square_mean_close_to_disk():
    S = saddle_build([disk_map()], list(angle_superlinear_family(720).maps))
    f, g = RmElement([3.0, 0.0]), RmElement([4.0, 0.0])
    r = fc_saddle(S, [f, g])
    exact = fc_sublinear(disk_map(), [f, g])
    assert r.coords == pytest.approx(exact.coords, abs=1e-3)


def test_fc_saddle_gap_detected():
    bad = SaddleFamily(np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]))
    with pytest.raises(SaddleGap):
        fc_saddle(bad, [RmElement([2.0]), RmElement([-1.0])])


def _family_saddles():
    """Saddles of verify's ordered two-sided families (P = 2, Q > 1) in
    R^2, R^3 and R^4, each also with its ball row shifted one column along,
    as check_saddle's corrupted control shifts it."""
    rng = np.random.default_rng(20261020)
    saddles = []
    for n in (2, 3, 4):
        S = saddle_build(*verify._saddle_family(rng, n)[2:])
        shifted = np.array(S.coeffs)
        shifted[1] = np.roll(shifted[1], 1, axis=0)
        saddles += [S, SaddleFamily(shifted)]
    return saddles


_SCALED_SADDLES = _family_saddles() + [
    # check_saddle's corrupted 2 x 2 control: tangents at 0 and 90 degrees,
    # one row reversed
    SaddleFamily(np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])),
]


def _gap_raised(S, cols):
    try:
        fc_saddle(S, [RmElement(row) for row in cols])
    except SaddleGap:
        return True
    return False


# a coordinate is 0 or at least 2^-20 in size, so with |k| <= 900 no product
# of a coefficient and a scaled coordinate overflows or is subnormal
_COORDS = st.one_of(st.just(0.0), st.floats(2.0**-20, 5.0), st.floats(-5.0, -(2.0**-20)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(range(len(_SCALED_SADDLES))), st.integers(1, 6), st.integers(-900, 900), st.data())
def test_the_saddle_verdict_commutes_with_power_of_two_scaling(which, m, k, data):
    S = _SCALED_SADDLES[which]
    cols = np.array(data.draw(st.lists(st.lists(_COORDS, min_size=m, max_size=m), min_size=S.dim, max_size=S.dim)))
    assert _gap_raised(S, np.ldexp(cols, k)) == _gap_raised(S, cols)


def test_the_saddle_verdict_is_relative_to_the_columns_scale():
    # the corrupted 2 x 2 saddle's gap is 1.5 times its scale at any
    # magnitude; the absolute 1e-6 verdict let it pass below about 2^-20
    bad = _SCALED_SADDLES[-1]
    for k in (-1000, -60, -30, 0, 30, 1000):
        with pytest.raises(SaddleGap, match="1.500e\\+00 times its scale"):
            fc_saddle(bad, [RmElement([2.0 * 2.0**k]), RmElement([-2.0**k])])
    # a scale beyond the float range: the coefficient (1, 1) at (1e308,
    # -1e308) sums |1e308| + |1e308|, while every value is finite
    wide = SaddleFamily(np.array([[[1.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 1.0]]]))
    with pytest.raises(SaddleGap, match="differ by 1.000e\\+308 at coordinate 0, 5.000e-01 times"):
        fc_saddle(wide, [RmElement([1e308]), RmElement([-1e308])])
    # the families' own saddles are genuine: no verdict at any scale
    for S in _SCALED_SADDLES[:-1:2]:
        cols = np.random.default_rng(S.dim).uniform(-5.0, 5.0, size=(S.dim, 32))
        for k in (-1000, 0, 1000):
            assert not _gap_raised(S, np.ldexp(cols, k))


def test_fc_saddle_on_steps():
    S = saddle_build([disk_map()], list(angle_superlinear_family(64).maps))
    f = StepFunction([0.0, 0.5, 1.0], [3.0, 0.0])
    g = StepFunction([0.0, 0.5, 1.0], [4.0, -1.0])
    r = fc_saddle(S, [f, g])
    assert r.values == pytest.approx([5.0, 1.0], abs=2e-2)


def test_saddle_json_round_trip():
    S = saddle_build([disk_map()], list(angle_superlinear_family(8).maps))
    S2 = saddle_from_json(saddle_to_json(S))
    assert np.array_equal(S2.coeffs, S.coeffs)
    assert S2.phi_labels == S.phi_labels
    assert S2.psi_labels == S.psi_labels


def test_saddle_json_schema_errors():
    with pytest.raises(SchemaError):
        saddle_from_json({"saddle": {"coeffs": [[1.0, 2.0]]}})
    with pytest.raises(SchemaError):
        saddle_from_json({"coeffs": []})
    with pytest.raises(SchemaError):
        saddle_from_json({"saddle": {"coeffs": [[[1.0, "x"]]]}})


@pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2)], ids=["no-rows", "no-columns"])
def test_a_saddle_needs_a_row_and_a_column(shape):
    # as saddle_build does for an empty side; an empty saddle has no value
    with pytest.raises(EmptyFamily, match="at least one row and one column"):
        SaddleFamily(np.empty(shape))


def test_a_saddle_copies_the_callers_array():
    # as RmElement and StepFunction copy theirs: the caller's array stays
    # writeable, and the saddle's own tensor is read-only
    a = np.array([[[1.0, 0.0]]])
    S = SaddleFamily(a)
    assert a.flags.writeable and S.coeffs is not a
    assert not S.coeffs.flags.writeable
    a[0, 0, 0] = 5.0
    assert S.coeffs.tolist() == [[[1.0, 0.0]]]


def test_a_saddle_needs_a_dimension():
    # as VPolytope and Ball reject dimension 0; a saddle document with empty
    # coefficient rows is a schema error at saddle.coeffs
    with pytest.raises(ValueError, match="need dimension n >= 1"):
        SaddleFamily(np.zeros((1, 1, 0)))
    with pytest.raises(SchemaError) as info:
        saddle_from_json({"saddle": {"coeffs": [[[]]]}})
    assert info.value.path == "saddle.coeffs"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"coeffs": [[[np.inf, 0.0]]]}, "coefficients must be finite"),
        ({"coeffs": [[[np.nan, 0.0]]]}, "coefficients must be finite"),
        ({"coeffs": [[[1.0, 0.0]]], "phi_labels": ["a", "b", "c"]}, "phi_labels has 3 labels, need 1"),
        ({"coeffs": [[[1.0, 0.0]]], "psi_labels": []}, "psi_labels has 0 labels, need 1"),
    ],
    ids=["inf", "nan", "phi-labels", "psi-labels"],
)
def test_a_saddle_refuses_what_its_reader_refuses(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SaddleFamily(**kwargs)


def test_a_labelled_saddle_round_trips():
    built = saddle_build([PHI_11], [PSI_11])
    labelled = SaddleFamily([[[0.5, 0.5]], [[1.0, 0.0]]], phi_labels=[7, "b"], psi_labels=("q",))
    assert labelled.phi_labels == ("7", "b")
    for S in (built, labelled):
        S2 = saddle_from_json(json.loads(json.dumps(saddle_to_json(S))))
        assert np.array_equal(S2.coeffs, S.coeffs)
        assert (S2.phi_labels, S2.psi_labels) == (S.phi_labels, S.psi_labels)
    assert (built.phi_labels, built.psi_labels) == (("pospart",), ("min",))


def test_saddle_build_validations():
    with pytest.raises(EmptyFamily):
        saddle_build([], [PSI_11])
    with pytest.raises(TypeError):
        saddle_build([PSI_11], [PSI_11])
    with pytest.raises(DimensionMismatch):
        saddle_build([SublinearMap(VPolytope([[1.0]]))], [PSI_11])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_fc_sublinear_dominates_fc_superlinear(seed):
    rng = np.random.default_rng(seed)
    verts = rng.uniform(-3, 3, size=(4, 2))
    phi = SublinearMap(VPolytope(verts))
    psi = SuperlinearMap(VPolytope([verts.mean(axis=0)]))  # center is in the hull
    fs = [RmElement(rng.uniform(-5, 5, 6)), RmElement(rng.uniform(-5, 5, 6))]
    hi = fc_sublinear(phi, fs)
    lo = fc_superlinear(psi, fs)
    assert np.all(lo.coords <= hi.coords + 1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_fc_semicontinuous_between_envelopes(seed):
    from homocalc.homog import domination_envelopes

    rng = np.random.default_rng(seed)
    h = builtin("example-7.1")
    psi, phi = domination_envelopes(h)
    fs = [RmElement(rng.uniform(-5, 5, 8)), RmElement(rng.uniform(-5, 5, 8))]
    mid = fc_semicontinuous(h, fs)
    lo = fc_superlinear(psi, fs)
    hi = fc_sublinear(phi, fs)
    assert np.all(lo.coords <= mid.coords + 1e-9)
    assert np.all(mid.coords <= hi.coords + 1e-9)


def test_a_saddle_family_refuses_a_two_dimensional_array():
    with pytest.raises(ValueError, match=r"^coeffs must have shape \(P, Q, n\)$"):
        SaddleFamily(np.zeros((2, 2)))


def test_saddle_build_names_a_sublinear_map_among_the_psis():
    psis = [SuperlinearMap(VPolytope([[0.0, 0.0]])), SublinearMap(VPolytope([[0.0, 0.0]]))]
    with pytest.raises(TypeError, match=r"^psis\[1\] is not a SuperlinearMap$"):
        saddle_build([disk_map()], psis)


def test_saddle_build_refuses_a_vertex_whose_norm_overflows():
    # each entry is finite, but |(1.5e308, 1.5e308)| is not
    phi = SublinearMap(VPolytope([[1.5e308, 1.5e308]]))
    with pytest.raises(NonFiniteResult, match="outside the float range"):
        saddle_build([phi], [SuperlinearMap(VPolytope([[0.0, 0.0]]))])


def test_saddle_build_raises_the_kernels_no_convergence_unchanged(monkeypatch):
    # two multi-vertex polytopes whose first Wolfe step is not optimal, and
    # no major cycle allowed: the kernel's own error reaches the caller
    monkeypatch.setattr(convexsets, "PROJECT_MAX_ITER", 0)
    ends = []
    feasible = fcalc._feasible_points
    monkeypatch.setattr(fcalc, "_feasible_points", lambda *args: ends.extend(feasible(*args)) or ends)
    square = SublinearMap(VPolytope([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    triangle = SuperlinearMap(VPolytope([[0.2, 0.1], [0.5, 0.1], [0.2, 0.6]]))
    with pytest.raises(NoConvergence, match="after 0 major cycles") as raised:
        saddle_build([square], [triangle])
    assert raised.value is ends[0] and raised.value.operation == "feasible_point"
