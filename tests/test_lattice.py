import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homocalc import lattice
from homocalc.convexsets import Ball, VPolytope
from homocalc.documents import element_from_json, element_to_json
from homocalc.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    LatticeMismatch,
    SchemaError,
)
from homocalc.fcalc import SaddleFamily, fc_saddle, fc_semicontinuous, fc_sublinear, fc_superlinear
from homocalc.homog import SublinearMap, SuperlinearMap, builtin
from homocalc.lattice import (
    CoordinateHom,
    PointEvalHom,
    RmElement,
    StepFunction,
    common_refinement,
    embed_step_to_grid,
    hom_eval,
    join,
    meet,
)

F = StepFunction([0.0, 0.5, 1.0], [1.0, 3.0])
G = StepFunction([0.0, 1.0], [2.0])


def steps():
    interior = st.lists(
        st.floats(0.01, 0.99, allow_nan=False), min_size=0, max_size=4, unique=True
    )
    vals = st.floats(-5, 5, allow_nan=False, allow_infinity=False)

    def build(inner, seed):
        bp = np.concatenate([[0.0], np.sort(np.array(inner)), [1.0]])
        rng = np.random.default_rng(seed)
        return StepFunction(bp, rng.uniform(-5, 5, size=bp.size - 1))

    return st.builds(build, interior, st.integers(0, 2**31 - 1)), vals


def test_rm_join_meet():
    a = RmElement([1.0, -2.0, 0.0])
    b = RmElement([0.0, 5.0, 0.0])
    assert np.array_equal(join(a, b).coords, [1.0, 5.0, 0.0])
    assert np.array_equal(meet(a, b).coords, [0.0, -2.0, 0.0])


def test_step_join_refines_partitions():
    j = join(F, G)
    assert np.array_equal(j.breakpoints, [0.0, 0.5, 1.0])
    assert np.array_equal(j.values, [2.0, 3.0])


def test_meet_idempotent():
    m = meet(F, F)
    assert m == F


def test_join_lattice_mismatch():
    with pytest.raises(LatticeMismatch):
        join(RmElement([1.0]), F)
    with pytest.raises(DimensionMismatch):
        join(RmElement([1.0]), RmElement([1.0, 2.0]))


def test_order_checks_its_operands_as_join_does():
    assert RmElement([1.0, 2.0]) <= RmElement([1.0, 3.0])
    assert not G <= F
    with pytest.raises(DimensionMismatch):
        RmElement([1.0, 2.0]) <= RmElement([1.0, 2.0, 3.0])
    with pytest.raises(LatticeMismatch):
        RmElement([1.0]) <= StepFunction([0.0, 1.0], [1.0])
    with pytest.raises(LatticeMismatch):
        F <= RmElement([1.0])


@pytest.mark.parametrize(
    "f, g",
    [(RmElement([1.0, 2.0]), RmElement([1.0])), (RmElement([1.0]), F), (F, RmElement([1.0]))],
    ids=["rm-dims", "rm-step", "step-rm"],
)
def test_addition_checks_its_operands_as_join_does(f, g):
    with pytest.raises((DimensionMismatch, LatticeMismatch)) as joined:
        join(f, g)
    with pytest.raises((DimensionMismatch, LatticeMismatch)) as added:
        f + g
    assert type(added.value) is type(joined.value)
    assert (added.value.operation, added.value.message) == ("add", joined.value.message)


def test_coordinate_hom_rejects_a_fractional_index():
    assert CoordinateHom(2.0).j == 2
    # 10**400 is whole but beyond the float range, refused as inf is
    for j in (1.5, 0, -1, float("inf"), float("nan"), None, 10**400):
        with pytest.raises(IndexOutOfRange):
            CoordinateHom(j)


def test_refine_union_of_breakpoints():
    a = StepFunction([0.0, 0.5, 1.0], [1.0, 2.0])
    b = StepFunction([0.0, 1.0 / 3.0, 1.0], [4.0, 5.0])
    bp, (av, bv) = common_refinement([a, b])
    a2, b2 = StepFunction(bp, av), StepFunction(bp, bv)
    expected = [0.0, 1.0 / 3.0, 0.5, 1.0]
    assert np.array_equal(a2.breakpoints, expected)
    assert np.array_equal(b2.breakpoints, expected)
    for t in (0.0, 0.4, 0.9):
        assert a2.value_at(t) == a.value_at(t)
        assert b2.value_at(t) == b.value_at(t)


def test_refine_self_is_identity():
    bp, (av, bv) = common_refinement([F, F])
    a2, b2 = StepFunction(bp, av), StepFunction(bp, bv)
    assert a2 == F and b2 == F


def test_hom_eval_coordinate_one_based():
    assert hom_eval(CoordinateHom(2), RmElement([7.0, -1.0, 4.0])) == -1.0


def test_hom_eval_point_eval():
    assert hom_eval(PointEvalHom(0.5), F) == 3.0
    assert hom_eval(PointEvalHom(1.0), F) == 3.0
    assert hom_eval(PointEvalHom(0.0), F) == 1.0


def test_hom_eval_range_errors():
    with pytest.raises(IndexOutOfRange):
        hom_eval(CoordinateHom(4), RmElement([1.0, 2.0, 3.0]))
    with pytest.raises(IndexOutOfRange):
        PointEvalHom(1.5)
    with pytest.raises(LatticeMismatch):
        hom_eval(CoordinateHom(1), F)


def test_embed_step_to_grid():
    e = embed_step_to_grid(F, [0.25, 0.75])
    assert np.array_equal(e.coords, [1.0, 3.0])


def test_step_functions_reject_nan_points():
    f = StepFunction([0.0, 0.5, 1.0], [2.0, 5.0])
    with pytest.raises(IndexOutOfRange, match="t=nan outside"):
        f.value_at(float("nan"))
    with pytest.raises(IndexOutOfRange, match="grid points must lie in"):
        f.values_at([float("nan")])
    with pytest.raises(IndexOutOfRange, match="grid points must lie in"):
        embed_step_to_grid(f, [float("nan"), 0.2])
    with pytest.raises(IndexOutOfRange):
        PointEvalHom(float("nan"))
    assert f.value_at(0.5) == 5.0 and f.value_at(1.0) == 5.0
    assert f.values_at([0.2, 1.0, 0.5]).tolist() == [2.0, 5.0, 5.0]


def test_embed_constant():
    c = StepFunction([0.0, 1.0], [5.0])
    assert np.array_equal(embed_step_to_grid(c, [0.1, 0.5, 0.9]).coords, [5.0, 5.0, 5.0])


def test_common_refinement_matrix():
    bp, vals = common_refinement([F, G])
    assert np.array_equal(bp, [0.0, 0.5, 1.0])
    assert np.array_equal(vals, [[1.0, 3.0], [2.0, 2.0]])


def _union_chain(fs):
    bp = fs[0].breakpoints
    for f in fs[1:]:
        bp = np.union1d(bp, f.breakpoints)
    return bp


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_common_refinement_bits_are_the_union_chain_and_the_point_values(seed):
    # starts at 0.0 or -0.0, breakpoints one float apart and breakpoints
    # shared between the functions
    rng = np.random.default_rng(seed)
    shared = rng.uniform(0.05, 0.95, size=3)

    def rand_step():
        inner = rng.uniform(0.05, 0.95, size=rng.integers(0, 5))
        inner = np.concatenate([inner, np.nextafter(inner[:1], 1.0), shared[: rng.integers(0, 4)]])
        bp = np.concatenate([[rng.choice([0.0, -0.0])], np.unique(inner), [1.0]])
        return StepFunction(bp, rng.uniform(-5, 5, size=bp.size - 1))

    fs = [rand_step() for _ in range(rng.integers(1, 5))]
    bp, vals = common_refinement(fs)
    assert bp.tobytes() == _union_chain(fs).tobytes()
    assert vals.tobytes() == np.stack([f.values_at(bp[:-1]) for f in fs]).tobytes()


def test_common_refinement_keeps_the_sign_of_a_leading_minus_zero():
    # the chain starts at -0.0 here; one np.unique over all three breakpoint
    # arrays sorts the equal zeros differently and starts at 0.0
    fs = [
        StepFunction([-0.0, 0.7, 0.92, 1.0], [1.0, 2.0, 3.0]),
        StepFunction([-0.0, 0.3, 0.54, 1.0], [4.0, 5.0, 6.0]),
        StepFunction([0.0, 1.0], [7.0]),
    ]
    bp, vals = common_refinement(fs)
    assert bp[0].hex() == "-0x0.0p+0"
    assert np.array_equal(bp, [0.0, 0.3, 0.54, 0.7, 0.92, 1.0])
    assert np.array_equal(vals, [[1.0, 1.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 6.0, 6.0], [7.0] * 5])


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction([0.0, 0.5], [1.0, 2.0])
    with pytest.raises(ValueError):
        StepFunction([0.1, 1.0], [2.0])
    with pytest.raises(ValueError):
        StepFunction([0.0, 0.5, 0.5, 1.0], [1.0, 2.0, 3.0])


_NAN, _INF = float("nan"), float("inf")


# The constructors check in a fixed order, and the order decides the message:
# a NaN breakpoint passes the increasing check (NaN compares false) and is
# caught as not finite, while an inf breakpoint fails the increasing check.
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: StepFunction([0.0], []), "need k+1 breakpoints and k values"),
        (lambda: StepFunction([0.0, 0.5], [1.0, 2.0]), "need k+1 breakpoints and k values"),
        (lambda: StepFunction([0.1, 1.0], [2.0]), "breakpoints must start at 0 and end at 1"),
        (lambda: StepFunction([0.0, 0.9], [2.0]), "breakpoints must start at 0 and end at 1"),
        (lambda: StepFunction([_NAN, 1.0], [2.0]), "breakpoints must start at 0 and end at 1"),
        (
            lambda: StepFunction([0.0, 0.5, 0.5, 1.0], [1.0, 2.0, 3.0]),
            "breakpoints must be strictly increasing",
        ),
        (
            lambda: StepFunction([0.0, 0.7, 0.5, 1.0], [1.0, 2.0, 3.0]),
            "breakpoints must be strictly increasing",
        ),
        (lambda: StepFunction([0.0, _NAN, 1.0], [1.0, 2.0]), "breakpoints and values must be finite"),
        (lambda: StepFunction([0.0, _INF, 1.0], [1.0, 2.0]), "breakpoints must be strictly increasing"),
        (lambda: StepFunction([0.0, 1.0], [_NAN]), "breakpoints and values must be finite"),
        (lambda: StepFunction([0.0, 1.0], [-_INF]), "breakpoints and values must be finite"),
        (lambda: RmElement([]), "coords must be nonempty"),
        (lambda: RmElement([1.0, _NAN]), "coords must be finite"),
        (lambda: RmElement([_INF]), "coords must be finite"),
    ],
    ids=[
        "step-one-breakpoint",
        "step-too-few-breakpoints",
        "step-starts-above-0",
        "step-ends-below-1",
        "step-starts-at-nan",
        "step-repeated-breakpoint",
        "step-decreasing-breakpoints",
        "step-nan-breakpoint",
        "step-inf-breakpoint",
        "step-nan-value",
        "step-inf-value",
        "rm-empty",
        "rm-nan",
        "rm-inf",
    ],
)
def test_constructor_rejections_keep_their_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_rm_order_and_arithmetic():
    a = RmElement([1.0, 2.0])
    b = RmElement([2.0, 2.0])
    assert a <= b
    assert not (b <= a)
    assert np.array_equal((a + b).coords, [3.0, 4.0])
    assert np.array_equal((2.0 * a).coords, [2.0, 4.0])


def test_element_json_round_trip():
    for e in (RmElement([1.0, -2.0]), F):
        e2 = element_from_json(element_to_json(e))
        assert e2 == e


def test_element_json_schema_errors():
    with pytest.raises(SchemaError):
        element_from_json({"rm": [True]})
    with pytest.raises(SchemaError):
        element_from_json({"step": {"breakpoints": [0.0, 1.0]}})
    with pytest.raises(SchemaError):
        element_from_json({"vector": [1.0]})


@settings(max_examples=50, deadline=None)
@given(*steps())
def test_hom_eval_is_linear_and_lattice_preserving(f, alpha):
    g = StepFunction(f.breakpoints, f.values[::-1].copy())
    for t in (0.0, 0.3, 0.77, 1.0):
        T = PointEvalHom(t)
        assert hom_eval(T, f + g) == hom_eval(T, f) + hom_eval(T, g)
        assert hom_eval(T, alpha * f) == alpha * hom_eval(T, f)
        assert hom_eval(T, join(f, g)) == max(hom_eval(T, f), hom_eval(T, g))
        assert hom_eval(T, meet(f, g)) == min(hom_eval(T, f), hom_eval(T, g))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_refine_preserves_pointwise_values(seed):
    rng = np.random.default_rng(seed)
    def rand_step():
        inner = np.unique(rng.uniform(0.05, 0.95, size=rng.integers(0, 5)))
        bp = np.concatenate([[0.0], inner, [1.0]])
        return StepFunction(bp, rng.uniform(-5, 5, size=bp.size - 1))
    f, g = rand_step(), rand_step()
    bp, (fv, gv) = common_refinement([f, g])
    f2, g2 = StepFunction(bp, fv), StepFunction(bp, gv)
    ts = rng.uniform(0.0, 1.0, size=10)
    for t in ts:
        assert f2.value_at(t) == f.value_at(t)
        assert g2.value_at(t) == g.value_at(t)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_join_embed_commutes(seed):
    rng = np.random.default_rng(seed)
    def rand_step():
        inner = np.unique(rng.uniform(0.05, 0.95, size=rng.integers(0, 4)))
        bp = np.concatenate([[0.0], inner, [1.0]])
        return StepFunction(bp, rng.uniform(-5, 5, size=bp.size - 1))
    f, g = rand_step(), rand_step()
    grid = np.sort(rng.uniform(0.0, 1.0, size=6))
    a = embed_step_to_grid(join(f, g), grid)
    b = join(embed_step_to_grid(f, grid), embed_step_to_grid(g, grid))
    assert np.array_equal(a.coords, b.coords)


def test_order_absorption_on_rm():
    a = RmElement([1.0, -3.0, 2.0])
    b = RmElement([0.5, 4.0, 2.0])
    assert join(a, meet(a, b)) == a
    assert meet(a, join(a, b)) == a


def _pair():
    return (
        StepFunction([0.0, 0.3, 0.5, 1.0], [1.0, -2.0, 4.0]),
        StepFunction([0.0, 0.5, 0.8, 1.0], [3.0, 0.5, -1.0]),
    )


def _fresh(fs):
    return tuple(StepFunction(f.breakpoints, f.values) for f in fs)


def _counted_refinement(monkeypatch):
    calls = []
    inner = lattice.common_refinement

    def counted(fs):
        calls.append(len(fs))
        return inner(fs)

    monkeypatch.setattr(lattice, "common_refinement", counted)
    return calls


def _result_bits(out):
    if isinstance(out, StepFunction):
        return out.breakpoints.tobytes(), out.values.tobytes()
    return out


_ON_A_PAIR = {
    "fc_semicontinuous": lambda fs: fc_semicontinuous(builtin("example-7.1"), fs),
    "fc_sublinear": lambda fs: fc_sublinear(SublinearMap(Ball([0.0, 0.0], 1.0)), fs),
    "fc_superlinear": lambda fs: fc_superlinear(SuperlinearMap(VPolytope([[1.0, 0.0], [0.0, 1.0]])), fs),
    "fc_saddle": lambda fs: fc_saddle(SaddleFamily([[[0.5, 0.5]]]), fs),
    "join": lambda fs: join(*fs),
    "meet": lambda fs: meet(*fs),
    "+": lambda fs: fs[0] + fs[1],
    "<=": lambda fs: fs[0] <= fs[1],
}


def test_consecutive_operations_on_one_step_tuple_refine_it_once(monkeypatch):
    # every lift, join, meet, + and <= of one tuple reads one refinement,
    # and each result is bitwise that of a fresh, equal tuple, which misses
    pair = _pair()
    calls = _counted_refinement(monkeypatch)
    got = {name: _result_bits(op(pair)) for name, op in _ON_A_PAIR.items()}
    assert calls == [2]
    for name, op in _ON_A_PAIR.items():
        assert _result_bits(op(_fresh(pair))) == got[name], name
    assert len(calls) == 1 + len(_ON_A_PAIR)


def test_the_refinement_memo_misses_on_any_other_tuple(monkeypatch):
    f, g = _pair()
    h = StepFunction([0.0, 0.9, 1.0], [2.0, -3.0])
    calls = _counted_refinement(monkeypatch)
    # A, B, A: the memo holds one tuple
    for pair in ((f, g), (f, h), (f, g)):
        join(*pair)
    assert len(calls) == 3
    # the same elements in another order
    assert _result_bits(meet(g, f)) == _result_bits(meet(*_fresh((g, f))))
    assert len(calls) == 5
    # an element whose values were reassigned is another tuple
    f.values = -f.values
    assert _result_bits(meet(g, f)) == _result_bits(meet(*_fresh((g, f))))
    assert len(calls) == 7


def test_step_columns_are_read_only():
    _, cols = lattice._columns("join", _pair())
    with pytest.raises(ValueError):
        cols[0, 0] = 0.0
