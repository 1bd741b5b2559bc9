import functools
import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homocalc.convexsets import Ball, VPolytope, _default_grid
from homocalc.documents import function_from_json, map_from_json, map_to_json
from homocalc.errors import (
    DimensionMismatch,
    EmptyFamily,
    EnvelopeViolation,
    NonFiniteResult,
    SchemaError,
    UnattainedBound,
    UnknownBuiltin,
)
from homocalc.fcalc import fc_semicontinuous_detailed
from homocalc.homog import (
    FiniteFamily,
    PHFunction,
    SublinearMap,
    SuperlinearMap,
    WitnessFamily,
    _eval_columns,
    _scan_columns,
    _sphere_bounds,
    _witness_columns,
    angle_superlinear_family,
    builtin,
    circumscribed_polygon_map,
    disk_map,
    domination_envelopes,
    eval_family,
    eval_family_detailed,
    sphere_grid,
)
from homocalc.lattice import RmElement


def test_sublinear_map_evaluates_support():
    phi = SublinearMap(VPolytope([[1.0, 1.0], [0.0, 0.0]]))
    assert phi([2.0, 3.0]) == pytest.approx(5.0)
    assert phi([-2.0, 1.0]) == pytest.approx(0.0)


def test_superlinear_map_evaluates_min():
    psi = SuperlinearMap(VPolytope([[1.0, 0.0], [0.0, 2.0]]))
    assert psi([1.0, 1.0]) == pytest.approx(1.0)
    assert psi([4.0, 1.0]) == pytest.approx(2.0)


def test_map_types_are_checked():
    with pytest.raises(TypeError):
        SublinearMap("not a set")


def test_builtin_names():
    for name in ("example-7.1", "example-7.2", "square-mean", "abs-sum", "max-coord"):
        h = builtin(name)
        assert h.name == name
    with pytest.raises(UnknownBuiltin):
        builtin("no-such-function")


def test_example_71_values():
    h = builtin("example-7.1")
    assert h.kind == "usc"
    assert h.oracle([1.0, 1.0]) == 2.0
    assert eval_family(h, [1.0, 1.0]) == pytest.approx(2.0)
    assert eval_family(h, [-1.0, 2.0]) == pytest.approx(0.0)
    assert eval_family(h, [-0.001, 5.0]) == pytest.approx(0.0, abs=1e-12)
    assert eval_family(h, [-2.0, -3.0]) == pytest.approx(0.0, abs=1e-12)


def test_example_72_values():
    h = builtin("example-7.2")
    assert h.kind == "lsc"
    assert h.oracle([-1.0, 1.0]) == 0.0
    assert eval_family(h, [5.0, -1.0]) == pytest.approx(-1.0)
    assert eval_family(h, [2.0, 3.0]) == pytest.approx(2.0)
    assert eval_family(h, [5.0, 1e-7]) == pytest.approx(5.0)


def test_square_mean_values():
    h = builtin("square-mean")
    assert h.kind == "cts"
    assert h.oracle([1.0, 0.0]) == 1.0
    assert eval_family(h, [3.0, 4.0]) == pytest.approx(5.0)
    # the sup side's witness is the tangent at (3, 4) / 5 itself, so the
    # lift is the norm there and reports no drift
    v = eval_family_detailed(h, [3.0, 4.0], side="sup")
    _, diag = fc_semicontinuous_detailed(h, [RmElement([3.0]), RmElement([4.0])], side="sup")
    assert v == (5.0, 1)
    assert diag == {"family_terms_used": 1, "max_residual": 0.0}


def test_abs_sum_and_max_coord():
    a = builtin("abs-sum")
    m = builtin("max-coord")
    assert eval_family(a, [3.0, -4.0]) == pytest.approx(7.0)
    assert eval_family(a, [3.0, -4.0], side="sup") == pytest.approx(7.0)
    assert eval_family(m, [3.0, -4.0]) == pytest.approx(3.0)
    assert eval_family(m, [3.0, -4.0], side="sup") == pytest.approx(3.0)


def test_eval_family_side_errors():
    h = builtin("example-7.1")
    with pytest.raises(EmptyFamily):
        eval_family(h, [1.0, 1.0], side="sup")
    with pytest.raises(ValueError):
        eval_family(h, [1.0, 1.0], side="both")
    with pytest.raises(DimensionMismatch):
        eval_family(h, [1.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eval_family_rejects_non_finite_points(bad):
    # a batched running minimum would carry NaN through silently
    for name, x in (("example-7.1", [bad, 1.0]), ("square-mean", [3.0, bad])):
        with pytest.raises(ValueError, match="finite"):
            eval_family_detailed(builtin(name), x)


# ---------------------------------------------------------------------------
# witness families: examples 7.1 and 7.2 and square-mean's sup side name one
# member per column that attains the extremum.  The tests hold those members
# against a test-side enumeration of each family in the order an
# enumerating engine would visit it.

def _bits(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64)).tobytes()


SPECIALS = [0.0, -0.0, 1.0, -1.0, 1e-30, -1e-30, 1e300, -1e300, 5e-324, -5e-324, 2.5, -2.5]


def _extreme_columns(rng, k):
    """k columns in 2-d: every pair of special values (signed zeros, +-1,
    +-1e-30, +-1e300, subnormals), then coordinates with random binary
    exponents from -1074 to 1023, the last third of them with one
    coordinate zeroed."""
    grid = np.array([(a, b) for a in SPECIALS for b in SPECIALS]).T
    X = np.ldexp(rng.uniform(-1.0, 1.0, size=(2, k)), rng.integers(-1074, 1024, size=(2, k)))
    X[:, : grid.shape[1]] = grid
    third = np.arange(2 * k // 3, k)
    X[rng.integers(0, 2, size=third.size), third] = 0.0
    return X


def _certificate_columns(rng, k):
    """k // 2 columns uniform on [-5, 5]^2, then the rest extreme."""
    return np.hstack([rng.uniform(-5.0, 5.0, size=(2, k // 2)), _extreme_columns(rng, k - k // 2)])


# the test-side budget of each infinite family
BUDGET = {"example-7.1": 10_000, "example-7.2": 10_000, "square-mean": 512}


@functools.lru_cache(maxsize=None)
def _enumeration(name):
    """The first BUDGET[name] members of an infinite builtin family, as rows
    of float parameters.

    example-7.1, (m, n) for (mx + ny)^+: the diagonals m + n = d for
    d = 2, 3, ..., m ascending, each followed by the rays (2^(d-1), 1) and
    (1, 2^(d-1)).
    example-7.2, (lambda, n, e) for min(lambda x, 2^e n y): for j = 1, 2, ...
    the members with n = j and with n = 2^j, each for lambda = 0 and 1; e is
    the ray's exponent, so rays past the float range stay exact.
    square-mean, (cos t, sin t) for the tangent maps: t = 2 pi k / 512.
    """
    count = BUDGET[name]
    rows = []
    if name == "example-7.1":
        d = 2
        while len(rows) < count:
            rows += [(m, d - m) for m in range(1, d)] + [(2.0 ** (d - 1), 1), (1, 2.0 ** (d - 1))]
            d += 1
    elif name == "example-7.2":
        j = 1
        while len(rows) < count:
            rows += [(0, j, 0), (1, j, 0), (0, 1, j), (1, 1, j)]
            j += 1
    else:
        theta = np.arange(count) * (2.0 * np.pi / count)
        rows = list(zip(np.cos(theta), np.sin(theta)))
    return np.array(rows[:count], dtype=float)


def _members(name, X, a, b):
    """Values of the members a..b-1 of _enumeration(name) at the columns of
    X (2, k), shape (b - a, k)."""
    P = _enumeration(name)[a:b]
    x, y = X
    with np.errstate(over="ignore", invalid="ignore"):
        if name == "example-7.1":
            return np.maximum(np.multiply.outer(P[:, 0], x) + np.multiply.outer(P[:, 1], y), 0.0)
        if name == "example-7.2":
            ny = np.ldexp(np.multiply.outer(P[:, 1], y), P[:, 2, None].astype(np.int64))
            return np.minimum(np.multiply.outer(P[:, 0], x), ny)
        return np.multiply.outer(P[:, 0], x) + np.multiply.outer(P[:, 1], y)


def _budget_fold(name, X, minimize):
    """Extremum over the whole test-side budget, folded in member order with
    ties keeping the later member."""
    sign = 1.0 if minimize else -1.0
    best = np.full(X.shape[1], np.inf)
    for a in range(0, BUDGET[name], 1000):
        vals = sign * _members(name, X, a, min(a + 1000, BUDGET[name]))
        best = np.minimum(best, np.minimum.accumulate(vals, axis=0)[-1])
    return sign * best


def _family(name, side):
    h = builtin(name)
    return h.inf_family if side == "inf" else h.sup_family


CERTIFIED = [("example-7.1", "inf"), ("example-7.2", "sup")]
WITNESSED = [*CERTIFIED, ("square-mean", "sup")]


@pytest.mark.parametrize("name, side", CERTIFIED)
def test_no_member_in_the_budget_beats_the_bound(name, side):
    family = _family(name, side)
    rng = np.random.default_rng(41)
    X = np.hstack([rng.uniform(-5.0, 5.0, size=(2, 1000)), _extreme_columns(rng, 1000)])
    with np.errstate(over="ignore"):
        bound = family.bound_fn(X)
    for a in range(0, BUDGET[name], 1000):
        vals = _members(name, X, a, a + 1000)
        beats = vals < bound if side == "inf" else vals > bound
        assert not beats.any(), (name, a + np.argwhere(beats)[0])


@pytest.mark.parametrize("name, side", CERTIFIED)
def test_certified_scan_equals_the_scan_without_a_bound(name, side):
    # the bound only decides whether to raise; it never changes a value,
    # and every witness here attains it
    family = _family(name, side)
    plain = WitnessFamily(family.witness_fn, family.member_fn)
    X = _certificate_columns(np.random.default_rng(43), 4000)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _witness_columns(name, family, X)
        want = _witness_columns(name, plain, X)
    assert _bits(values) == _bits(want)


@pytest.mark.parametrize(
    "name, x, value",
    [
        ("example-7.1", [2.0, 3.0], 5.0),  # first quadrant: member (1, 1) is x + y
        ("example-7.1", [-2.0, -3.0], 0.0),  # third quadrant: member (1, 1) is 0
        ("example-7.2", [5.0, -1.0], -1.0),  # y < 0: member min(0*x, y) is y
        # |y| >= x already, so the witness is member (1, 1), which is 0
        ("example-7.1", [1.7e308, -1.7e308], 0.0),
    ],
)
def test_certified_column_stops_after_one_term(name, x, value):
    assert eval_family_detailed(builtin(name), x) == (value, 1)


@pytest.mark.parametrize("name, side", WITNESSED)
def test_witness_members_are_members_of_the_paper_families(name, side):
    """Each witness is a member of the paper's family, evaluated as its own
    support map: (m, n) = (2^i, 2^j) with integers i, j >= 0 for 7.1,
    lambda in {0, 1} and n = 2^e with an integer e >= 0 for 7.2, and a unit
    vector up to rounding for square-mean."""
    family = _family(name, side)
    X = _certificate_columns(np.random.default_rng(59), 600)
    with np.errstate(over="ignore", invalid="ignore"):
        params = family.witness_fn(X)
        values = family.member_fn(params, X)
    if name == "example-7.1":
        i, j = params
        assert i.dtype.kind == j.dtype.kind == "i"
        assert (i >= 0).all() and (j >= 0).all() and ((i == 0) | (j == 0)).all()
        vectors = [(2.0**a, 2.0**b) if max(a, b) < 1024 else None for a, b in zip(i, j)]
        maps = [v and SublinearMap(VPolytope([v, (0.0, 0.0)])) for v in vectors]
    elif name == "example-7.2":
        lam, e = params
        assert set(np.unique(lam)) <= {0.0, 1.0}
        assert e.dtype.kind == "i" and (e >= 0).all()
        maps = [
            SuperlinearMap(VPolytope([(a, 0.0), (0.0, 2.0**b)])) if b < 1024 else None for a, b in zip(lam, e)
        ]
    else:
        u = np.stack([np.cos(params), np.sin(params)])
        assert np.abs(np.hypot(*u) - 1.0).max() <= 2.0 * np.finfo(float).eps
        maps = [SuperlinearMap(VPolytope([v])) for v in u.T]
    # ratios past 2^1023 need a member whose 2^k is not a float
    assert sum(m is None for m in maps) < len(maps) // 4
    with np.errstate(over="ignore", invalid="ignore"):
        for col, m in enumerate(maps):
            if m is not None:
                assert m._values(X[:, col : col + 1])[0] == values[col], (col, X[:, col])


def _signed_binary(low, high):
    """Signed zeros and floats s * m * 2^e with m in [1, 2), e in [low, high]."""
    scaled = st.builds(
        lambda s, m, e: float(s * np.ldexp(m, e)),
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 2.0, exclude_max=True),
        st.integers(low, high),
    )
    return st.one_of(st.just(0.0), st.just(-0.0), scaled)


@pytest.mark.parametrize("name", ["example-7.1", "example-7.2"])
@settings(max_examples=300, deadline=None)
@given(x=_signed_binary(-1074, 1023), y=_signed_binary(-1074, 1023))
def test_certified_builtins_match_the_oracle_at_any_binary_exponent(name, x, y):
    # exact equality: equal nonzero floats have equal bits; a zero's sign is
    # the family's own (7.2's member 0*x is -0.0 for x < 0), not the oracle's
    h = builtin(name)
    with np.errstate(over="ignore"):
        want = h.oracle([x, y])
    if np.isfinite(want):
        assert eval_family(h, [x, y]) == want
    else:
        with pytest.raises(NonFiniteResult):
            eval_family(h, [x, y])


@pytest.mark.parametrize("name, side", WITNESSED)
@settings(max_examples=200, deadline=None)
@given(x=_signed_binary(-1022, 1021), y=_signed_binary(-1022, 1021), data=st.data())
def test_witness_evaluation_commutes_with_power_of_two_scaling(name, side, x, y, data):
    # k keeps every nonzero coordinate normal, below 2^1022, so the values
    # stay normal and finite too
    exps = [int(np.frexp(c)[1]) - 1 for c in (x, y) if c != 0.0]
    k = data.draw(st.integers(-1022 - min(exps, default=0), 1021 - max(exps, default=0)))
    h = builtin(name)
    value = eval_family(h, [x, y], side=side)
    scaled = eval_family(h, [np.ldexp(x, k), np.ldexp(y, k)], side=side)
    assert _bits(scaled) == _bits(np.ldexp(value, k))


BUILTIN_SIDES = [
    ("example-7.1", "inf"),
    ("example-7.2", "sup"),
    ("square-mean", "inf"),
    ("square-mean", "sup"),
    ("abs-sum", "inf"),
    ("abs-sum", "sup"),
    ("max-coord", "inf"),
    ("max-coord", "sup"),
]


@pytest.mark.parametrize("name, side", BUILTIN_SIDES)
def test_builtin_scan_is_the_fold_over_the_budget(name, side):
    """A finite side is the fold over every member, bitwise.  A witness side
    is held to the fold over its test-side budget: a certified side equals
    it bitwise wherever it reaches the bound, as it does on every uniform
    column, and is never beaten by it; square-mean's sup side is at least
    the best of its 512 tangents, less 4 ulp, on 10^4 uniform columns."""
    h = builtin(name)
    family = _family(name, side)
    minimize = side == "inf"
    rng = np.random.default_rng(47)
    if isinstance(family, FiniteFamily):
        X = _certificate_columns(rng, 300)
        total = len(family.maps)
        with np.errstate(over="ignore", invalid="ignore"):
            values = _scan_columns(family, X, minimize=minimize)
            vals = family.values(X, slice(0, total))
        sign = 1.0 if minimize else -1.0
        fold = sign * np.minimum.accumulate(sign * vals, axis=0)[-1]
        assert _bits(values) == _bits(fold)
        assert _eval_columns(h, X[:, :150], side)[1] == total
    elif name == "square-mean":
        X = rng.uniform(-5.0, 5.0, size=(2, 10_000))
        values, terms = _eval_columns(h, X, side)
        best = _budget_fold(name, X, minimize=False)
        assert terms == 1 and (values >= best - 4.0 * np.spacing(best)).all()
    else:
        X = np.hstack([rng.uniform(-5.0, 5.0, size=(2, 1000)), _extreme_columns(rng, 1000)])
        with np.errstate(over="ignore", invalid="ignore"):
            values = _witness_columns(name, family, X)
            bound = family.bound_fn(X)
        fold = _budget_fold(name, X, minimize)
        reached = fold == bound
        assert reached[:1000].all()
        assert _bits(values[reached]) == _bits(fold[reached])
        assert not (fold < values if minimize else fold > values).any()


def _segment_family(count):
    """Members x -> max(c_k x, -x) on R, c_k = 1 + 1/(k + 1): the support
    functions of the segments [-1, c_k]."""
    c = 1.0 + 1.0 / np.arange(1.0, count + 1.0)
    return FiniteFamily([SublinearMap(VPolytope([[-1.0], [ck]])) for ck in c])


def test_finite_family_scan_is_the_fold_over_every_member():
    family = _segment_family(1000)
    rng = np.random.default_rng(53)
    specials = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.7e308]
    scaled = np.ldexp(rng.uniform(-1.0, 1.0, 300), rng.integers(-1074, 1024, 300))
    X = np.concatenate([specials, rng.uniform(-5.0, 5.0, 300), scaled])[None, :]
    with np.errstate(over="ignore"):
        values = _scan_columns(family, X, minimize=True)
        vals = family.values(X, slice(0, 1000))
        one_by_one = np.array([m._values(X) for m in family.maps])
    assert (vals == one_by_one).all()
    assert _bits(values) == _bits(np.minimum.accumulate(vals, axis=0)[-1])


_SIGNED_ZERO_GRID = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.7e308, 3.0, -3.0]


def _finite_family_sides():
    for n in (1, 2, 3, 4):
        for name in ("abs-sum", "max-coord"):
            h = builtin(name, n=n)
            yield pytest.param(h.inf_family, n, id=f"{name}-{n}-inf")
            yield pytest.param(h.sup_family, n, id=f"{name}-{n}-sup")
    for count in (32, 720):
        yield pytest.param(angle_superlinear_family(count), 2, id=f"angles-{count}")
    # linear maps of both classes: never one stack
    signs = itertools.product([-1.0, 1.0], repeat=2)
    mixed = [(SublinearMap if k % 2 else SuperlinearMap)(VPolytope([s])) for k, s in enumerate(signs)]
    yield pytest.param(FiniteFamily(mixed), 2, id="mixed-linear")


@pytest.mark.parametrize("family, n", _finite_family_sides())
def test_finite_family_block_is_its_members_values(family, n):
    # a family evaluates its members in their own arithmetic: a stacked
    # block is bitwise every member's value, signed zeros included
    X = np.array(list(itertools.product(_SIGNED_ZERO_GRID, repeat=n))).T
    with np.errstate(over="ignore", invalid="ignore"):
        block = family.values(X, slice(None))
        members = np.array([m._values(X) for m in family.maps])
    assert _bits(block) == _bits(members)


def test_witness_that_misses_its_bound_raises():
    # the first segment map, max(2x, -x), as the witness everywhere, with the
    # floor |x|: it attains the floor for x <= 0 only
    witness = WitnessFamily(
        lambda X: np.zeros(X.shape[1], dtype=int),
        lambda k, X: np.maximum(2.0 * X[0], -X[0]),
        bound_fn=lambda X: np.abs(X[0]),
    )
    h = PHFunction("segments", 1, inf_family=witness)
    assert eval_family_detailed(h, [-3.0]) == (3.0, 1)
    assert _bits(eval_family(h, [-0.0])) == _bits(0.0)
    with pytest.raises(UnattainedBound, match="column 1"):
        fc_semicontinuous_detailed(h, [RmElement([-1.0, 2.0])])
    # without a bound the same witness is returned, uncertified
    plain = PHFunction("segments", 1, inf_family=WitnessFamily(witness.witness_fn, witness.member_fn))
    assert eval_family(plain, [2.0]) == 4.0


def test_finite_family_requires_maps():
    with pytest.raises(ValueError):
        FiniteFamily([])


def test_representation_warning_on_oracle_drift():
    # declared oracle disagrees with the family by a unit amount: evaluation
    # never reads it, and the lift reports the drift as max_residual; no
    # RepresentationWarning (or any other warning) is raised
    bad = PHFunction(
        "wrong-oracle",
        2,
        inf_family=FiniteFamily([disk_map()]),
        oracle=lambda pts: np.hypot(np.asarray(pts)[..., 0], np.asarray(pts)[..., 1]) + 1.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_family(bad, [3.0, 4.0]) == 5.0
        _, diag = fc_semicontinuous_detailed(bad, [RmElement([3.0, 0.0]), RmElement([4.0, 2.0])])
    assert diag["max_residual"] == 1.0


def test_sphere_grid_shapes_and_norms():
    for n, density in ((1, 8), (2, 64), (3, 200), (5, 128)):
        g = sphere_grid(n, density)
        assert g.shape[1] == n
        assert np.linalg.norm(g, axis=1) == pytest.approx(np.ones(g.shape[0]), abs=1e-9)
        assert np.array_equal(sphere_grid(float(n), float(density)), g)
    assert sphere_grid(1, 8).shape == (2, 1)
    with pytest.raises(ValueError):
        sphere_grid(2, 4)


@pytest.mark.parametrize(
    "n, density, message",
    [
        (0, 8, "grid dimension must be a whole number >= 1, got 0"),
        (-1, 8, "grid dimension must be a whole number >= 1, got -1"),
        (2.5, 8, "grid dimension must be a whole number >= 1, got 2.5"),
        (np.inf, 8, "grid dimension must be a whole number >= 1, got inf"),
        (2, 8.5, "grid density must be a whole number, got 8.5"),
        (2, np.nan, "grid density must be a whole number, got nan"),
        (2, 7, "grid density must be >= 8"),
        # whole, but beyond the float range: refused as inf is
        (10**400, 8, f"grid dimension must be a whole number >= 1, got {10**400}"),
        (2, 10**400, f"grid density must be a whole number, got {10**400}"),
    ],
    ids=[
        "n-zero",
        "n-negative",
        "n-not-whole",
        "n-inf",
        "density-not-whole",
        "density-nan",
        "density-below-8",
        "n-beyond-float",
        "density-beyond-float",
    ],
)
def test_sphere_grid_takes_whole_numbers(n, density, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        sphere_grid(n, density)


# rows of the Kronecker grids as scipy.special.ndtri built them; the standard
# library's inverse normal is within a few ulps of ndtri, so the grids agree
# to 4.5e-16
@pytest.mark.parametrize(
    "n, density, row, want",
    [
        (4, 2000, 0, [-0.16318654101519137, -0.32253856331072994, -0.5030827302351272, -0.785013881755041]),
        (4, 2000, 1, [-0.3715573955542179, 0.8644055572895822, 0.32628646552786716, 0.09102349558869607]),
        (4, 2000, 7, [-0.3728184838366674, -0.32592813607039045, 0.0737386963043052, 0.865644172217864]),
        (4, 2000, 500, [0.4494582880486209, -0.8111980261063658, -0.03981904244099369, -0.37196700606992134]),
        (4, 2000, 1234, [-0.008051273120158658, 0.5245013520504744, 0.8241627982391639, 0.21351625394091253]),
        (4, 2000, 1999, [0.5523882586500951, -0.305069901746099, 0.7267424003076105, 0.27137621551874097]),
        (6, 100, 0, [-0.09355432935861585, -0.18312335880565853, -0.27427815587004767,
                     -0.37413797013756983, -0.49730836954402363, -0.7036974357018244]),
        (6, 100, 13, [-0.6529756708932924, 0.4035570630218261, 0.19308179686286195,
                      0.1557681955005284, 0.2520826937840251, 0.5344852426325348]),
        (6, 100, 57, [0.1710218967136157, -0.22784419429303748, 0.1289230240977451,
                      -0.2474482618416532, -0.009625202867433976, -0.9170027813535965]),
        (6, 100, 99, [-0.14779514424119522, -0.2791475800309966, -0.6233034682134165,
                      0.2481475210194794, -0.529802143703037, -0.41165338180833955]),
    ],
)
def test_kronecker_grid_rows_are_pinned(n, density, row, want):
    g = sphere_grid(n, density)
    assert g.shape == (density, n)
    assert g[row] == pytest.approx(want, rel=0, abs=4.5e-16)
    assert np.linalg.norm(g, axis=1) == pytest.approx(np.ones(density), rel=0, abs=1e-15)


def _default_bounds(h):
    """(m, M) of h's family over the default sphere grid, as the envelopes read them."""
    return _sphere_bounds(h, _default_grid(h.dim), "domination_envelopes")


def test_sphere_bounds_examples():
    m, M = _default_bounds(builtin("example-7.1"))
    assert m == pytest.approx(0.0, abs=1e-12)
    assert M == pytest.approx(np.sqrt(2.0), abs=1e-9)
    m, M = _default_bounds(builtin("example-7.2"))
    assert m == pytest.approx(1.0, abs=1e-9)
    assert M == pytest.approx(1.0, abs=1e-4)
    m, M = _default_bounds(builtin("square-mean"))
    assert m == pytest.approx(-1.0, abs=1e-9)
    assert M == pytest.approx(1.0, abs=1e-9)


def test_domination_envelopes_bracket():
    h = builtin("example-7.2")
    psi, phi = domination_envelopes(h)
    assert isinstance(psi.set, Ball) and isinstance(phi.set, Ball)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-5, 5, size=(50, 2)):
        hv = h.oracle(x)
        assert psi(x) <= hv + 1e-9
        # the sphere sup is approached but never attained, so the default
        # 720-point grid underestimates M by up to 1 - cos(pi/360)
        assert hv <= phi(x) + (1.0 - np.cos(np.pi / 360.0)) * 7.2


def test_domination_envelopes_clamp_negative_lower_bound():
    psi, phi = domination_envelopes(builtin("square-mean"))
    assert psi.set.radius == 0.0
    assert phi.set.radius == pytest.approx(1.0, abs=1e-9)


def test_domination_envelopes_clamp_a_zero_bound_to_plus_zero():
    # example 7.1 is 0 on much of the sphere: its grid minimum 0.0 negates to
    # a lower bound of -0.0, which the clamp must turn into +0.0
    psi, _ = domination_envelopes(builtin("example-7.1"))
    assert psi.set.radius.hex() == "0x0.0p+0"
    assert psi.label == "-0*norm"


def test_domination_envelopes_detect_bad_oracle():
    bad = PHFunction(
        "bad-oracle",
        2,
        inf_family=FiniteFamily([disk_map()]),
        oracle=lambda pts: 2.0 * np.hypot(np.asarray(pts)[..., 0], np.asarray(pts)[..., 1]),
    )
    with pytest.raises(EnvelopeViolation):
        domination_envelopes(bad)


@pytest.mark.parametrize("name", ["example-7.1", "example-7.2", "square-mean", "abs-sum", "max-coord"])
@pytest.mark.parametrize("grid_density", [None, 1000])
def test_sphere_values_read_the_oracle_only_on_the_cross_check_rows(name, grid_density):
    h = builtin(name)
    grid = _default_grid(h.dim) if grid_density is None else sphere_grid(h.dim, grid_density)
    rows = len(grid[:: max(1, len(grid) // 128)])
    oracle, calls = h.oracle, []
    h.oracle = lambda pts: calls.append(np.shape(pts)) or oracle(pts)
    domination_envelopes(h, grid_density=grid_density)
    assert calls == [(rows, h.dim)]
    if grid_density is None:
        _default_bounds(h)
        assert calls == [(rows, h.dim)] * 2


@pytest.mark.parametrize("grid_density", [None, 1000])
def test_domination_envelopes_cross_check_both_points_of_the_line(grid_density):
    # the sphere of R^1 is {1, -1} at any density; an oracle that is wrong
    # at -1 alone (x in place of |x|) must still be caught
    bad = PHFunction(
        "bad-oracle-1d",
        1,
        inf_family=FiniteFamily([SublinearMap(VPolytope([[1.0], [-1.0]]))]),
        oracle=lambda pts: np.asarray(pts, dtype=float)[..., 0],
    )
    with pytest.raises(EnvelopeViolation, match="disagree"):
        domination_envelopes(bad, grid_density=grid_density)


def test_domination_envelopes_take_the_grid_density_as_given():
    # the density reaches sphere_grid uncut: 8.5 is refused, not read as 8,
    # and a float of whole value builds the grid its int builds
    h = builtin("abs-sum")
    with pytest.raises(ValueError, match="grid density must be a whole number, got 8.5"):
        domination_envelopes(h, grid_density=8.5)
    for got, want in zip(domination_envelopes(h, grid_density=1000.0), domination_envelopes(h, grid_density=1000)):
        assert (got.label, got.set.radius) == (want.label, want.set.radius)
        assert np.array_equal(got.set.center, want.set.center)


def test_angle_family_and_polygon_bracket_the_norm():
    fam = angle_superlinear_family(720)
    poly = circumscribed_polygon_map(720)
    rng = np.random.default_rng(4)
    for x in rng.uniform(-5, 5, size=(25, 2)):
        nrm = float(np.hypot(*x))
        inscribed = max(m(x) for m in fam.maps)
        assert inscribed <= nrm + 1e-12
        assert nrm <= poly(x) + 1e-12
        assert poly(x) - inscribed <= 2e-4 * (1.0 + nrm)


def test_map_json_round_trip():
    for m in (disk_map(), SuperlinearMap(VPolytope([[1.0, 0.0], [0.0, 1.0]]), label="pair")):
        m2 = map_from_json(map_to_json(m))
        assert type(m2) is type(m)
        x = np.array([0.3, -1.2])
        assert m2(x) == m(x)


@pytest.mark.parametrize(
    "doc, path, reason",
    [
        ({"sublinear": {"label": "a"}}, "m.sublinear", "expected {'subdiff': <set>}"),
        ({"sublinear": 3}, "m.sublinear", "expected {'subdiff': <set>}"),
        ({"superlinear": {"subdiff": {}}}, "m.superlinear", "expected {'superdiff': <set>}"),
        ({"superlinear": {"superdiff": 5}}, "m.superlinear.superdiff", "expected an object"),
        ({"linear": {}}, "m", "expected a 'sublinear' or 'superlinear' key"),
        (7, "m", "expected an object"),
    ],
)
def test_map_from_json_schema_errors(doc, path, reason):
    with pytest.raises(SchemaError) as exc:
        map_from_json(doc, "doc.json", "m")
    assert exc.value.path == path
    assert str(exc.value) == f"load: doc.json: {path}: {reason}"


def test_function_from_json_builtin():
    h = function_from_json({"family": {"maps": {"builtin": "example-7.1"}}})
    assert h.name == "example-7.1"
    with pytest.raises(SchemaError):
        function_from_json({"family": {"maps": {"builtin": "nope"}}})
    with pytest.raises(SchemaError):
        function_from_json({"family": {"kind": "lsc", "maps": {"builtin": "example-7.1"}}})


@pytest.mark.parametrize(
    "body, path",
    [
        ({"builtin": "example-7.1"}, "family.kind"),
        ({"kind": "usc", "builtin": "example-7.1"}, "family.maps"),
    ],
)
def test_function_from_json_reads_a_builtin_only_under_maps(body, path):
    with pytest.raises(SchemaError) as exc:
        function_from_json({"family": body})
    assert exc.value.path == path


def test_function_from_json_explicit_families():
    doc = {
        "family": {
            "kind": "usc",
            "maps": [map_to_json(disk_map()), map_to_json(circumscribed_polygon_map(8))],
        }
    }
    h = function_from_json(doc)
    assert h.kind == "usc" and h.dim == 2
    assert eval_family(h, [3.0, 4.0]) == pytest.approx(5.0)

    cts = {
        "family": {
            "kind": "cts",
            "maps": {
                "inf": [map_to_json(disk_map())],
                "sup": [map_to_json(m) for m in angle_superlinear_family(8).maps],
            },
        }
    }
    h2 = function_from_json(cts)
    assert h2.kind == "cts"


def test_function_from_json_schema_errors():
    with pytest.raises(SchemaError):
        function_from_json({"family": {"kind": "usc", "maps": []}})
    with pytest.raises(SchemaError):
        function_from_json({"family": {"kind": "huh", "maps": [map_to_json(disk_map())]}})
    with pytest.raises(SchemaError):
        function_from_json({"maps": []})
    # sup-side map in an inf-side family
    with pytest.raises(SchemaError):
        function_from_json(
            {"family": {"kind": "usc", "maps": [map_to_json(angle_superlinear_family(8).maps[0])]}}
        )


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
    st.floats(0, 8, allow_nan=False),
)
def test_builtin_evaluation_is_positively_homogeneous(x, y, lam):
    h = builtin("example-7.1")
    a = eval_family(h, [lam * x, lam * y])
    b = lam * eval_family(h, [x, y])
    assert a == pytest.approx(b, abs=1e-7 * (1.0 + lam))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_builtin_families_bracket_oracle(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5, 5, size=(2, 1))
    h1 = builtin("example-7.1")  # inf-family: every member dominates h
    assert h1.oracle(x[:, 0]) <= _members("example-7.1", x, 0, 64).min() + 1e-12
    h2 = builtin("example-7.2")  # sup-family: every member is below h
    assert _members("example-7.2", x, 0, 64).max() <= h2.oracle(x[:, 0]) + 1e-12
