import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homocalc.convexsets import Ball, VPolytope
from homocalc.errors import (
    DimensionMismatch,
    EmptyFamily,
    EnvelopeViolation,
    SchemaError,
    UnknownBuiltin,
)
from homocalc.fcalc import fc_semicontinuous_detailed
from homocalc.homog import (
    FiniteFamily,
    GeneratedFamily,
    PHFunction,
    SublinearMap,
    SuperlinearMap,
    _scan_columns,
    angle_superlinear_family,
    builtin,
    check_positive_homogeneity,
    circumscribed_polygon_map,
    disk_map,
    domination_envelopes,
    eval_family,
    eval_family_detailed,
    function_from_json,
    map_from_json,
    map_to_json,
    sphere_bounds,
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
    assert h.oracle_at([1.0, 1.0]) == 2.0
    assert eval_family(h, [1.0, 1.0]) == pytest.approx(2.0)
    assert eval_family(h, [-1.0, 2.0]) == pytest.approx(0.0)
    assert eval_family(h, [-0.001, 5.0]) == pytest.approx(0.0, abs=1e-12)
    assert eval_family(h, [-2.0, -3.0]) == pytest.approx(0.0, abs=1e-12)


def test_example_72_values():
    h = builtin("example-7.2")
    assert h.kind == "lsc"
    assert h.oracle_at([-1.0, 1.0]) == 0.0
    assert eval_family(h, [5.0, -1.0]) == pytest.approx(-1.0)
    assert eval_family(h, [2.0, 3.0]) == pytest.approx(2.0)
    assert eval_family(h, [5.0, 1e-7]) == pytest.approx(5.0)


def test_square_mean_values():
    h = builtin("square-mean")
    assert h.kind == "cts"
    assert h.oracle_at([1.0, 0.0]) == 1.0
    assert eval_family(h, [3.0, 4.0]) == pytest.approx(5.0)
    # the sup side is a grid of 512 tangent angles: within its resolution
    # 5 (1 - cos(pi/512)) of the norm but not at it, so the lift reports the
    # drift, as data
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = eval_family(h, [3.0, 4.0], side="sup")
        _, diag = fc_semicontinuous_detailed(h, [RmElement([3.0]), RmElement([4.0])], side="sup")
    assert 5.0 - 5.0 * (1.0 - np.cos(np.pi / 512)) <= v < 5.0
    assert diag["max_residual"] == abs(v - 5.0) > 0.0


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


def test_generated_family_budget_exhaustion():
    vals = -np.arange(500, dtype=float)  # improves every step
    fam = GeneratedFamily(lambda x, a, b: vals[a:b], lambda k: None, budget=500)
    h = PHFunction("drop", 1, inf_family=fam)
    value, terms = eval_family_detailed(h, [1.0])
    assert terms == 500
    assert value == -499.0


def test_generated_family_map_at_consistent_with_blocks():
    h = builtin("example-7.1")
    fam = h.inf_family
    x = np.array([1.5, -2.0])
    block = fam.values(x, 0, 40)
    singles = [fam.map_at(k)(x) for k in range(40)]
    assert block == pytest.approx(singles, abs=0.0)


# ---------------------------------------------------------------------------
# certified stops: the bounds of examples 7.1 and 7.2

def _bits(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64)).tobytes()


def _certificate_columns(rng, k):
    """k columns in 2-d: every pair of special values (signed zeros, +-1,
    +-1e-30, +-1e300, subnormals), then uniform on [-5, 5]^2 to k/2, random
    binary exponents from -1070 to 1020 to 3k/4, and the same with one
    coordinate zeroed."""
    specials = [0.0, -0.0, 1.0, -1.0, 1e-30, -1e-30, 1e300, -1e300, 5e-324, -5e-324, 2.5, -2.5]
    grid = np.array([(a, b) for a in specials for b in specials]).T
    X = rng.uniform(-5.0, 5.0, size=(2, k))
    X[:, : grid.shape[1]] = grid
    X[:, k // 2 :] *= 2.0 ** rng.integers(-1070, 1021, size=(2, k - k // 2))
    half = np.arange(3 * k // 4, k)
    X[rng.integers(0, 2, size=half.size), half] = 0.0
    return X


CERTIFIED = [("example-7.1", "inf"), ("example-7.2", "sup")]


@pytest.mark.parametrize("name, side", CERTIFIED)
def test_no_member_in_the_budget_beats_the_bound(name, side):
    h = builtin(name)
    family = h.inf_family if side == "inf" else h.sup_family
    X = _certificate_columns(np.random.default_rng(41), 300)
    bound = family.bound_fn(X)
    with np.errstate(all="ignore"):
        for a in range(0, family.budget, 1000):
            vals = family.values(X, a, a + 1000)
            beats = vals < bound if side == "inf" else vals > bound
            assert not beats.any(), (name, a + np.argwhere(beats)[0])


@pytest.mark.parametrize("name, side", CERTIFIED)
def test_certified_scan_equals_the_scan_without_a_bound(name, side):
    h = builtin(name)
    family = h.inf_family if side == "inf" else h.sup_family
    plain = GeneratedFamily(family.values, family.map_at, budget=family.budget)
    X = _certificate_columns(np.random.default_rng(43), 4000)
    with np.errstate(all="ignore"):
        values, terms = _scan_columns(family, X, minimize=(side == "inf"))
        want, want_terms = _scan_columns(plain, X, minimize=(side == "inf"))
    assert _bits(values) == _bits(want)
    assert np.median(terms) == 1 and (want_terms == family.budget).all()


@pytest.mark.parametrize(
    "name, x, value",
    [
        ("example-7.1", [2.0, 3.0], 5.0),  # first quadrant: member (1, 1) is x + y
        ("example-7.1", [-2.0, -3.0], 0.0),  # third quadrant: member (1, 1) is 0
        ("example-7.2", [5.0, -1.0], -1.0),  # y < 0: member min(0*x, y) is y
        # member (2, 2) is inf - inf = NaN; the scan stops before it
        ("example-7.1", [1.7e308, -1.7e308], 0.0),
    ],
)
def test_certified_column_stops_after_one_term(name, x, value):
    assert eval_family_detailed(builtin(name), x) == (value, 1)


# ---------------------------------------------------------------------------
# the scan contract: a column stops where it reaches its certificate, or else
# at the budget, with the value of a fold over every member in the budget

def _fold(family, X, minimize):
    """Running extremum after each of the `budget` members, shape (budget, k):
    one minimum.accumulate over the whole enumeration, on negated values for
    a sup-family."""
    vals = np.asarray(family.values(X, 0, family.budget), dtype=float).reshape(family.budget, -1)
    sign = 1.0 if minimize else -1.0
    return np.minimum.accumulate(np.broadcast_to(sign * vals, (family.budget, X.shape[1])), axis=0)


def _assert_scan_is_the_full_fold(family, X, minimize):
    sign = 1.0 if minimize else -1.0
    cols = np.arange(X.shape[1])
    with np.errstate(all="ignore"):
        values, terms = _scan_columns(family, X, minimize=minimize)
        run = _fold(family, X, minimize)
        want_terms = np.full(cols.size, family.budget)
        if family.bound_fn is not None:
            hit = run <= sign * np.asarray(family.bound_fn(X), dtype=float)
            want_terms = np.where(hit.any(axis=0), hit.argmax(axis=0) + 1, family.budget)
    assert terms.tolist() == want_terms.tolist()
    assert _bits(values) == _bits(sign * run[want_terms - 1, cols])
    # no member after a certified stop moves the fold; only a NaN member
    # (inf - inf at the float range's edge) poisons it, and the stop comes
    # before that member
    whole = sign * run[-1]
    kept = ~np.isnan(whole)
    assert _bits(values[kept]) == _bits(whole[kept])
    return terms


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
    h = builtin(name)
    family = h.inf_family if side == "inf" else h.sup_family
    X = _certificate_columns(np.random.default_rng(47), 300)
    terms = _assert_scan_is_the_full_fold(family, X, minimize=(side == "inf"))
    if family.bound_fn is None:
        assert (terms == family.budget).all()


def _segment_family(budget, certified):
    """Members x -> max(c_k x, -x) on R, c_k = 1 + 1/(k + 1): the support
    functions of the segments [-1, c_k].  Each is >= |x|, as c_k >= 1, so |x|
    is a floor; member 0 attains it for x <= 0, and for x > 0 only a member
    whose c_k x rounds to x does."""
    c = 1.0 + 1.0 / np.arange(1.0, budget + 1.0)

    def block(x, a, b):
        return np.maximum(np.multiply.outer(c[a:b], x[0]), -x[0])

    def map_at(k):
        return SublinearMap(VPolytope([[-1.0], [c[k]]]))

    bound = (lambda X: np.abs(X[0])) if certified else None
    return GeneratedFamily(block, map_at, budget=budget, bound_fn=bound)


@pytest.mark.parametrize("certified", [True, False], ids=["bound", "no-bound"])
def test_generated_family_scan_is_the_fold_over_the_budget(certified):
    family = _segment_family(1000, certified)
    rng = np.random.default_rng(53)
    specials = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.7e308]
    scaled = rng.uniform(-1.0, 1.0, 300) * 2.0 ** rng.integers(-1074, 1024, 300)
    X = np.concatenate([specials, rng.uniform(-5.0, 5.0, 300), scaled])
    terms = _assert_scan_is_the_full_fold(family, X[None, :], minimize=True)
    if certified:
        # x <= 0 stops at member 0; x = 1 never reaches its floor
        assert terms[[0, 1, 3, 5]].tolist() == [1, 1, 1, 1] and terms[2] == family.budget
    else:
        assert (terms == family.budget).all()


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
    assert sphere_grid(1, 8).shape == (2, 1)
    with pytest.raises(ValueError):
        sphere_grid(2, 4)


def test_sphere_bounds_examples():
    m, M = sphere_bounds(builtin("example-7.1"))
    assert m == pytest.approx(0.0, abs=1e-12)
    assert M == pytest.approx(np.sqrt(2.0), abs=1e-9)
    m, M = sphere_bounds(builtin("example-7.2"))
    assert m == pytest.approx(1.0, abs=1e-9)
    assert M == pytest.approx(1.0, abs=1e-4)
    m, M = sphere_bounds(builtin("square-mean"))
    assert m == pytest.approx(-1.0, abs=1e-9)
    assert M == pytest.approx(1.0, abs=1e-9)


def test_domination_envelopes_bracket():
    h = builtin("example-7.2")
    psi, phi = domination_envelopes(h)
    assert isinstance(psi.set, Ball) and isinstance(phi.set, Ball)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-5, 5, size=(50, 2)):
        hv = h.oracle_at(x)
        assert psi(x) <= hv + 1e-9
        # the sphere sup is approached but never attained, so the default
        # 720-point grid underestimates M by up to 1 - cos(pi/360)
        assert hv <= phi(x) + (1.0 - np.cos(np.pi / 360.0)) * 7.2


def test_domination_envelopes_clamp_negative_lower_bound():
    psi, phi = domination_envelopes(builtin("square-mean"))
    assert psi.set.radius == 0.0
    assert phi.set.radius == pytest.approx(1.0, abs=1e-9)


def test_domination_envelopes_detect_bad_oracle():
    bad = PHFunction(
        "bad-oracle",
        2,
        inf_family=FiniteFamily([disk_map()]),
        oracle=lambda pts: 2.0 * np.hypot(np.asarray(pts)[..., 0], np.asarray(pts)[..., 1]),
    )
    with pytest.raises(EnvelopeViolation):
        domination_envelopes(bad)


def test_check_positive_homogeneity_passes_for_builtins():
    for name in ("example-7.1", "example-7.2", "square-mean", "abs-sum", "max-coord"):
        report = check_positive_homogeneity(builtin(name), samples=100, seed=5)
        assert report.passed, report.violations[:2]


def test_check_positive_homogeneity_flags_inhomogeneous():
    shifted = PHFunction(
        "shifted",
        2,
        inf_family=FiniteFamily([disk_map()]),
        oracle=lambda pts: np.hypot(np.asarray(pts)[..., 0], np.asarray(pts)[..., 1]) + 1.0,
    )
    report = check_positive_homogeneity(shifted, samples=50, seed=5)
    assert not report.passed


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
    x = rng.uniform(-5, 5, size=2)
    h1 = builtin("example-7.1")  # inf-family: every member dominates h
    first = h1.inf_family.values(x, 0, 64)
    assert h1.oracle_at(x) <= first.min() + 1e-12
    h2 = builtin("example-7.2")  # sup-family: every member is below h
    first = h2.sup_family.values(x, 0, 64)
    assert first.max() <= h2.oracle_at(x) + 1e-12
