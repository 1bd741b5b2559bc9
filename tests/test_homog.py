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
    DEFAULT_TOL,
    FiniteFamily,
    GeneratedFamily,
    PHFunction,
    SublinearMap,
    SuperlinearMap,
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
    # the sup side is an angle grid: close at its resolution, and far enough
    # from the oracle at the default tol that the lift reports drift, as data
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = eval_family(h, [3.0, 4.0], side="sup")
        _, diag = fc_semicontinuous_detailed(h, [RmElement([3.0]), RmElement([4.0])], side="sup")
    assert v == pytest.approx(5.0, abs=1e-3)
    assert diag["max_residual"] == abs(v - 5.0) > 10.0 * DEFAULT_TOL


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
    with pytest.raises(ValueError):
        eval_family(h, [1.0, 1.0], tol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eval_family_rejects_non_finite_points(bad):
    # a batched running minimum would carry NaN through silently
    for name, x in (("example-7.1", [bad, 1.0]), ("square-mean", [3.0, bad])):
        with pytest.raises(ValueError, match="finite"):
            eval_family_detailed(builtin(name), x)


def test_generated_family_stall_semantics():
    # constant tail: stop window terms after the last improvement
    vals = np.ones(10_000)
    vals[5] = 0.0
    vals[6:] = 0.0
    fam = GeneratedFamily(lambda x, a, b: vals[a:b], lambda k: None, budget=10_000, window=10)
    h = PHFunction("tail", 1, inf_family=fam)
    value, terms = eval_family_detailed(h, [1.0])
    assert value == 0.0
    assert terms == 16  # improvement at index 5, window 10 more


def test_generated_family_small_improvements_do_not_reset_stall():
    tol = 1e-9
    vals = -np.arange(10_000) * (0.5 * tol)
    fam = GeneratedFamily(lambda x, a, b: vals[a:b], lambda k: None, budget=10_000, window=200)
    h = PHFunction("creep", 1, inf_family=fam)
    value, terms = eval_family_detailed(h, [1.0], tol=tol)
    assert terms == 201
    # the running best still includes the sub-tol improvements seen so far
    assert value == vals[200]


def test_generated_family_budget_exhaustion():
    vals = -np.arange(500, dtype=float)  # improves every step
    fam = GeneratedFamily(lambda x, a, b: vals[a:b], lambda k: None, budget=500, window=200)
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
