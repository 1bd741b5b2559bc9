import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homocalc import convexsets, fcalc, lattice, verify
from homocalc.cli import main
from homocalc.errors import SaddleGap
from homocalc.homog import builtin
from homocalc.lattice import RmElement, StepFunction
from homocalc.verify import (
    CheckReport,
    check_continuous_agreement,
    check_engine_vs_oracle,
    check_interchange,
    check_rep_independence,
    check_saddle,
    check_sublattice_invariance,
    default_suite,
    negative_controls,
    oracle_fc,
)


def test_oracle_fc_example_71():
    h = builtin("example-7.1")
    r = oracle_fc(h, [RmElement([1.0, -1.0, 0.0]), RmElement([1.0, 2.0, -1.0])])
    assert np.array_equal(r.coords, [2.0, 0.0, 0.0])


def test_oracle_fc_example_72_case_table():
    h = builtin("example-7.2")
    r = oracle_fc(h, [RmElement([2.0, 5.0, -1.0]), RmElement([3.0, -1.0, 1.0])])
    assert np.array_equal(r.coords, [2.0, -1.0, 0.0])


def test_oracle_fc_zero_elements():
    h = builtin("square-mean")
    r = oracle_fc(h, [RmElement([0.0, 0.0]), RmElement([0.0, 0.0])])
    assert np.array_equal(r.coords, [0.0, 0.0])


def test_oracle_fc_steps():
    h = builtin("example-7.2")
    f = StepFunction([0.0, 0.5, 1.0], [2.0, 5.0])
    g = StepFunction([0.0, 0.5, 1.0], [3.0, -1.0])
    r = oracle_fc(h, [f, g])
    assert np.array_equal(r.values, [2.0, -1.0])


def test_oracle_fc_requires_oracle():
    from homocalc.homog import FiniteFamily, PHFunction, disk_map

    h = PHFunction("anon", 2, inf_family=FiniteFamily([disk_map()]))
    with pytest.raises(ValueError):
        oracle_fc(h, [RmElement([1.0]), RmElement([1.0])])


def test_check_engine_vs_oracle_builtins_pass():
    for name in ("example-7.1", "example-7.2", "square-mean"):
        report = check_engine_vs_oracle(name, trials=120, seed=1)
        assert report.passed, report.failures[:2]
        assert report.cases == 120


def test_check_engine_vs_oracle_fixed_dimension():
    report = check_engine_vs_oracle("example-7.1", trials=60, seed=2, m=16)
    assert report.passed


def test_check_interchange_passes_and_seeds_reproduce():
    r1 = check_interchange(trials=300, seed=3)
    r2 = check_interchange(trials=300, seed=3)
    assert r1.passed
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())


def test_check_interchange_fault_injection_caught():
    report = check_interchange(trials=10, seed=3, fault_injection=True)
    assert not report.passed
    assert all(f.digest for f in report.failures)


def test_check_rep_independence_pass_and_coarse_failure():
    assert check_rep_independence(trials=60, seed=4).passed
    coarse = check_rep_independence(trials=20, seed=4, angles=8)
    assert not coarse.passed


def test_check_continuous_agreement():
    assert check_continuous_agreement(trials=60, seed=5).passed


def test_check_sublattice_invariance_exact():
    report = check_sublattice_invariance(trials=80, seed=6)
    assert report.passed
    for f in report.failures:
        assert f.tolerance == 0.0


def test_check_saddle_passes():
    report = check_saddle(trials=6, seed=7)
    assert report.passed, report.failures[:2]


def test_check_saddle_corrupt_records_gap():
    report = check_saddle(trials=1, seed=7, corrupt=True)
    assert not report.passed
    assert any("min-max" in str(f.observed) for f in report.failures)


def test_check_saddle_passes_at_seeds_below_100():
    failing = [seed for seed in range(100) if not check_saddle(seed=seed).passed]
    assert failing == []


@pytest.mark.parametrize("seed", range(20))
def test_the_corrupted_family_shows_only_in_the_ordering_gap(seed):
    # the family saddle with its ball row shifted one column along keeps its
    # min-max, the core's support, so only |min-max - max-min| records it:
    # the family's record comes first, then the 2 x 2 control's SaddleGap
    report = check_saddle(trials=1, seed=seed, corrupt=True)
    assert report.cases == 3 and len(report.failures) == 2
    family, control = report.failures
    assert isinstance(family.observed, float) and family.observed > family.tolerance
    assert family.expected == 0.0 and "min-max" in control.observed
    rng = verify._rng(seed, "saddle")
    verts, _, phis, psis = verify._saddle_family(rng, 2)
    cols = rng.uniform(-5.0, 5.0, size=(2, 6))
    coeffs = np.array(verify.saddle_build(phis, psis).coeffs)
    coeffs[1] = np.roll(coeffs[1], 1, axis=0)
    infsup, supinf = verify.saddle_eval(verify.SaddleFamily(coeffs), cols.T)
    assert np.abs(infsup - phis[0](cols)).max() <= 1e-12
    assert family.observed == np.abs(infsup - supinf).max()
    assert family.digest == verify._digest(coeffs, cols)


def test_the_saddle_trials_hold_the_ordering_gap(monkeypatch):
    # max-min moved by 2^-20 of its size at every column, with every lift
    # untouched: each trial fails on the gap alone.  The 32-tangent saddle
    # has one row, so its two orderings are one reduction and its case
    # compares fc_saddle with the lift only
    inner = verify.saddle_eval

    def shifted(S, x):
        infsup, supinf = inner(S, x)
        return infsup, supinf * (1 + 2.0**-20) + 2.0**-20

    monkeypatch.setattr(verify, "saddle_eval", shifted)
    report = check_saddle(trials=7, seed=3)
    assert (len(report.failures), report.cases) == (7, 8)


def test_the_saddle_builds_run_no_minor_cycle(monkeypatch):
    # every Wolfe problem of the families and of the 32-tangent saddle ends
    # at corral size 1, so the check never reaches the SVD of a minor cycle
    def refused(group):
        raise AssertionError("a minor cycle ran")

    monkeypatch.setattr(convexsets, "_minor_cycles", refused)
    for seed in range(20):
        assert check_saddle(seed=seed, corrupt=True).cases == 22


@pytest.mark.parametrize("trials, builds", [(0, 1), (1, 2), (2, 3), (3, 4), (60, 4)])
def test_check_saddle_builds_one_saddle_per_dimension(monkeypatch, trials, builds):
    # one family per dimension that has trials, plus the 32-tangent saddle
    calls = _counting(monkeypatch, "saddle_build")
    assert check_saddle(trials=trials, seed=5).cases == trials + 1
    assert len(calls) == builds


def test_negative_controls_pass_when_faults_detected():
    report = negative_controls(seed=8)
    assert report.passed
    assert report.cases == 2


def _no_saddle_gap(monkeypatch):
    """fc_saddle returns zeros where it would raise SaddleGap."""
    inner = verify.fc_saddle

    def silent(S, fs):
        try:
            return inner(S, fs)
        except SaddleGap:
            return RmElement(np.zeros(len(fs[0].coords)))

    monkeypatch.setattr(verify, "fc_saddle", silent)


def _no_ordering_gap(monkeypatch):
    """_ordering_gap reads 0 at every column."""
    monkeypatch.setattr(verify, "_ordering_gap", lambda S, cols: np.zeros(cols.shape[1]))


@pytest.mark.parametrize(
    "breaks",
    [(_no_saddle_gap,), (_no_ordering_gap,), (_no_saddle_gap, _no_ordering_gap)],
    ids=["saddle-gap", "ordering-gap", "both"],
)
def test_negative_controls_fail_when_a_saddle_fault_goes_undetected(monkeypatch, breaks):
    # the corrupted saddles count as caught only when both the rolled-row
    # family's gap is recorded and the 2 x 2 saddle raises SaddleGap
    for brk in breaks:
        brk(monkeypatch)
    report = negative_controls(seed=0)
    assert not report.passed
    label = hashlib.sha1(b"corrupted saddle coefficient").hexdigest()[:12]
    assert [f.digest for f in report.failures] == [label]


def test_the_saddle_controls_are_check_saddles_first_family_and_tangents():
    # negative_controls rebuilds only check_saddle's first R^2 family: its
    # corrupted record is the one check_saddle(trials=1, corrupt=True)
    # makes, and the 32 tangents at 0 and 90 degrees are the 32-tangent
    # saddle's coefficients, bit for bit
    for seed in (0, 8):
        rng = verify._rng(seed, "saddle")
        phis, psis = verify._saddle_family(rng, 2)[2:]
        cols = rng.uniform(-5.0, 5.0, size=(2, 6))
        control = np.array(verify.saddle_build(phis, psis).coeffs), cols
        pair = verify._tangents(32)[[0, 8]]
        failures, caught = verify._corrupted_saddles(control, pair, 1e-9)
        report = check_saddle(trials=1, seed=seed, corrupt=True)
        assert caught and [f.to_json() for f in failures] == [f.to_json() for f in report.failures]
    S32 = verify.saddle_build([verify.disk_map()], list(verify.angle_superlinear_family(32).maps))
    assert pair.tobytes() == S32.coeffs[0, [0, 8]].tobytes()


def test_report_json_shape():
    report = check_interchange(trials=5, seed=9)
    doc = report.to_json()
    assert set(doc) == {"name", "cases", "failures", "passed", "seed"}
    assert doc["passed"] is True
    assert doc["cases"] == 5
    assert doc["seed"] == 9


def test_report_passed_iff_no_failures():
    r = CheckReport("x", 3, [], 0)
    assert r.passed
    r2 = check_interchange(trials=4, seed=10, fault_injection=True)
    assert (len(r2.failures) == 0) == r2.passed


def test_default_suite_all_green_and_name_ordered():
    reports = default_suite(seed=0)
    names = [r.name for r in reports]
    assert names == sorted(names)
    for r in reports:
        assert r.passed, (r.name, r.failures[:2])


def test_default_suite_deterministic():
    a = [r.to_json() for r in default_suite(seed=2)]
    b = [r.to_json() for r in default_suite(seed=2)]
    assert json.dumps(a) == json.dumps(b)


# SHA-256 pins of whole outputs.  The checks lift all their trials in one
# batched call per function; these pins hold the bytes to what one lift per
# trial gave, failure records included.  Every check draws each quantity
# of all its trials in one generator call, in the order its docstring
# states, so a failure record holds the data of that order.  With m fixed,
# engine-vs-oracle's one (trials, n, m) draw gives the numbers of one
# (n, m) draw per trial, and its record pin holds that.  A passing report
# holds no trial data, so the suite pins do not depend on the draw order
# while every check passes.


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


SUITE_SEED_0_SHA256 = "2ac6133a54a2055f180dc5c2c7709a77a58e5c8a71320a5a7b5406769d86a41d"


def test_suite_cli_stdout_is_pinned(capsys):
    assert main(["suite", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert _sha256(out) == SUITE_SEED_0_SHA256


@pytest.mark.parametrize(
    "seed, digest",
    [
        (1, "d88fa41e271128ee977c44e93a0db2471aadc7397c4ca6fb596364016b9539e0"),
        (7, "9755d6a923d9087a1f47dc12b8618b1cfceacc8c719d391df347259b6d0763b4"),
        (12345, "442af9f4a968e914823955dca974ffc21c44ae1f28838af46ead95d5772f6ffb"),
    ],
)
def test_suite_cli_stdout_is_pinned_at_more_seeds(capsys, seed, digest):
    assert main(["suite", "--seed", str(seed)]) == 0
    assert _sha256(capsys.readouterr().out) == digest


def test_python_m_homocalc_runs_the_cli():
    # a checkout with nothing installed: python -m homocalc with src on the path
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "homocalc", "suite", "--seed", "0"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert _sha256(done.stdout) == SUITE_SEED_0_SHA256


_BLOCK_SCIPY = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
from homocalc import cli

code = cli.main(["suite", "--seed", "0"])
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
sys.stderr.write(repr(loaded))
sys.exit(code)
"""


def test_suite_runs_without_scipy():
    # numpy is the package's one dependency: with every scipy import made to
    # fail, the suite still prints its pinned bytes and loads no scipy module
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _BLOCK_SCIPY],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "[]")
    assert _sha256(done.stdout) == SUITE_SEED_0_SHA256


@pytest.mark.parametrize(
    "run, failures, digest",
    [
        (
            lambda: check_engine_vs_oracle("square-mean", tol=0.0, seed=1),
            353,
            "2326f8656397afdf140d72c28e70d42f5b89c0c2849ea0eefb2cbe05ddf6226c",
        ),
        (
            lambda: check_rep_independence(angles=8, seed=5),
            50,
            "a8a861dd7a32a3a0dd65c032802b43ef691d6778bc1fdac0d7aa61785123f140",
        ),
        (
            lambda: check_engine_vs_oracle("square-mean", trials=100, tol=0.0, seed=3, m=5),
            62,
            "ce4906bbdfedce70eff649d2305e8687a80239d5699d308e5fb8939c3ebe336c",
        ),
        (
            # every record holds the trial's scaled lift value and its point
            # value, so this pins both sides of the check bitwise
            lambda: check_interchange(trials=1000, seed=3, fault_injection=True),
            1000,
            "c6ab9372f0f1efa135143efbe0cd59239c1a46b8fb03f2cd63e3203938e65c2e",
        ),
        (
            # at tol 0 the last-bit differences between square-mean's
            # tangent (sup) side and its inf side are recorded
            lambda: check_continuous_agreement(tol=0.0, seed=1),
            25,
            "cb7ed871e0d06c22f0e3b6da8817ec53388864ac5e8a01a5222f1969652d5ee2",
        ),
    ],
    ids=[
        "engine-vs-oracle-tol0",
        "rep-independence-8-angles",
        "engine-vs-oracle-fixed-m",
        "interchange-fault-injection",
        "continuous-agreement-tol0",
    ],
)
def test_forced_failure_records_are_pinned(run, failures, digest):
    report = run()
    assert len(report.failures) == failures
    assert _sha256(json.dumps(report.to_json(), sort_keys=True)) == digest


@pytest.mark.parametrize(
    "kwargs, failures, digest",
    [
        ({"seed": 0}, 23, "72b7b9805147c4ab3f508a80527a286d89e43fe4155bd21da27b096a3586d6f4"),
        # tol 0 is recorded as the 1e-12 floor
        (
            {"seed": 3, "trials": 7, "tol": 0.0},
            10,
            "18e346187fa7873b8960514804ec207801e55495b823e380b20384bb69104d88",
        ),
    ],
    ids=["default", "tol0"],
)
def test_saddle_failure_records_are_pinned(monkeypatch, kwargs, failures, digest):
    # the saddles' own gaps are rounding at most, so both parts are made to
    # fail: the core's lifts (part one) and the 32-tangent lift (part two)
    # come back scaled by 1 + 2^-20; the corrupted family saddle adds its gap
    # record and the corrupted 2 x 2 saddle its SaddleGap record
    for name in ("fc_sublinear", "fc_semicontinuous"):
        inner = getattr(verify, name)
        monkeypatch.setattr(
            verify, name, lambda *a, inner=inner, **k: RmElement(inner(*a, **k).coords * (1 + 2.0**-20))
        )
    report = check_saddle(corrupt=True, **kwargs)
    assert len(report.failures) == failures
    assert _sha256(json.dumps(report.to_json(), sort_keys=True)) == digest


@pytest.mark.parametrize(
    "seed, failures, digest",
    [
        (3, 149, "7b96d8256e80818b967a39c19df775480460f93662ec7d7f3cf0a27030f374c3"),
        (0, 159, "cf416b49047e0181d659de5e02d32bdb8cfac9be1e0c5d114ad82eb1754b1656"),
    ],
    ids=["sublattice-invariance-fault", "sublattice-invariance-fault-seed-0"],
)
def test_sublattice_invariance_failure_records_are_pinned(monkeypatch, seed, failures, digest):
    # the two sides agree bitwise, so every 7th value of each lift, of a
    # StepFunction on the step side and of an RmElement on the grid side,
    # comes back scaled by 1 + 2^-20: the sides then differ where one
    # side's value is scaled and the other's not, and each record holds
    # the trial's grid points, its drawn values and its worst grid point
    inner = verify.fc_semicontinuous

    def faulty(*args, **kwargs):
        lifted = inner(*args, **kwargs)
        step = isinstance(lifted, StepFunction)
        scaled = (lifted.values if step else lifted.coords).copy()
        scaled[::7] *= 1 + 2.0**-20
        return StepFunction(lifted.breakpoints, scaled) if step else RmElement(scaled)

    monkeypatch.setattr(verify, "fc_semicontinuous", faulty)
    report = check_sublattice_invariance(seed=seed)
    assert len(report.failures) == failures
    assert _sha256(json.dumps(report.to_json(), sort_keys=True)) == digest


def _counting(monkeypatch, name):
    """Replace verify.<name> by a wrapper that counts its calls."""
    calls = []
    inner = getattr(verify, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(verify, name, counted)
    return calls


@pytest.mark.parametrize("trials", [10, 200])
@pytest.mark.parametrize(
    "check, lifts",
    [
        (check_engine_vs_oracle, 1),
        (check_rep_independence, 3),
        (check_continuous_agreement, 6),
        (check_sublattice_invariance, 10),
    ],
    ids=["engine-vs-oracle", "rep-independence", "continuous-agreement", "sublattice-invariance"],
)
def test_checks_lift_each_function_once_whatever_the_trial_count(monkeypatch, check, lifts, trials):
    # one batched lift per function and side, never one per trial
    calls = _counting(monkeypatch, "fc_semicontinuous")
    assert check(trials=trials, seed=11).cases == trials
    assert len(calls) == lifts


@pytest.mark.parametrize("trials", [10, 1000])
def test_interchange_reads_one_coordinate_per_group_through_hom_eval(monkeypatch, trials):
    # each group's first trial reads its coordinate through hom_eval and the
    # rest by one index into the group's lift: one call per group and lift,
    # at most 16, whatever the trial count
    sub = _counting(monkeypatch, "fc_sublinear")
    sup = _counting(monkeypatch, "fc_superlinear")
    calls = _counting(monkeypatch, "hom_eval")
    assert check_interchange(trials=trials, seed=11).passed
    assert 1 <= len(calls) == len(sub) + len(sup) <= 16


def test_a_planted_coordinate_fault_fails_the_suite(monkeypatch):
    # a hom_eval that reads one coordinate past the asked one must fail
    # check_interchange, and so the suite
    monkeypatch.setattr(verify, "hom_eval", lambda hom, f: float(f.coords[hom.j % f.m]))
    assert not check_interchange(seed=0).passed
    assert not all(r.passed for r in default_suite(0))


def test_interchange_builds_one_element_per_group(monkeypatch):
    # each (set type, dimension, side) group makes one fc_sublinear or
    # fc_superlinear call, whatever its size: at 1000 trials all 2 x 4 x 2
    # groups are drawn, one lift per side in each of 8 (set type, dimension)
    sub = _counting(monkeypatch, "fc_sublinear")
    sup = _counting(monkeypatch, "fc_superlinear")
    report = check_interchange(seed=0)
    assert report.passed and report.cases == 1000
    assert (len(sub), len(sup)) == (8, 8)
    sub.clear()
    sup.clear()
    assert check_interchange(trials=3, seed=0).cases == 3
    assert 1 <= len(sub) + len(sup) <= 3


@pytest.mark.parametrize("seed", range(50))
def test_interchange_reaches_the_pruned_support(monkeypatch, seed):
    # the point side is each map's second call, which plans an R^1
    # polytope of 32 or more vertices: the pruned support must be taken,
    # and give the lift's values
    calls = []
    inner = convexsets._pruned_support

    def counted(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(convexsets, "_pruned_support", counted)
    assert check_interchange(seed=seed).passed
    assert calls


def test_verify_imports_no_private_convexsets_name():
    # the checks reach the support kernels through the public map path, so
    # verify holds no private array layout of convexsets
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    from_convexsets = [a.name for node in imports if getattr(node, "module", None) == "convexsets" for a in node.names]
    assert from_convexsets == ["Ball", "VPolytope"]
    assert "convexsets" not in {a.name.split(".")[-1] for node in imports for a in node.names}


def test_the_suite_builds_no_sphere_grid_above_r2(monkeypatch):
    # a polytope that can never be planned (R^3 and up, or fewer than 32
    # vertices) caches the empty plan at once, without its dimension's grid
    dims = []
    inner = convexsets.sphere_grid

    def counted(n, density):
        dims.append(n)
        return inner(n, density)

    convexsets._default_grid.cache_clear()
    monkeypatch.setattr(convexsets, "sphere_grid", counted)
    assert all(r.passed for r in default_suite(0))
    assert dims and max(dims) <= 2


class _CountingGenerator:
    """A generator that records the name of every method called on it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize(
    "check, steps",
    [
        (check_engine_vs_oracle, 0),
        (check_interchange, 0),
        (check_rep_independence, 0),
        (check_continuous_agreement, 0),
        # two StepFunctions per built-in, and the step lift of each pair
        (check_sublattice_invariance, 15),
    ],
    ids=["engine-vs-oracle", "interchange", "rep-independence", "continuous-agreement", "sublattice-invariance"],
)
def test_checks_draw_each_quantity_in_one_call_whatever_the_trial_count(monkeypatch, check, steps):
    # the generator is called once per quantity, never once per trial, and
    # sublattice-invariance builds one step tuple per built-in, not one
    # per trial
    calls, built = [], []
    rng = verify._rng
    monkeypatch.setattr(verify, "_rng", lambda seed, name: _CountingGenerator(rng(seed, name), calls))
    init = StepFunction.__init__

    def counted_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StepFunction, "__init__", counted_init)
    made = {}
    for trials in (10, 200):
        calls.clear()
        built.clear()
        assert check(trials=trials, seed=11).cases == trials
        made[trials] = list(calls), len(built)
    assert made[10] == made[200] and len(made[10][0]) <= 10 and made[10][1] == steps


def _left_values_at(self, ts):
    # values_at with searchsorted(..., side="left"): a point at a breakpoint
    # reads the piece before it, and 0 the last piece
    ts = np.asarray(ts, dtype=float).reshape(-1)
    idx = self.breakpoints.searchsorted(ts, side="left") - 1
    return self.values[idx.clip(None, self.pieces - 1)]


def _refinement_less_a_breakpoint(inner, at):
    # common_refinement less its inner breakpoint at index at, each
    # function's values repeated over the pieces that are left
    def refine(fs):
        bp = inner(fs)[0]
        bp = np.delete(bp, at) if bp.size > 2 else bp
        return bp, np.stack([np.repeat(f.values, np.diff(bp.searchsorted(f.breakpoints))) for f in fs])

    return refine


@pytest.mark.parametrize(
    "fault", ["values-at-left", "refinement-drops-a-breakpoint", "refinement-drops-the-first-breakpoint"]
)
def test_a_planted_step_lattice_fault_fails_the_suite(monkeypatch, fault):
    # the step check lifts real step tuples through the lattice's own
    # refinement and embedding, reads the step lift onto the grid by piece
    # index and holds its breakpoints to the tuple's own union, so a fault
    # in either fails it at every seed, and so the suite
    if fault == "values-at-left":
        monkeypatch.setattr(StepFunction, "values_at", _left_values_at)
    else:
        at = -2 if fault == "refinement-drops-a-breakpoint" else 1
        monkeypatch.setattr(lattice, "common_refinement", _refinement_less_a_breakpoint(lattice.common_refinement, at))
    for seed in range(6):
        assert not check_sublattice_invariance(seed=seed).passed
    assert not all(r.passed for r in default_suite(0))


def _stale_columns(inner):
    # lattice._columns with a memo that ignores its key: a step tuple of
    # the length last refined gets that refinement
    last = {}

    def columns(op, elements):
        if len(elements) in last and all(isinstance(f, StepFunction) for f in elements):
            return last[len(elements)]
        out = inner(op, elements)
        if isinstance(elements[0], StepFunction):
            last[len(elements)] = out
        return out

    return columns


def test_a_stale_refinement_memo_fails_the_suite(monkeypatch):
    # each built-in's step lift must have its own tuple's breakpoints, so a
    # memo that hands built-in 1 the refinement of built-in 0 fails the check
    stale = _stale_columns(lattice._columns)
    monkeypatch.setattr(lattice, "_columns", stale)
    monkeypatch.setattr(fcalc, "_columns", stale)
    report = check_sublattice_invariance(seed=0)
    # its first record is built-in 1's breakpoint failure: two piece counts
    assert isinstance(report.failures[0].observed, int)
    assert report.failures[0].observed != report.failures[0].expected
    assert not all(r.passed for r in default_suite(0))


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.integers(0, 6), max_size=8),
    st.sampled_from([(-5.0, 5.0), (-3.0, 3.0), (0.0, 2.0)]),
    st.integers(0, 2**32 - 1),
)
@example(1, [], (-5.0, 5.0), 0)
@example(3, [1], (-5.0, 5.0), 0)
@example(4, [0, 2, 0], (-5.0, 5.0), 7)
def test_the_stacked_draw_is_the_drawn_blocks_side_by_side(n, widths, bounds, seed):
    # one uniform draw gathered into the stack gives, bit for bit, _draw's
    # row-major (n, w) pieces side by side, and leaves the generator where
    # _draw leaves it
    stacked, blocks = verify._rng(seed, "engine-vs-oracle"), verify._rng(seed, "engine-vs-oracle")
    stack = verify._draw_stack(stacked, *bounds, n, widths)
    pieces = verify._draw(blocks, *bounds, [(n, w) for w in widths])
    assert _bits(stack) == _bits(np.hstack([np.empty((n, 0)), *pieces]))
    assert _bits(stacked.uniform(size=3)) == _bits(blocks.uniform(size=3))


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("trials", [0, 1])
@pytest.mark.parametrize(
    "check, more",
    [
        (check_engine_vs_oracle, 0),
        (check_interchange, 0),
        (check_rep_independence, 0),
        (check_continuous_agreement, 0),
        (check_sublattice_invariance, 0),
        # the saddle check adds its 32-tangent case to the trials
        (check_saddle, 1),
    ],
    ids=["engine-vs-oracle", "interchange", "rep-independence", "continuous-agreement", "sublattice-invariance", "saddle"],
)
def test_checks_pass_at_no_trial_and_at_one(check, more, trials, seed):
    # no trial is an empty stack and a passing report of no case; one trial
    # is a stack of one block
    report = check(trials=trials, seed=seed)
    assert report.passed and report.cases == trials + more


def test_the_check_table_drives_the_cli_and_the_suite(monkeypatch, capsys):
    # the CLI offers exactly the table's names
    assert main(["check", "no-such-check"]) == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    offered = message.split("choose from", 1)[1].strip(" ()")
    assert sorted(n.strip(" '") for n in offered.split(",")) == sorted(verify._CHECKS)
    # default_suite calls every check through the module, so a wrapper set
    # on a module attribute (as the benchmark's tracer sets) sees each call
    names = [n for n in vars(verify) if n.startswith("check_")] + ["negative_controls"]
    calls = {name: _counting(monkeypatch, name) for name in names}
    reports = default_suite(seed=0)
    assert len(reports) == 9
    assert {r.name.split("[")[0] for r in reports} == set(verify._CHECKS)
    assert {name: len(c) for name, c in calls.items()} == {
        "check_engine_vs_oracle": 3,
        "check_interchange": 2,
        "check_rep_independence": 1,
        "check_continuous_agreement": 1,
        "check_sublattice_invariance": 1,
        "check_saddle": 1,
        "negative_controls": 1,
    }


def test_the_suite_builds_five_saddles(monkeypatch):
    # check_saddle builds one family saddle per dimension and the 32-tangent
    # saddle, and negative_controls the first R^2 family again; one
    # fc_saddle per saddle check_saddle builds and one for the controls'
    # 2 x 2 saddle; one fc_superlinear per psi of check_saddle's families
    # (k + 1 for k core points), 21 in all, and check_interchange one per
    # superlinear group: 8 in its own run and 3 in the 8-trial run of
    # negative_controls
    names = ("saddle_build", "fc_saddle", "fc_superlinear")
    calls = {name: _counting(monkeypatch, name) for name in names}
    default_suite(seed=0)
    assert {name: len(c) for name, c in calls.items()} == {
        "saddle_build": 5,
        "fc_saddle": 5,
        "fc_superlinear": 21 + 8 + 3,
    }
