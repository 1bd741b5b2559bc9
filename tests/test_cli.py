import hashlib
import json
import warnings

import numpy as np
import pytest

from homocalc.cli import main
from homocalc.fcalc import saddle_build, saddle_to_json
from homocalc.homog import angle_superlinear_family, disk_map, map_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_builtin(capsys):
    code, out, err = run(capsys, "eval", "--builtin", "example-7.1", "--x", "1,1")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["value"] == 2.0
    assert doc["diagnostics"]["family_terms_used"] >= 1


def test_fc_builtin_rm(capsys):
    code, out, _ = run(
        capsys, "fc", "--builtin", "example-7.2", "--lattice", "rm",
        "--f", "2,5,-1", "--f", "3,-1,1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["element"]["rm"] == pytest.approx([2.0, -1.0, 0.0])
    assert doc["diagnostics"]["max_residual"] == pytest.approx(0.0, abs=1e-12)


def test_fc_builtin_step(capsys):
    code, out, _ = run(
        capsys, "fc", "--builtin", "example-7.2", "--lattice", "step",
        "--f", "0,0.5,1|2,5", "--f", "0,0.5,1|3,-1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["element"]["step"]["breakpoints"] == [0.0, 0.5, 1.0]
    assert doc["element"]["step"]["values"] == pytest.approx([2.0, -1.0])


# The columns (1, -1e-30) and (1, 1e-30) are where examples 7.1 and 7.2 need
# a geometric ray far down their enumerations (the 5250th and 400th
# members), so these pins hold the value there and family_terms_used too.
FC_TUPLE = ("--f", "3,1,1,0,-2,1e300", "--f", "4,-1e-30,1e-30,0,5,3e300")


@pytest.mark.parametrize(
    "name, digest",
    [
        ("example-7.1", "5f4a2393f2f6e703b8646a826e4a5075ec8374f5c814a81101114adc03d24a3f"),
        ("example-7.2", "13b5f3baf27a6d047fc86fca1707ec3b5df7129a4f8dec83872e4a4a3362074d"),
        ("square-mean", "50f839d98524d2f958a045823d4978c726c13248d90b88893510faae35c9795f"),
        ("abs-sum", "b7aeaeeceee2b103b4ae8718a0495b271efe3b8d7a890b6dcb13590075fe2135"),
        ("max-coord", "3e7ce5021a63ea6fc267fbe10ace18fb1ea1b48ce2c5d1d864c33653a5e0097e"),
    ],
)
def test_fc_stdout_is_pinned(capsys, name, digest):
    code, out, _ = run(capsys, "fc", "--builtin", name, *FC_TUPLE)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_drift_is_data_and_stderr_stays_empty(capsys):
    # at (1e300, -7) the ray that attains the value 0 lies beyond the
    # 10,000-member budget, so the lift stops short of the oracle; it says so
    # in max_residual, and nothing reaches stderr
    code, out, err = run(capsys, "fc", "--builtin", "example-7.1", "--f", "1e300", "--f=-7")
    doc = json.loads(out)
    assert (code, doc["diagnostics"]["max_residual"], err) == (0, 1e300, "")
    assert doc["diagnostics"]["family_terms_used"] == 10_000
    code, out, err = run(capsys, "eval", "--builtin", "example-7.1", "--x", "1e300,-7")
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (
            ["fc", "--builtin", "example-7.2", "--lattice", "rm", "--f", "2,0,1", "--f", "-1,3,0"],
            "element",
            {"rm": [-1.0, 0.0, 0.0]},
        ),
        (["eval", "--builtin", "example-7.1", "--x", "-2,5"], "value", 0.0),
    ],
    ids=["readme-fc", "eval"],
)
def test_values_starting_with_a_minus_sign(capsys, argv, key, value):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)[key] == value


@pytest.mark.parametrize(
    "argv",
    [
        ["suite", "--tol", "1"],
        ["saddle-eval", "--family", "SADDLE", "--x", "1,0", "--tol", "1"],
        ["eval", "--builtin", "example-7.1", "--x", "1,1", "--seed", "1"],
        ["fc", "--builtin", "example-7.1", "--f", "1", "--f", "1", "--seed", "1"],
        ["saddle-build", "--family", "PAIR", "--seed", "1"],
        ["saddle-eval", "--family", "SADDLE", "--x", "1,0", "--seed", "1"],
        ["eval", "--builtin", "example-7.1"],
        ["check", "no-such-check"],
        [],
        ["eval", "--builtin", "example-7.2", "--x", "-inf,5"],
        ["check", "sublattice-invariance", "--tol", "1"],
        ["check", "negative-controls", "--tol", "1"],
        ["eval", "--builtin", "example-7.1", "--x", "1,1", "--tol", "1e-9"],
        ["fc", "--builtin", "example-7.1", "--f", "1", "--f", "1", "--tol", "1e-9"],
        ["eval", "--builtin", "square-mean", "--x", "3,4", "--budget", "1"],
        ["eval", "--builtin", "abs-sum", "--x", "3,4", "--budget", "1"],
        ["fc", "--builtin", "max-coord", "--f", "1", "--f", "2", "--budget", "1"],
        ["eval", "--family", "FAMILY", "--x", "3,4", "--budget", "1"],
        ["fc", "--family", "FAMILY", "--f", "3", "--f", "4", "--budget", "1"],
        *[
            ["check", name, "--builtin", "example-7.2"]
            for name in (
                "interchange", "rep-independence", "continuous-agreement",
                "sublattice-invariance", "saddle", "negative-controls",
            )
        ],
        ["check", "interchange", "--builtin", "nonsense"],
    ],
    ids=[
        "suite-tol", "saddle-eval-tol", "eval-seed", "fc-seed", "saddle-build-seed",
        "saddle-eval-seed", "missing-x", "bad-choice", "no-command", "x-non-finite",
        "check-sublattice-invariance-tol", "check-negative-controls-tol",
        "eval-tol", "fc-tol", "eval-budget-square-mean", "eval-budget-abs-sum",
        "fc-budget-max-coord", "eval-budget-family", "fc-budget-family",
        "check-interchange-builtin", "check-rep-independence-builtin",
        "check-continuous-agreement-builtin", "check-sublattice-invariance-builtin",
        "check-saddle-builtin", "check-negative-controls-builtin",
        "check-interchange-builtin-nonsense",
    ],
)
def test_argument_errors_are_one_json_line_with_exit_2(capsys, tmp_path, argv):
    # every flag here was once accepted and never read (--tol on eval and fc
    # tuned a scan rule that is gone); the files are valid so that only the
    # flag can fail
    maps = list(angle_superlinear_family(8).maps)
    pair, saddle = tmp_path / "pair.json", tmp_path / "saddle.json"
    family = tmp_path / "family.json"
    pair.write_text(json.dumps({"phis": [map_to_json(disk_map())], "psis": [map_to_json(m) for m in maps]}))
    saddle.write_text(json.dumps(saddle_to_json(saddle_build([disk_map()], maps))))
    family.write_text(json.dumps({"family": {"kind": "usc", "maps": [map_to_json(disk_map())]}}))
    files = {"PAIR": str(pair), "SADDLE": str(saddle), "FAMILY": str(family)}
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["message"]


def test_eval_family_file(capsys, tmp_path):
    doc = {"family": {"kind": "usc", "maps": [map_to_json(disk_map())]}}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "eval", "--family", str(path), "--x", "3,4")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(5.0)


def test_saddle_build_and_eval(capsys, tmp_path):
    doc = {
        "phis": [map_to_json(disk_map())],
        "psis": [map_to_json(m) for m in angle_superlinear_family(8).maps],
    }
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(doc))
    saddle_path = tmp_path / "saddle.json"
    code, out, _ = run(capsys, "saddle-build", "--family", str(inp), "--out", str(saddle_path))
    assert code == 0
    assert saddle_path.read_text() == out
    code, out, _ = run(capsys, "saddle-eval", "--family", str(saddle_path), "--x", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["infsup"] == pytest.approx(1.0, abs=1e-9)
    assert doc["supinf"] == pytest.approx(doc["infsup"], abs=1e-9)


def test_non_finite_points_exit_2_with_nothing_on_stdout(capsys, tmp_path):
    saddle_path = tmp_path / "saddle.json"
    S = saddle_build([disk_map()], list(angle_superlinear_family(8).maps))
    saddle_path.write_text(json.dumps(saddle_to_json(S)))
    for argv in (
        ["eval", "--builtin", "example-7.1", "--x", "nan,1"],
        ["saddle-eval", "--family", str(saddle_path), "--x", "inf,0"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "finite" in json.loads(err)["error"]["message"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "x, value",
    [("1e-300,3e300", 3e300), ("1e-300,1e-300", 1.4142135623730951e-300)],
)
def test_square_mean_at_extreme_magnitudes(capsys, x, value):
    # Squares of these coordinates overflow or underflow unless rescaled.
    code, out, err = run(capsys, "eval", "--builtin", "square-mean", "--x", x)
    assert code == 0 and err == ""
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["value"] == pytest.approx(value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--builtin", "square-mean", "--x", "1.7e308,1.7e308"],
        ["eval", "--builtin", "abs-sum", "--x", "1.7e308,1.7e308"],
        ["fc", "--builtin", "square-mean", "--f", "1.7e308,1", "--f", "1.7e308,1"],
        ["saddle-eval", "--family", "SADDLE", "--x", "1.7e308,1.7e308"],
    ],
    ids=["eval-square-mean", "eval-abs-sum", "fc-square-mean", "saddle-eval"],
)
def test_values_beyond_the_float_range_exit_3(capsys, tmp_path, argv):
    # the true values (about 2.4e308 and 3.4e308) exceed the largest float
    saddle_path = tmp_path / "saddle.json"
    S = saddle_build([disk_map()], list(angle_superlinear_family(8).maps))
    saddle_path.write_text(json.dumps(saddle_to_json(S)))
    argv = [str(saddle_path) if a == "SADDLE" else a for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "outside the float range" in json.loads(err)["error"]["message"]
    assert [str(w.message) for w in caught] == []


def test_saddle_build_not_ordered_exits_3(capsys, tmp_path):
    doc = {
        "phis": [{"sublinear": {"subdiff": {"ball": {"center": [0.0, 0.0], "radius": 0.5}}}}],
        "psis": [{"superlinear": {"superdiff": {"polytope": {"vertices": [[1.0, 0.0]]}}}}],
    }
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(doc))
    code, out, err = run(capsys, "saddle-build", "--family", str(inp))
    assert code == 3
    assert "error" in err


def test_unknown_builtin_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--builtin", "nope", "--x", "1,1")
    assert code == 2
    assert "unknown name" in err


def test_bad_vector_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--builtin", "example-7.1", "--x", "1,zap")
    assert code == 2


def test_schema_violation_reports_source_and_path(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"family": {"kind": "usc", "maps": [{"nonsense": {}}]}}))
    code, _, err = run(capsys, "eval", "--family", str(path), "--x", "1,1")
    assert code == 2
    doc = json.loads(err)
    assert "fam.json" in doc["error"]["message"]
    assert "maps[0]" in doc["error"]["message"]


def test_dimension_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--builtin", "example-7.1", "--x", "1,2,3")
    assert code == 2


def test_check_command_and_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "negative-controls")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "negative-controls" and doc["passed"] is True

    code, out, _ = run(capsys, "check", "rep-independence", "--tol", "1e-12")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_check_engine_vs_oracle_builtin_flag(capsys):
    code, out, _ = run(capsys, "check", "engine-vs-oracle", "--builtin", "example-7.2")
    assert code == 0
    assert json.loads(out)["name"] == "engine-vs-oracle[example-7.2]"


def test_seed_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv("HOMOCALC_SEED", "17")
    code, out, _ = run(capsys, "check", "interchange")
    assert code == 0
    assert json.loads(out)["seed"] == 17
    monkeypatch.setenv("HOMOCALC_SEED", "not-a-number")
    code, _, err = run(capsys, "check", "interchange")
    assert code == 2


def test_seed_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("HOMOCALC_SEED", "17")
    code, out, _ = run(capsys, "check", "interchange", "--seed", "4")
    assert json.loads(out)["seed"] == 4


def test_output_bytes_identical_and_out_file(capsys, tmp_path):
    outfile = tmp_path / "r.json"
    code, out1, _ = run(capsys, "eval", "--builtin", "square-mean", "--x", "3,4", "--out", str(outfile))
    assert code == 0
    assert outfile.read_text() == out1
    _, out2, _ = run(capsys, "eval", "--builtin", "square-mean", "--x", "3,4")
    assert out1 == out2


def test_budget_flag_limits_generated_builtin(capsys):
    # (1, -1e-30) reaches its bound 0 only at member 5250, so the budget
    # ends the scan
    code, out, _ = run(
        capsys, "eval", "--builtin", "example-7.1", "--x", "1,-1e-30", "--budget", "50"
    )
    assert code == 0
    assert json.loads(out)["diagnostics"]["family_terms_used"] == 50


@pytest.mark.parametrize(
    "name, x, want", [("example-7.1", "1,-1e-30", 0.0), ("example-7.2", "1,1e-30", 1.0)]
)
def test_near_axis_values_match_the_closed_form(capsys, name, x, want):
    code, out, _ = run(capsys, "eval", "--builtin", name, "--x", x)
    assert code == 0
    assert json.loads(out)["value"] == want


def test_fc_requires_elements(capsys):
    code, _, err = run(capsys, "fc", "--builtin", "example-7.1")
    assert code == 2
