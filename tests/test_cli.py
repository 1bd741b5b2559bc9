import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from homocalc import cli
from homocalc.cli import main
from homocalc.convexsets import Ball, VPolytope
from homocalc.documents import map_to_json, saddle_to_json
from homocalc.fcalc import SaddleFamily, saddle_build, saddle_eval
from homocalc.homog import (
    PHFunction,
    SublinearMap,
    SuperlinearMap,
    WitnessFamily,
    angle_superlinear_family,
    builtin,
    disk_map,
)


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


# At the columns (1, -1e-30) and (1, 1e-30) the witnesses of examples 7.1
# and 7.2 are the members (1, 2^100) and (1, 2^100), far down any
# enumeration of their families; these pins hold the value there and
# family_terms_used too.
FC_TUPLE = ("--f", "3,1,1,0,-2,1e300", "--f", "4,-1e-30,1e-30,0,5,3e300")


@pytest.mark.parametrize(
    "name, digest",
    [
        ("example-7.1", "91eeab69a8ad00cf3bae4af89d568fcd912a8bb42783ae1bc97f08846a75c3aa"),
        ("example-7.2", "08e08264ca999cbbd0353ecc25a29eaa8fd6d783a23968c0345e9ebb1175ceec"),
        ("square-mean", "50f839d98524d2f958a045823d4978c726c13248d90b88893510faae35c9795f"),
        ("abs-sum", "b7aeaeeceee2b103b4ae8718a0495b271efe3b8d7a890b6dcb13590075fe2135"),
        ("max-coord", "3e7ce5021a63ea6fc267fbe10ace18fb1ea1b48ce2c5d1d864c33653a5e0097e"),
    ],
)
def test_fc_stdout_is_pinned(capsys, name, digest):
    code, out, _ = run(capsys, "fc", "--builtin", name, *FC_TUPLE)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_far_ratio_lift_prints_the_closed_form(capsys):
    # at (1e300, -7) the attaining member (1, 2^994) lies far beyond any
    # enumeration an engine could scan, and the witness names it directly
    code, out, err = run(capsys, "fc", "--builtin", "example-7.1", "--f", "1e300", "--f=-7")
    doc = json.loads(out)
    assert (code, err) == (0, "")
    assert doc == {"diagnostics": {"family_terms_used": 1, "max_residual": 0.0}, "element": {"rm": [0.0]}}


def test_witness_that_misses_its_bound_exits_3(capsys, monkeypatch):
    # a family whose witness, member (1, 1) of example 7.1 (exponents 0, 0)
    # everywhere, is not the member that attains its floor at x > 0 > y
    family = builtin("example-7.1").inf_family

    def exponents_zero(X):
        return np.zeros(X.shape, dtype=int)

    lazy = WitnessFamily(exponents_zero, family.member_fn, family.bound_fn)
    monkeypatch.setattr(cli, "builtin", lambda name: PHFunction(name, 2, inf_family=lazy))
    code, out, err = run(capsys, "eval", "--builtin", "example-7.1", "--x", "1,-1e-30")
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "misses the family's bound" in json.loads(err)["error"]["message"]


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


# the checks that read --tol, and values it must refuse
_TOL_CHECKS = ("engine-vs-oracle", "interchange", "rep-independence", "continuous-agreement", "saddle")
_BAD_TOLS = ("nan", "inf", "-1")


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
        ["eval", "--builtin", "example-7.1", "--x", "1,-1e-30", "--budget", "50"],
        ["fc", "--builtin", "example-7.2", "--f", "1", "--f", "2", "--budget", "1"],
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
        *[["check", name, f"--tol={tol}"] for name in _TOL_CHECKS for tol in _BAD_TOLS],
        *[["saddle-build", "--family", "PAIR", f"--tol={tol}"] for tol in _BAD_TOLS],
    ],
    ids=[
        "suite-tol", "saddle-eval-tol", "eval-seed", "fc-seed", "saddle-build-seed",
        "saddle-eval-seed", "missing-x", "bad-choice", "no-command", "x-non-finite",
        "check-sublattice-invariance-tol", "check-negative-controls-tol",
        "eval-tol", "fc-tol", "eval-budget-example-7.1", "fc-budget-example-7.2",
        "eval-budget-square-mean", "eval-budget-abs-sum",
        "fc-budget-max-coord", "eval-budget-family", "fc-budget-family",
        "check-interchange-builtin", "check-rep-independence-builtin",
        "check-continuous-agreement-builtin", "check-sublattice-invariance-builtin",
        "check-saddle-builtin", "check-negative-controls-builtin",
        "check-interchange-builtin-nonsense",
        *[f"check-{name}-tol-{tol}" for name in _TOL_CHECKS for tol in _BAD_TOLS],
        *[f"saddle-build-tol-{tol}" for tol in _BAD_TOLS],
    ],
)
def test_argument_errors_are_one_json_line_with_exit_2(capsys, tmp_path, argv):
    # every flag here was once accepted and never read, or read by an engine
    # that is gone (--tol on eval and fc tuned a scan rule, --budget cut an
    # enumeration); the files are valid so that only the flag can fail
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


@pytest.mark.parametrize(
    "command, digest",
    [
        ("eval", "13cd262f37b9e783ee79fc54ebd42183c2be1528970c735d99b793d9c2ca72f2"),
        ("fc", "d19794bbfd9fdd3c01a090455aeba48babbb90d9ba0321285d15d51ecaaadb88"),
        ("saddle-build", "b2f75148ce4dab3882776553fe6d58a3d43d3686c1a0cef6b5638c9f008e5394"),
        ("saddle-eval", "d62b06e1f912cafd92e57336d4f079c99db9c2f0225b27da461369a124ff8718"),
        ("check", "45f14ccbf1eacd2b8b9f6632085998603a6bf03fad4920a7b2a8657e2dfde2d3"),
        ("suite", "644ea4ca6710618df945cb556ae32fb1db711cd95b5f6c75d750e7f7ca17ff89"),
    ],
)
def test_subcommand_help_is_pinned(capsys, monkeypatch, command, digest):
    # each command's own arguments come before the shared options, in the
    # usage line and in the list; argparse wraps the text at $COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_eval_family_file(capsys, tmp_path):
    doc = {"family": {"kind": "usc", "maps": [map_to_json(disk_map())]}}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "eval", "--family", str(path), "--x", "3,4")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(5.0)


def test_a_zero_tie_gets_the_member_order_zero_alone_and_in_a_batch(capsys, tmp_path):
    # nine linear maps x -> s x, s = 1 eight times and then -1: at x = 0 the
    # members tie at +0 and -0, and the later member's -0.0 wins, whether
    # the column is alone (eval) or one of two (fc)
    signs = [1.0] * 8 + [-1.0]
    doc = {"family": {"kind": "usc", "maps": [map_to_json(SublinearMap(VPolytope([[s]]))) for s in signs]}}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "eval", "--family", str(path), "--x", "0")
    assert code == 0 and '"value": -0.0' in out
    alone = json.loads(out)["value"]
    code, out, _ = run(capsys, "fc", "--family", str(path), "--f", "0,1")
    assert code == 0
    in_batch = json.loads(out)["element"]["rm"][0]
    assert alone.hex() == in_batch.hex() == (-0.0).hex()
    # the same coefficients as a 1 x 9 saddle: one point alone, and the
    # same point in a request of two
    saddle_path = tmp_path / "saddle.json"
    S = SaddleFamily(np.array(signs).reshape(1, 9, 1))
    saddle_path.write_text(json.dumps(saddle_to_json(S)))
    code, out, _ = run(capsys, "saddle-eval", "--family", str(saddle_path), "--x", "0")
    assert code == 0
    doc = json.loads(out)
    infsup, supinf = saddle_eval(S, [[0.0], [1.0]])
    assert [doc["infsup"].hex(), doc["supinf"].hex()] == [infsup[0].hex(), supinf[0].hex()] == [(-0.0).hex()] * 2


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


@pytest.mark.parametrize("side", ["phis", "psis"])
def test_saddle_build_maps_on_the_wrong_side_exit_2(capsys, tmp_path, side):
    sub = {"sublinear": {"subdiff": {"polytope": {"vertices": [[1, 0]]}}}}
    sup = {"superlinear": {"superdiff": {"polytope": {"vertices": [[1, 0]]}}}}
    doc = {"phis": [sup], "psis": [sup]} if side == "phis" else {"phis": [sub], "psis": [sub]}
    inp = tmp_path / "wrong.json"
    inp.write_text(json.dumps(doc))
    code, out, err = run(capsys, "saddle-build", "--family", str(inp))
    assert (code, out) == (2, "")
    kind = "sublinear" if side == "phis" else "superlinear"
    assert json.loads(err) == {
        "error": {"message": f"{inp}: {side}[0]: expected a {kind} map", "operation": "load"}
    }
    assert err.count("\n") == 1


def test_saddle_build_not_ordered_exits_3(capsys, tmp_path):
    doc = {
        "phis": [{"sublinear": {"subdiff": {"ball": {"center": [0.0, 0.0], "radius": 0.5}}}}],
        "psis": [{"superlinear": {"superdiff": {"polytope": {"vertices": [[1.0, 0.0]]}}}}],
    }
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(doc))
    code, out, err = run(capsys, "saddle-build", "--family", str(inp))
    assert (code, out) == (3, "")
    # the sets' distance, the largest psi - phi on the sphere: the vertex's
    # unit length against the ball's radius
    assert err == (
        '{"error": {"message": "psi0 exceeds phi0: the sets are 5.000e-01 apart, above 1.0e-09", '
        '"operation": "saddle_build"}}\n'
    )


def _nested_families(seed, n, push):
    """(phis, psis) around a random simplex in R^n.  The phis are the
    simplex, a copy blown up about its centroid and a ball holding it; the
    psis are a shrunken copy, the centroid as a radius-0 ball and one
    vertex, which meets every phi set.  With push the vertex moves 1e-5 of
    its distance from the centroid outwards: far above the default
    tolerance, and far below 1e-3 of the sets' scale, since the ball's
    |centre| + radius is at least 1.25 times that distance."""
    rng = np.random.default_rng([seed, n])
    core = rng.uniform(-1.0, 1.0, (n + 1, n))
    cen = core.mean(axis=0)
    reach = float(np.linalg.norm(core - cen, axis=1).max())
    phis = [VPolytope(core), VPolytope(cen + 1.5 * (core - cen)), Ball(cen, 1.25 * reach)]
    tip = cen + (1.0 + (1e-5 if push else 0.0)) * (core[0] - cen)
    psis = [VPolytope(cen + 0.5 * (core - cen)), Ball(cen, 0.0), VPolytope([tip])]
    return [SublinearMap(s) for s in phis], [SuperlinearMap(s) for s in psis]


_SADDLE_BUILD_SHA256 = "ef7762b5fcbbd7d89c21fab1193c6f317f09bc6d0e058e5666b5bfb4b943cb32"


def test_saddle_build_stdout_and_exit_codes_are_pinned(capsys, tmp_path):
    # The disk against 32 tangents and nested families in R^2-R^5, each at
    # the default tolerance and at 0, 1e-12 and 1e-3.  Stderr is left out,
    # since it carries the wording of errors.  At --tol 0 an ordered pair
    # that meets can exit 3: the distance Wolfe's method finds for touching
    # sets may be a rounding residue of about 1e-16 above 0, so the
    # verdict there pins that residue, which no ordering check changes.
    cases = [([disk_map()], list(angle_superlinear_family(32).maps))]
    cases += [_nested_families(seed, n, push) for seed, n in enumerate(range(2, 6)) for push in (False, True)]
    sha, codes = hashlib.sha256(), []
    for k, (phis, psis) in enumerate(cases):
        inp = tmp_path / f"pair{k}.json"
        inp.write_text(json.dumps({"phis": [map_to_json(m) for m in phis], "psis": [map_to_json(m) for m in psis]}))
        for tol in ([], ["--tol", "0"], ["--tol", "1e-12"], ["--tol", "1e-3"]):
            code, out, _ = run(capsys, "saddle-build", "--family", str(inp), *tol)
            codes.append(code)
            sha.update(f"{code}\n{out}".encode())
    # default, 0, 1e-12, 1e-3: the disk builds at each; a nested family
    # exits 3 only at 0, and a pushed one builds only at 1e-3
    assert codes == [0, 0, 0, 0] + [0, 3, 0, 0, 3, 3, 3, 0] * 4
    assert sha.hexdigest() == _SADDLE_BUILD_SHA256


@pytest.mark.parametrize(
    "phis, psis, code, message",
    [
        (
            [{"polytope": {"vertices": [[1e308, 1e308], [-1e308, -1e308], [1e308, -1e308]]}}],
            [{"polytope": {"vertices": [[-1e308, 1e308], [1e308, 1e308]]}}],
            0,
            None,
        ),
        (
            [{"ball": {"center": [1.7e308, 0.0], "radius": 1.0}}],
            [{"ball": {"center": [-1.7e308, 0.0], "radius": 1.0}}],
            3,
            "psi0 exceeds phi0: the sets are inf apart, above 1.7e+299",
        ),
        (
            [{"polytope": {"vertices": [[1.5e308, 1.5e308]]}}],
            [{"polytope": {"vertices": [[1.5e308, 1.5e308]]}}],
            3,
            "the largest |a| over the maps' sets is outside the float range",
        ),
    ],
    ids=["polytopes-meeting-at-1e308", "balls-at-1.7e308", "vertex-norm-beyond-the-float-range"],
)
def test_extreme_saddle_documents_under_warnings_as_errors(tmp_path, phis, psis, code, message):
    # the first pair meets at (1e308, 1e308), though its vertex differences
    # overflow; in the second, the centres' distance overflows; in the
    # third, the vertex's norm, and so the maps' values on the unit sphere,
    # leave the float range.  Under python -W error a numpy warning would
    # end the process in a traceback.
    doc = {
        "phis": [{"sublinear": {"subdiff": s}} for s in phis],
        "psis": [{"superlinear": {"superdiff": s}} for s in psis],
    }
    inp = tmp_path / "family.json"
    inp.write_text(json.dumps(doc))
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "homocalc", "saddle-build", "--family", str(inp)],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == code
    if code == 0:
        assert done.stderr == ""
        out = json.loads(done.stdout, parse_constant=_reject_constant)
        assert out["saddle"]["coeffs"] == [[[1e308, 1e308]]]
    else:
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1
        err = json.loads(done.stderr, parse_constant=_reject_constant)
        assert err == {"error": {"message": message, "operation": "saddle_build"}}


def test_two_balls_meeting_at_1e308_build_under_warnings_as_errors(tmp_path):
    # the middle of the stretch both balls hold lies at 1e308, though the
    # sum of its ends overflows
    doc = {
        "phis": [{"sublinear": {"subdiff": {"ball": {"center": [0.0, 0.0], "radius": 1.5e308}}}}],
        "psis": [{"superlinear": {"superdiff": {"ball": {"center": [1e308, 0.0], "radius": 0.0}}}}],
    }
    inp = tmp_path / "family.json"
    inp.write_text(json.dumps(doc))
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "homocalc", "saddle-build", "--family", str(inp)],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    out = json.loads(done.stdout, parse_constant=_reject_constant)
    assert out["saddle"]["coeffs"] == [[[1e308, 0.0]]]


def test_unknown_builtin_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--builtin", "nope", "--x", "1,1")
    assert code == 2
    assert "unknown name" in err


def test_bad_vector_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--builtin", "example-7.1", "--x", "1,zap")
    assert code == 2


# the errors that mean a numerical failure on valid input; every other
# CalculusError is an input error
NUMERICAL_ERRORS = {
    "NoConvergence", "EmptyIntersection", "NonFiniteResult", "UnattainedBound",
    "EnvelopeViolation", "NotOrdered", "SaddleGap",
}


def _leaf_errors():
    from homocalc import errors

    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.CalculusError)]
    return sorted((c for c in classes if not c.__subclasses__()), key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", _leaf_errors(), ids=lambda c: c.__name__)
def test_each_error_class_sets_the_exit_status(capsys, monkeypatch, cls):
    error = cls("src", "path", "reason") if cls.__name__ == "SchemaError" else cls("op", "reason")

    def fail(h, x):
        raise error

    monkeypatch.setattr(cli, "eval_family_detailed", fail)
    code, out, err = run(capsys, "eval", "--builtin", "abs-sum", "--x", "1,2")
    assert (code, out) == (3 if cls.__name__ in NUMERICAL_ERRORS else 2, "")
    want = {"error": {"message": error.message, "operation": error.operation}}
    assert err == json.dumps(want, sort_keys=True) + "\n"


def test_every_numerical_error_is_a_leaf_class():
    assert NUMERICAL_ERRORS <= {c.__name__ for c in _leaf_errors()}


def test_builtin_outside_maps_exits_2(capsys, tmp_path):
    inp = tmp_path / "short.json"
    inp.write_text(json.dumps({"family": {"builtin": "abs-sum"}}))
    code, out, err = run(capsys, "eval", "--family", str(inp), "--x", "1,2")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["message"].startswith(f"{inp}: family.kind: ")


def _usc(subdiff):
    return {"family": {"kind": "usc", "maps": [{"sublinear": {"subdiff": subdiff}}]}}


def test_schema_violation_reports_source_and_path(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"family": {"kind": "usc", "maps": [{"nonsense": {}}]}}))
    code, _, err = run(capsys, "eval", "--family", str(path), "--x", "1,1")
    assert code == 2
    doc = json.loads(err)
    assert "fam.json" in doc["error"]["message"]
    assert "maps[0]" in doc["error"]["message"]


@pytest.mark.parametrize(
    "command, doc, where",
    [
        (["eval", "--x", "1,2"], {"family": {"kind": "usc", "maps": []}}, "family.maps: expected a nonempty list"),
        (["eval", "--x", "1,2"], {"maps": []}, "$: expected a 'family' object"),
        (["saddle-eval", "--x", "1,0"], {"saddle": {"coeffs": [[1.0, 2.0]]}}, "saddle.coeffs: expected shape (P, Q, n)"),
        (["saddle-eval", "--x", "1,0"], {"coeffs": []}, "$: expected a 'saddle' object"),
        # a string or a boolean is no number, as in every other loader
        (["saddle-eval", "--x", "2,3"], {"saddle": {"coeffs": [[["1", True]]]}}, "saddle.coeffs: expected a list of numbers"),
        # a saddle of dimension 0 is refused as it loads, before --x is read
        (["saddle-eval", "--x", "1"], {"saddle": {"coeffs": [[[]]]}}, "saddle.coeffs: need dimension n >= 1, got shape (1, 1, 0)"),
        # a set's own check on a value that parses as a number is at the set's body
        (["eval", "--x", "1,2"], _usc({"ball": {"center": [0.0, 0.0], "radius": float("nan")}}), "family.maps[0].sublinear.subdiff.ball: radius must be finite and >= 0"),
        (["eval", "--x", "1,2"], _usc({"ball": {"center": [], "radius": 1.0}}), "family.maps[0].sublinear.subdiff.ball: center must be a nonempty finite vector"),
        (["eval", "--x", "1,2"], _usc({"polytope": {"vertices": [[1.0, float("inf")]]}}), "family.maps[0].sublinear.subdiff.polytope: vertices must be finite"),
        (["eval", "--x", "1,2"], _usc({"polytope": {"vertices": [[]]}}), "family.maps[0].sublinear.subdiff.polytope: vertex array must be nonempty with shape (k, n)"),
        (["saddle-build"], {"phis": [], "psis": [{"superlinear": {"superdiff": {"ball": {"center": [0.0], "radius": float("inf")}}}}]}, "psis[0].superlinear.superdiff.ball: radius must be finite and >= 0"),
    ],
    ids=[
        "family-maps", "family-missing", "saddle-coeffs", "saddle-missing", "saddle-coeffs-not-numbers", "saddle-dim-0",
        "ball-radius-nan", "ball-center-empty", "polytope-vertex-inf", "polytope-vertex-empty", "pair-ball-radius-inf",
    ],
)
def test_schema_error_paths_start_at_the_document_root(capsys, tmp_path, command, doc, where):
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(doc))
    code, out, err = run(capsys, command[0], "--family", str(inp), *command[1:])
    assert (code, out) == (2, "")
    want = {"error": {"message": f"{inp}: {where}", "operation": "load"}}
    assert err == json.dumps(want, sort_keys=True) + "\n"


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


@pytest.mark.parametrize("command", [["eval", "--builtin", "abs-sum", "--x", "1,2"], ["suite"]], ids=["eval", "suite"])
def test_a_failed_out_write_exits_2_with_nothing_on_stdout(capsys, tmp_path, command):
    outfile = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, *command, "--out", str(outfile))
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["operation"] == command[0] and error["message"].startswith(f"cannot write {outfile}: ")


@pytest.mark.parametrize(
    "text",
    [b'{"family": ', ("[" * 200_000 + "]" * 200_000).encode(), b'{"family": "\xff"}'],
    ids=["malformed", "too-deep", "not-utf-8"],
)
@pytest.mark.parametrize("command", [["eval", "--x", "1,2"], ["saddle-eval", "--x", "1,2"]], ids=["eval", "saddle-eval"])
def test_unreadable_json_text_is_a_schema_error_at_the_root(capsys, tmp_path, text, command):
    inp = tmp_path / "bad.json"
    inp.write_bytes(text)
    code, out, err = run(capsys, command[0], "--family", str(inp), *command[1:])
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["operation"] == "load" and error["message"].startswith(f"{inp}: $: invalid JSON: ")


@pytest.mark.parametrize(
    "name, x, want",
    [
        ("example-7.1", "1,-1e-30", 0.0),
        ("example-7.2", "1,1e-30", 1.0),
        # witnesses (1, 2^333) and (1, 2^432), past any enumeration's reach
        ("example-7.1", "1,-1e-100", 0.0),
        ("example-7.2", "1,1e-130", 1.0),
    ],
)
def test_near_axis_values_match_the_closed_form(capsys, name, x, want):
    code, out, err = run(capsys, "eval", "--builtin", name, "--x", x)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"diagnostics": {"family_terms_used": 1}, "value": want}


def test_fc_requires_elements(capsys):
    code, _, err = run(capsys, "fc", "--builtin", "example-7.1")
    assert code == 2


# fc with two different --f lists, a bad flag, then eval: the parser serves
# every call of a process, so neither the append default of --f nor a parse
# error may leave anything behind for the next call
_SEQUENCE = (
    ("fc", "--builtin", "example-7.2", "--f", "2,5,-1", "--f", "3,-1,1"),
    ("fc", "--builtin", "example-7.2", "--f", "1,0", "--f=-4,2"),
    ("fc", "--builtin", "example-7.2", "--f", "1,0", "--bogus", "1"),
    ("eval", "--builtin", "example-7.1", "--x", "3,-1"),
)


def test_calls_in_one_process_print_what_fresh_processes_print(capsys):
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for argv in _SEQUENCE:
        fresh = subprocess.run(
            [sys.executable, "-m", "homocalc", *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert [run(capsys, *argv)[0] for argv in _SEQUENCE] == [0, 0, 2, 0]
