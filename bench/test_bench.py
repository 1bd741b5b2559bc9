"""The benchmark's own tests: its checks can fail, and every workload runs.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_source()

import homocalc as hc  # noqa: E402
import workloads  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::homocalc.RepresentationWarning")


def _nudge_rm(out):
    coords = np.array(out["rms"][0].coords)
    coords[17] += 1e-6
    out["rms"][0] = hc.RmElement(coords)


def _nudge_step_by_one_ulp(out):
    f = out["steps"][3]
    values = np.array(f.values)
    values[5] = np.nextafter(values[5], np.inf)
    out["steps"][3] = hc.StepFunction(f.breakpoints, values)


def _shift_coefficient(out):
    coeffs, lifted = out[1]
    coeffs = np.array(coeffs)
    coeffs[2, 3] += 0.05
    out[1] = (coeffs, lifted)


def _shift_lifted_value(out):
    coeffs, lifted = out[0]
    out[0] = (coeffs, lifted + np.eye(lifted.size)[0] * 1e-6)


def _fail_the_suite(out):
    argv, code, stdout, stderr = out[0]
    out[0] = (argv, code, stdout.replace('"passed": true', '"passed": false', 1), stderr)


def _change_an_eval_value(out):
    argv, code, stdout, stderr = out[1]
    doc = json.loads(stdout)
    doc["value"] += 1e-6
    out[1] = (argv, code, json.dumps(doc, indent=2, sort_keys=True) + "\n", stderr)


CORRUPTIONS = [
    ("lift", _nudge_rm),
    ("lift", _nudge_step_by_one_ulp),
    ("convex-saddle", _shift_coefficient),
    ("convex-saddle", _shift_lifted_value),
    ("suite-cli", _fail_the_suite),
    ("suite-cli", _change_an_eval_value),
]


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """One set-up and one input per workload, shared by the tests below."""
    workdir = tmp_path_factory.mktemp("bench")
    built = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, 0, workdir)
        built[name] = (wl, wl.make_input(0))
    yield built
    for wl, _ in built.values():
        wl.close()


@pytest.mark.parametrize("name,corrupt", CORRUPTIONS, ids=[f"{w}-{c.__name__}" for w, c in CORRUPTIONS])
def test_a_corrupted_result_is_a_failed_operation(made, name, corrupt):
    wl, inp = made[name]
    *_, problems, _, _ = run.attempt(wl, inp)
    assert problems == []
    *_, problems, _, _ = run.attempt(wl, inp, corrupt=corrupt)
    assert problems, f"{corrupt.__name__} went undetected"


def test_changed_bytes_for_a_repeated_request_are_caught(made):
    wl, inp = made["suite-cli"]

    def add_a_space(out):
        argv, code, stdout, stderr = out[2]
        out[2] = (argv, code, stdout.replace(":", " :", 1), stderr)

    *_, problems, _, _ = run.attempt(wl, inp, corrupt=add_a_space)
    assert problems and all("bytes differ" in p for p in problems)


def test_a_raising_operation_is_a_failed_operation(made):
    wl, inp = made["lift"]
    *_, problems, out, _ = run.attempt(wl, {**inp, "rms": inp["rms"][:1]})
    assert out is None and problems and problems[0].startswith("raised DimensionMismatch")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [*spec["command"], "--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = ["python3", "bench/run.py", "--workload", "lift", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
