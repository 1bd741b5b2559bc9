#!/usr/bin/env python3
"""Steadiness check: repeat workloads with different seeds.

    python3 bench/steady.py [--workload lift ...] [--runs 10] [--seconds 30] [--first-seed 1]

Runs ``bench/run.py`` once per seed (first-seed, first-seed+1, ...) for each
workload named (default: every workload in BENCHMARK.json, each run in its
own process) and prints, for every end-to-end metric, the median and
quartiles of the runs and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json.  A metric is steady when its spread is
within a third of its bound; set-up time is reported but held only to its
bound.  Each summary is also written to ``bench/out/steady-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def steady(spec, workload, runs, seconds, first_seed):
    """Run one workload `runs` times; True when every metric is steady."""
    results = []
    for seed in range(first_seed, first_seed + runs):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return False
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(result["metrics"].items()))
        print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']} {values}",
              flush=True)

    summary = {"workload": workload, "runs": runs, "seconds": seconds,
               "failed_share": sorted({r["failed"] / r["attempted"] for r in results}), "metrics": {}}
    ok_all = True
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        ok = spread <= m["bound"] if m["name"] == "setup_s" else spread <= m["bound"] / 3
        ok_all &= ok
        summary["metrics"][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                         "bound": m["bound"], "steady": ok}
        print(f"{m['name']:<14} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {m['bound']:>6}"
              f"{'' if ok else '  NOT STEADY'}")
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / f"steady-{workload}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return ok_all


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=names, help="repeatable; default: all")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 to have quartiles")
    ok = True
    for workload in args.workload or names:
        ok &= steady(spec, workload, args.runs, args.seconds, args.first_seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
