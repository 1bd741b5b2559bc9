#!/usr/bin/env python3
"""homocalc benchmark: one workload per process, speed-corrected timings.

    python3 bench/run.py --workload lift --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
same object, with raw (uncorrected) reference figures added, is written to
``bench/out/``, and a traced run also writes its per-function trace there.
See README.md for the workloads, the metrics and the speed correction.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS must be pinned to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# names only: importing workloads.py loads numpy and homocalc, which set-up times
WORKLOADS = ("lift", "convex-saddle", "suite-cli")
SETUP_PROBES = 5
# operations per traced run, whole rounds; fixed so that counts repeat
TRACE_OPS = {"lift": 12, "convex-saddle": 12, "suite-cli": 4}
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_source():
    src = ROOT / "src"
    if not (src / "homocalc" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no homocalc sources under {src}")
    sys.path.insert(0, str(src))


def _setup_probe(args):
    """Child process: time imports plus the workload's set-up, then the reference loop."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.make(args.workload, args.seed, OUT)
    wall = time.perf_counter() - t0
    wl.close()
    from reference import reference_loop

    ref = statistics.median(reference_loop() for _ in range(9))
    print(json.dumps({"wall_s": wall, "ref_s": ref}))


def _measure_setup(args):
    """Median speed-corrected set-up time over SETUP_PROBES fresh processes."""
    from reference import NOMINAL_S

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    corrected, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise SystemExit(f"run.py: set-up probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(probe["wall_s"])
        corrected.append(probe["wall_s"] * NOMINAL_S / probe["ref_s"])
    return statistics.median(corrected), statistics.median(raw)


def attempt(wl, inp, corrupt=None, loops=3):
    """Run one operation between two reference blocks and check its result.

    Returns (speed-corrected seconds, speed factor, problems, result, wall
    seconds).  ``corrupt``, when given, alters the result before it is
    checked; the benchmark's own tests use it to show that the checks can
    fail.
    """
    from reference import reference_block, speed_factor

    before = reference_block(loops)
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
        error = None
    except Exception as exc:  # a raising operation is a failed one; the run goes on
        out, error = None, exc
    wall = time.perf_counter() - t0
    factor = speed_factor(before, reference_block(loops))
    if error is not None:
        problems = [f"raised {type(error).__name__}: {error}"]
    else:
        if corrupt is not None:
            corrupt(out)
        problems = wl.check(inp, out)
    return wall * factor, factor, problems, out, wall


class Phase:
    """Operations of one measuring phase: whole rounds of wl.round_size."""

    def __init__(self):
        self.times, self.raw, self.factors = [], [], []
        self.attempted = self.failed = self.stdout_bytes = 0

    def run(self, wl, seconds=None, ops=None, tracer=None):
        """Run operations 0, 1, ... for `seconds`, or exactly `ops` of them."""
        from reference import block_loops

        start = time.perf_counter()
        i = 0
        loops = block_loops(0.3)
        while (ops is None and time.perf_counter() - start < seconds) or (ops is not None and i < ops):
            for _ in range(wl.round_size):
                inp = wl.make_input(i)
                if tracer is not None:
                    tracer.current_op = len(self.factors)
                corrected, factor, problems, out, wall = attempt(wl, inp, loops=loops)
                loops = block_loops(wall)
                if tracer is not None:
                    tracer.current_op = -1
                self.attempted += 1
                self.factors.append(factor)
                if problems:
                    self.failed += 1
                    sys.stderr.write(f"operation {i} failed: {'; '.join(problems)[:2000]}\n")
                else:
                    self.times.append(corrected)
                    self.raw.append(corrected / factor)
                    self.stdout_bytes += wl.stdout_bytes(out)
                i += 1
        return self

    def p50_ms(self):
        return statistics.median(self.times) * 1e3 if self.times else float("nan")


def _timed(args, wl, setup):
    import tracing
    from reference import NOMINAL_S

    tracing.refuse_if_installed()
    gc.collect()
    phase = Phase().run(wl, seconds=args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup[0],
        "ops_per_s": len(phase.times) / sum(phase.times) if phase.times else 0.0,
        "op_p50_ms": phase.p50_ms(),
        "peak_rss_mb": peak_mb,
    }
    raw = {
        "setup_s": setup[1],
        "ops_per_s": len(phase.raw) / sum(phase.raw) if phase.raw else 0.0,
        "op_p50_ms": statistics.median(phase.raw) * 1e3 if phase.raw else float("nan"),
        "ref_ms_median": 1e3 * NOMINAL_S / statistics.median(phase.factors),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    return phase.attempted, phase.failed, metrics, raw


def _traced(args, wl):
    import tracing

    ops = TRACE_OPS[args.workload]
    tracing.refuse_if_installed()
    gc.collect()
    plain = Phase().run(wl, ops=ops)
    tracer = tracing.Tracer()
    tracer.install(wl.functions())
    try:
        gc.collect()
        traced = Phase().run(wl, ops=ops, tracer=tracer)
    finally:
        tracer.uninstall()
    values = tracing.layer_metrics(tracer, traced.factors, traced.stdout_bytes)
    values["trace.overhead_ms"] = traced.p50_ms() - plain.p50_ms()
    metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in tracing.PER_LAYER.items()}
    tracing.write_trace(OUT / f"trace-{args.workload}-seed{args.seed}.json", tracer, traced.factors, values)
    extra = {"untraced_op_p50_ms": plain.p50_ms(), "traced_op_p50_ms": traced.p50_ms()}
    return plain.attempted + traced.attempted, plain.failed + traced.failed, metrics, extra


def main(argv=None):
    args = _parse(argv)
    _import_source()
    if args.setup_probe:
        _setup_probe(args)
        return 0
    OUT.mkdir(exist_ok=True)
    setup = _measure_setup(args) if not args.trace else None
    import workloads

    wl = workloads.make(args.workload, args.seed, OUT)
    try:
        if args.trace:
            attempted, failed, metrics, extra = _traced(args, wl)
        else:
            attempted, failed, metrics, extra = _timed(args, wl, setup)
    finally:
        wl.close()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "raw": extra, "seconds": args.seconds}, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
