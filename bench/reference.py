"""Fixed reference loop used to correct timings for the machine's speed.

The loop is plain Python plus small numpy calls, the same mix of
interpreter work and short array operations that the workloads run, and it
never calls homocalc.  Each timed operation is bracketed by a block of loops
before and one after; its wall time is scaled by NOMINAL_S / (median loop
time over both blocks), so a machine that runs everything 30% slower for a
few seconds reports the same corrected time.  A block lasts about 5% of the
previous operation (3 to 20 loops): one 3-ms loop is jittered by scheduler
slices that a 300-ms operation averages out, so longer operations get longer
blocks, and the median drops a loop that a slice happened to hit.
"""

import statistics
import time

import numpy as np

# The loop's time on the reference machine (2-core x86-64 VM, Python 3.11,
# numpy 2.4) when the constant was fixed; runs there measure 2.5 to 3.0 ms.
# A fixed constant: corrected times are "seconds at the speed at which the
# loop takes exactly NOMINAL_S".
NOMINAL_S = 3.0e-3
_REPS = 190
_DATA = np.linspace(-3.0, 5.0, 512)


def reference_loop():
    """Run the loop once and return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_REPS):
        v = np.maximum(_DATA * ((i % 7) - 3.0), 0.0)
        run = np.minimum.accumulate(v[::-1])
        hits = np.nonzero(v > 2.0)[0]
        acc += float(run[-1]) + float(hits.size)
        for j in range(20):
            acc += (j * i) % 3
    elapsed = time.perf_counter() - t0
    if acc < 0.0:  # never true; keeps the work observable
        raise AssertionError("reference loop")
    return elapsed


def block_loops(op_wall_s):
    """Loops per block for an operation that took about op_wall_s."""
    return min(20, max(3, round(0.05 * op_wall_s / NOMINAL_S)))


def reference_block(loops):
    """Times of `loops` runs of the loop."""
    return [reference_loop() for _ in range(loops)]


def speed_factor(before, after):
    """Factor that turns wall seconds into speed-corrected seconds."""
    return NOMINAL_S / statistics.median(before + after)
