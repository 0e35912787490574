"""Machine-speed probe: a fixed task that does not use gamehedge.

    python3 perfbench/probe.py      # per line read (a CPU number): one probe
                                    # on that CPU, its seconds printed

The benchmark runs on shared machines whose speed drifts by tens of percent
within minutes; baseline.json records the wall-clock spreads that leaves.
A time multiplied by REFERENCE_S over a probe time measured next to it is in
reference-machine seconds, which cancels most of that drift.

The worker's probe runs in a process of its own, between jobs, while no job
runs, on the CPU the worker last ran on (the CPUs of a shared machine are
not equally loaded): nothing a job leaves in the worker (heap, freed
arenas, garbage collector state) reaches it, so a faster or slower
gamehedge moves the scaled times as it moves the wall times.  Each set-up interpreter runs the
probe after its own measurement.  The task is a cache-resident NumPy sort
and a pure-Python loop, then a backward sweep over a 1000-level triangle
with fresh per-level arrays.
"""

import os
import statistics
import sys
import time

import numpy as np

# Probe time that defines the reference machine, rounded from the median
# probe times (0.0299-0.0315 s) of the worker's probe process in five
# sweep_deep runs on a 2-core x86-64 container, Python 3.11.7, NumPy 2.4.6;
# the medians of the baseline runs are in baseline.json.  Fixed for good,
# so that runs of different commits stay comparable.
REFERENCE_S = 0.030

_DATA = np.random.default_rng(0).random(200_000)


def machine_probe() -> float:
    """Seconds for the fixed task."""
    t0 = time.perf_counter()
    for _ in range(8):
        np.sort(_DATA)
        sum(i * i for i in range(2000))
    levels = [np.zeros(k + 1) for k in range(1001)]
    y = np.linspace(0.0, 1.0, 1001)
    for k in range(999, -1, -1):
        y = np.clip(0.5 * (y[1:] + y[:-1]) + 1e-3 * (y[1:] - y[:-1]), 0.1, 0.9)
        levels[k][:] = y
    return time.perf_counter() - t0


def median_probe() -> float:
    """Median of three probes; the first one in a fresh process runs cold."""
    return statistics.median(machine_probe() for _ in range(3))


if __name__ == "__main__":
    for line in sys.stdin:
        os.sched_setaffinity(0, {int(line)})
        print(repr(machine_probe()), flush=True)
