"""Machine-speed normalization of the benchmark's wall times.

A shared machine's speed drifts: a fixed pure-Python loop was measured
taking anywhere from 0.15 s to 0.27 s over one minute on a 2-vCPU VM,
and a run phase's raw throughput moved by up to 1.8x between runs a few
minutes apart with the program unchanged.  So every timed span is scaled
by how fast the machine ran a fixed reference loop around it::

    normalized = wall * REFERENCE_S / mean(loop time before, loop time after)

The reference loop is interpreter-bound work of the program's own kind
(string keys into a dict, set difference, sort, split and join), so it
slows and speeds up with the machine as the program does.  A figure
therefore moves when the program changes, not when the machine does;
it reads as seconds on a machine where the loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Seconds the reference loop takes on the reference machine (the loop's
#: median on the 2-vCPU VM the README's figures come from).
REFERENCE_S = 0.006


def _reference_loop() -> None:
    keys = {}
    for i in range(12_000):
        key = str(i)
        keys[key] = len(key) + i % 7
    kept = sorted(set(range(0, 24_000, 3)) - set(range(0, 24_000, 5)))
    " ".join(keys).split()
    del kept


def loop_seconds() -> float:
    """Median time of five runs of the reference loop (about 30 ms)."""
    times = []
    for _ in range(5):
        started = perf_counter()
        _reference_loop()
        times.append(perf_counter() - started)
    return statistics.median(times)


def normalized(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` scaled to the reference machine, given the loop times
    measured just before and just after it."""
    return wall_s * REFERENCE_S * 2 / (before_s + after_s)
