"""A fixed reference routine that measures how fast the host runs right now.

The benchmark host is shared: the speed of the same Python code drifts by up
to ±25% over tens of seconds, longer than a run, so raw times of one run say
as much about the neighbours as about pathidem. Every time the benchmark
reports is therefore scaled by NOMINAL_S / r, where r is the duration of
`reference()` measured just before the timed work. The routine is the
benchmark's own code and calls nothing in pathidem, so a change to pathidem
moves the scaled times exactly as it moves the raw ones, while a slow phase
of the host moves both the work and r. It mixes integer arithmetic with
tuple and dict allocation and a sort, which is what the library spends its
time on. Scaled times read as seconds on the host the bounds were set on, at
its typical speed; run.py prints the raw times too.
"""

from __future__ import annotations

import gc
import statistics
import time

# median duration of reference() on the 2-CPU host the bounds were set on
NOMINAL_S = 0.003


def reference() -> int:
    total = 0
    for i in range(12000):
        total += i * i % 7
    counts: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + (i * 31) % 7
    return total + len(sorted(counts.items(), key=lambda kv: (kv[1], kv[0])))


def reference_seconds(repeats: int = 1) -> float:
    """Median duration of `reference()`, with the collector paused so the
    caller's heap size does not enter the figure."""
    times = []
    for _ in range(repeats):
        gc.disable()
        try:
            start = time.perf_counter()
            reference()
            times.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return statistics.median(times)
