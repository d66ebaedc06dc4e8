"""Summary statistics used by the benchmark (standard library only)."""

from __future__ import annotations

import statistics
from time import perf_counter

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with >= 10 samples beyond it.

    With n sorted samples this is the (n - 10)-th smallest, so exactly ten
    samples lie beyond it; the percentile is 100 * (n - 10) / n.  Returns
    (value, percentile, samples beyond).  Needs at least 11 samples.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")
    ordered = sorted(values)
    rank = n - TAIL_BEYOND  # 1-based rank of the tail sample
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def median(values: list[float]) -> float:
    return statistics.median(values)


#: speed the end-to-end timings are scaled to: reference_kernel takes 2 ms
REFERENCE_S = 0.002


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python loop (dict and integer work).

    The loop never touches finiverse, so a change to the library cannot
    move it; it moves only with the speed of the machine.  It allocates no
    objects the cyclic garbage collector tracks, so it never triggers a
    collection.
    """
    t0 = perf_counter()
    acc, seen = 0, {}
    for i in range(4000):
        key = (i % 7) * 143 + (i % 11) * 13 + i % 13
        seen[key] = seen.get(key, 0) + 1
        acc = (acc * 31 + i) % 1000003
    return perf_counter() - t0


#: jobs on each side whose kernel times set a job's local speed
KERNEL_WINDOW = 10


def local_kernel(brackets: list[list[float]]) -> list[float]:
    """Per job, the median of the kernel times taken around it and its
    KERNEL_WINDOW neighbours on each side (brackets are [before, after])."""
    out = []
    for i in range(len(brackets)):
        window = brackets[max(0, i - KERNEL_WINDOW):i + KERNEL_WINDOW + 1]
        out.append(median([t for pair in window for t in pair]))
    return out
