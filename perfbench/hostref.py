"""A fixed reference burst that gauges how fast the host runs right now.

On a shared machine the same Python code runs up to twice as fast or as
slow from one second to the next, because other tenants load the
processor.  The workloads therefore time their measured phase in short
segments, and between segments (outside the timed part) run this burst
once.  A segment's time divided by the bursts around it is its cost in
reference bursts, which is nearly independent of how loaded the host was
at that moment (see ``run.py``).

The burst is the benchmark's own code and must never change: a change to
it changes every figure the benchmark reports.  It exercises what the
simulator's inner loops do — string formatting, slotted objects, dicts,
a heap and generator resumption — on a working set small enough to stay
in cache, and touches no state of the program.
"""

import heapq
from time import perf_counter

ROUNDS = 800

#: nominal duration of one burst, which converts a cost in bursts back to
#: seconds: figures read as host seconds on a host that runs one burst in
#: this time (about the median burst on a shared 2-vCPU Xeon VM under
#: Python 3.11)
NOMINAL_S = 0.003


class _Entry:
    __slots__ = ("key", "n")

    def __init__(self, key: str, n: int):
        self.key = key
        self.n = n


def _counter(n: int):
    acc = 0
    for i in range(n):
        acc += yield i
    return acc


def burst() -> float:
    """Run the burst once and return its host time in seconds."""
    t = perf_counter()
    heap: list = []
    table: dict = {}
    for i in range(ROUNDS):
        key = f"/d{i % 17:03d}/f{i:06d}"
        entry = _Entry(key, i)
        table[key] = entry
        heapq.heappush(heap, (i * 7919 % 1009, i, entry))
        gen = _counter(3)
        next(gen)
        try:
            while True:
                gen.send(i)
        except StopIteration:
            pass
    while heap:
        entry = heapq.heappop(heap)[2]
        table[entry.key].n += 1
    return perf_counter() - t
