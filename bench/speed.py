"""Host speed probe, so that timings are comparable across minutes.

The benchmark runs on a share of a host whose speed drifts: the same op
takes a quarter to a half longer in some minutes than in others, in phases
that last from a few seconds to minutes.  Raw wall times then measure the
neighbours as much as the program.  Every time the benchmark reports is
therefore given at reference speed:

    scaled seconds = wall seconds * REFERENCE_S / probe seconds

where probe seconds is the median time of the NEAREST probes to the work in
time.  A probe is a fixed workload run between ops all through the run:
parse a fixed edge list into neighbour sets and run a breadth-first search
over it, the same kinds of interpreter work as the program's own ops.  Across
phases the ratio of an op's time to the probe's stays within a few percent
while each alone moves by a third.  The probe never imports bchrom and never
changes, so a faster program reads faster at any host speed.  REFERENCE_S is
about the probe's time on a 2-vCPU Xeon at 2.1 GHz with CPython 3.11, so
scaled seconds read about as wall seconds there.  The run record keeps the
wall times beside the scaled ones.
"""

from __future__ import annotations

import random
import statistics
from collections import deque
from time import perf_counter

REFERENCE_S = 0.025
NEAREST = 3  # probes that set the speed of one piece of work


class Probe:
    """A fixed graph workload; measure() returns its current time in seconds.

    The graph (10000 vertices, a few MB of sets and dicts) is larger than the
    core's own caches, as the program's graphs are.
    """

    def __init__(self, n: int = 10000):
        rng = random.Random(20240901)
        edges = [(v, rng.randrange(v)) for v in range(1, n)]  # a random tree ...
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 2)]  # ... plus cycles
        self.n = n
        self.text = "".join(f"{u} {v}\n" for u, v in edges)
        self.samples: list[tuple[float, float]] = []  # (start, seconds) of every measure()

    def _work(self) -> int:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for line in self.text.splitlines():
            u, v = map(int, line.split())
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        dist = {0: 0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return len(dist)

    def measure(self) -> float:
        start = perf_counter()
        reached = self._work()
        value = perf_counter() - start
        if reached != self.n:
            raise AssertionError("speed probe graph is not connected")
        self.samples.append((start, value))
        return value

    def factor_at(self, when: float) -> float:
        """Factor from wall seconds to reference seconds for work done around
        `when`: REFERENCE_S over the median of the NEAREST probes in time."""
        near = sorted(self.samples, key=lambda sample: abs(sample[0] - when))[:NEAREST]
        return REFERENCE_S / statistics.median(value for _, value in near)

    def run_factor(self) -> float:
        """The same over every probe of the run, for the run record."""
        return REFERENCE_S / statistics.median(value for _, value in self.samples)
