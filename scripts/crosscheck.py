#!/usr/bin/env python3
"""Cross-check the pipeline on every desk-scale family of graphs.

Each family is a seeded or enumerated source of graphs, the vertex limit of
its exact search, and its pinned counts: graphs, answers chi_b = m(G) - 1,
and answers from the oracle path.  Every graph goes through
``disagreement`` in tests/helpers.py: the pipeline's witness passes the
checker, chi_b <= m(G), at girth >= 9 the construction answers m(G) - 1
or m(G), up to the limit chi_b equals the exact search's value and that
witness passes too, and on a tree chi_b = m(G) - [pivoted].  A family may
make one more claim on each of its graphs.

- n = 15 and 16, 0 to 2 chords: every tree with 15 or 16 vertices, plus
  each set of one chord (15, 16 vertices) or two (16) at girth >= 9, from
  ``chorded_trees``: every connected girth->=9 graph of that size and
  cycle rank, up to isomorphism.  Claim: girth >= 9.  On trees the m - 1
  answers are the pivoted trees.
- dense: uniform random graphs with 10 to 13 vertices and edge density 0.4
  to 0.6, far below girth 9, so the exact search decides every one.
- multi-cycle: graphs of girth >= 9 with 14 to 18 vertices and n to n + 2
  edges, drawn after the dense graphs from the same seed, against the exact
  search capped at 18 vertices: 17 and 18 vertices, three cycles and
  disconnected graphs, which the enumeration does not reach.
- planted swap: forests whose first m(G) dense vertices encircle a vertex
  while more than m(G) vertices are dense, some leaves grown into paths.
  Claim: the good set is not those first m(G), so ``find_good_set`` swapped.
- no good set: forests whose m(G) dense vertices encircle a vertex, joined
  to a random tree of up to 10^4 vertices and a ring of 9 to 30, neither of
  which adds a dense vertex: every answer is m(G) - 1.

Exits 1 on any disagreement, failed claim or other count.  An exception a
graph raises (an ``InvariantViolation`` of a failed certificate, or any
other) counts as a disagreement of its family, named by its type and the
line that raised it, and the run goes on, so the table always prints.

Usage (from the root of a checkout, with tests/ on the path):
    PYTHONPATH=src:tests python3 scripts/crosscheck.py
"""

from __future__ import annotations

import random
import time
import traceback
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from pathlib import Path
from typing import NamedTuple

from bchrom import AnalysisRecord, Graph, generate_girth_constrained

from helpers import chorded_trees, disagreement, planted_encircling_forest, with_tree_and_ring


def dense_graphs(rng: random.Random) -> Iterator[Graph]:
    for _ in range(60):
        n, density = rng.randint(10, 13), rng.uniform(0.4, 0.6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        yield Graph(n, rng.sample(pairs, round(density * len(pairs))))


def multi_cycle_graphs(rng: random.Random) -> Iterator[Graph]:
    for _ in dense_graphs(rng):  # the dense graphs come first at this seed
        pass
    for _ in range(7000):
        n = rng.randint(14, 18)
        yield generate_girth_constrained(n, 9, n + rng.randint(0, 2), seed=rng.randrange(2**32))


def planted_swap_forests(rng: random.Random) -> Iterator[Graph]:
    for _ in range(200):
        m = rng.randint(4, 12)
        witnesses = rng.randint(2, m - 1)
        u_dense = rng.random() < 0.5
        forest = planted_encircling_forest(m, witnesses, u_dense, rng.randint(0 if u_dense else 1, 3), rng)
        edges, n = list(forest.edges()), forest.n
        for end in [v for v in range(n) if len(forest.adj[v]) == 1]:
            if rng.random() < 0.3:
                for _ in range(rng.randint(1, 5)):
                    edges.append((end, n))
                    end, n = n, n + 1
        yield Graph(n, edges)


def no_good_set_graphs(rng: random.Random) -> Iterator[Graph]:
    for _ in range(60):
        m = rng.randint(5, 20)
        forest = planted_encircling_forest(m, rng.randint(2, m - 2), False, 0, rng)
        yield with_tree_and_ring(forest, rng.randint(1, 10_000), rng.randint(9, 30), rng)


def girth_at_least_9(g: Graph, record: AnalysisRecord) -> bool:
    return record.girth >= 9


def swapped(g: Graph, record: AnalysisRecord) -> bool:
    return record.good_set != list(range(record.m))


class Family(NamedTuple):
    name: str
    graphs: Callable[[], Iterable[Graph]]
    limit: int  # the exact search's vertex cap
    pinned: tuple[int, int, int]  # graphs, chi_b = m(G) - 1 answers, oracle-path answers
    claim: Callable[[Graph, AnalysisRecord], bool] = lambda g, record: True


FAMILIES = (
    Family("n=15, 0 chords", partial(chorded_trees, 15, 0), 16, (7741, 200, 0), girth_at_least_9),
    Family("n=16, 0 chords", partial(chorded_trees, 16, 0), 16, (19320, 451, 0), girth_at_least_9),
    Family("n=15, 1 chord", partial(chorded_trees, 15, 1), 16, (22240, 382, 0), girth_at_least_9),
    Family("n=16, 1 chord", partial(chorded_trees, 16, 1), 16, (85299, 1368, 0), girth_at_least_9),
    Family("n=16, 2 chords", partial(chorded_trees, 16, 2), 16, (37760, 285, 0), girth_at_least_9),
    Family("dense", lambda: dense_graphs(random.Random(7)), 14, (60, 37, 60)),
    Family("multi-cycle", lambda: multi_cycle_graphs(random.Random(7)), 18, (7000, 134, 0)),
    Family("planted swap", lambda: planted_swap_forests(random.Random(12025)), 14, (200, 0, 0), swapped),
    Family("no good set", lambda: no_good_set_graphs(random.Random(12026)), 14, (60, 60, 0)),
)


def raised(exc: Exception) -> str:
    """The exception's type and message, and the line that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__} at {Path(frame.filename).name}:{frame.lineno} in {frame.name}: {exc}"


def main() -> int:
    failures = 0
    start = time.perf_counter()
    print(f"{'family':<16}{'graphs':>8}{'m - 1':>8}{'oracle':>8}{'failed':>8}{'time':>9}")
    for family in FAMILIES:
        family_start = time.perf_counter()
        counts = [0, 0, 0]
        failed = 0
        for index, g in enumerate(family.graphs()):
            try:
                problem, record = disagreement(g, family.limit)
            except Exception as exc:  # a failure of this graph, whatever raised it: count it, go on
                problem, record = raised(exc), None
            if problem is None and not family.claim(g, record):
                problem = f"{family.claim.__name__} does not hold"
            if problem is not None:
                failed += 1
                print(f"DISAGREEMENT {family.name} #{index} (n={g.n}): {problem}")
            if record is not None:
                counts[0] += 1
                counts[1] += record.chi_b == record.m - 1
                counts[2] += record.chi_b_method == "oracle"
        elapsed = time.perf_counter() - family_start
        print(f"{family.name:<16}{counts[0]:>8}{counts[1]:>8}{counts[2]:>8}{failed:>8}{elapsed:>8.1f}s")
        failures += failed
        if tuple(counts) != family.pinned:
            failures += 1
            print(f"COUNT {family.name}: pinned {family.pinned}")
    print(f"{'total':<48}{time.perf_counter() - start:>8.1f}s")
    if failures:
        print(f"FAILED: {failures} disagreements (exceptions included), failed claims or counts")
        return 1
    print("crosscheck OK: no disagreement, every claim and count holds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
