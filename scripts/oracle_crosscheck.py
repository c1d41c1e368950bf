#!/usr/bin/env python3
"""Cross-check the pipeline against the exhaustive oracle on random inputs
that no exact tier enumerates.

Two families drawn from SEED, compared at tolerance zero.  DENSE_GRAPHS
dense uniform random graphs (10 to 13 vertices, edge density 0.4 to 0.6,
girth below 9) run the exact search on inputs where it decides chi_b
alone; the script exits 1 if the pipeline never took that oracle path.
MULTI_CYCLE_GRAPHS graphs of girth at least 9 with 14 to 18 vertices and
an edge budget of n to n + 2 are checked against the exact search capped
at 18 vertices.  Every connected girth-9 graph with at most 16 vertices
and at most two independent cycles is enumerated by the tier-1 tests and
scripts/tree_crosscheck.py; this family reaches 17 and 18 vertices, three
cycles, and graphs that are not connected.  Every witness coloring, the
pipeline's and the exact search's, must pass check_b_coloring, and every
exact value must respect chi_b <= m(G).

Usage:
    python3 scripts/oracle_crosscheck.py
"""

from __future__ import annotations

import random
import time
from collections import Counter

from bchrom import (
    DEFAULT_ORACLE_LIMIT,
    Graph,
    check_b_coloring,
    density_profile,
    exact_b_chromatic,
    generate_girth_constrained,
    run_pipeline,
)

SEED = 7
# dense graphs whose chi_b only the exact search decides
DENSE_GRAPHS = 60
# sparse girth-9 graphs with up to three independent cycles
MULTI_CYCLE_GRAPHS = 7000
MULTI_CYCLE_LIMIT = 18


def dense_graph(n: int, density: float, rng: random.Random) -> Graph:
    """Uniform random graph with n vertices and round(density * n(n-1)/2) edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, rng.sample(pairs, round(density * len(pairs))))


def main() -> int:
    rng = random.Random(SEED)
    mismatches = 0
    invalid = 0
    above_m = 0
    methods: Counter[str] = Counter()
    start = time.perf_counter()

    def compare(g, tag, index, limit=DEFAULT_ORACLE_LIMIT):
        nonlocal mismatches, invalid, above_m
        expected, exact_witness = exact_b_chromatic(g, limit=limit)
        if not check_b_coloring(g, exact_witness, expected).valid:
            invalid += 1
            print(f"INVALID WITNESS {tag} #{index}: exact search n={g.n}")
        if expected > density_profile(g).m:
            above_m += 1
            print(f"ABOVE m(G) {tag} #{index}: exact search gave {expected} n={g.n}")
        outcome = run_pipeline(g, compute_chi_b=True)
        got = outcome.record.chi_b
        methods[outcome.record.chi_b_method] += 1
        if got != expected:
            mismatches += 1
            print(f"MISMATCH {tag} #{index}: pipeline={got} oracle={expected} n={g.n}")
        if outcome.coloring is not None and not check_b_coloring(g, outcome.coloring, got).valid:
            invalid += 1
            print(f"INVALID WITNESS {tag} #{index}: {outcome.record.chi_b_method} n={g.n}")

    for index in range(DENSE_GRAPHS):
        compare(dense_graph(rng.randint(10, 13), rng.uniform(0.4, 0.6), rng), "dense graph", index)
    for index in range(MULTI_CYCLE_GRAPHS):
        n = rng.randint(14, 18)
        g = generate_girth_constrained(n, 9, n + rng.randint(0, 2), seed=rng.randrange(2**32))
        compare(g, "multi-cycle graph", index, limit=MULTI_CYCLE_LIMIT)

    elapsed = time.perf_counter() - start
    print(f"dense      {DENSE_GRAPHS} graphs with 10-13 vertices and edge density 0.4-0.6")
    print(f"multi      {MULTI_CYCLE_GRAPHS} girth-9 graphs with 14-18 vertices, oracle limit {MULTI_CYCLE_LIMIT}")
    print(f"elapsed    {elapsed:.2f}s")
    for method, count in sorted(methods.items()):
        print(f"method {method:<18} {count}")
    if mismatches or invalid or above_m:
        print(f"FAILED: {mismatches} mismatches, {invalid} invalid witnesses, {above_m} values above m(G)")
        return 1
    if not methods["oracle"]:
        print("FAILED: no instance took the oracle path")
        return 1
    print(
        "crosscheck OK: pipeline equals the oracle everywhere, every pipeline and exact witness is valid, "
        "no exact value exceeds m(G)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
