#!/usr/bin/env python3
"""Cross-check the pipeline against the exhaustive oracle on small inputs.

TREES random labeled trees with 1 to 10 vertices plus GRAPHS random girth-9
graphs with 1 to MAX_N vertices, drawn from SEED, all within the oracle
cap, compared at tolerance zero.  Random trees with 11 to 14 vertices are
drawn until a fixed number of them have no good set, so the construction
with m(G) - 1 colors is cross-checked too.  A family of dense uniform
random graphs (10 to 13 vertices, edge density 0.4 to 0.6, girth below 9)
runs the exact search on inputs where it decides chi_b alone; the script
exits 1 if the pipeline never took that oracle path.  Every witness
coloring, the pipeline's and the exact search's, must pass
check_b_coloring, and every exact value must respect chi_b <= m(G).

A multi-cycle family, MULTI_CYCLE_GRAPHS graphs of girth at least 9 with
14 to 18 vertices and an edge budget of n to n + 2, is checked against the
exact search capped at 18 vertices.  Its counts and its m(G) - 1 answers
are printed per cycle rank (edges - n + components).  The script exits 1
if no graph of rank 2 or more has an m(G) - 1 answer: the construction on
find_good_set's m(G) - 1 set would then go unchecked on graphs with two
or more cycles.

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
    find_good_set,
    generate_girth_constrained,
    run_pipeline,
)

TREES = 500
GRAPHS = 200
MAX_N = 13
SEED = 7
# about 1 in 80 random trees with 11-14 vertices has no good set
NO_GOOD_SET_TREES = 20
# dense graphs whose chi_b only the exact search decides
DENSE_GRAPHS = 60
# sparse girth-9 graphs with up to three independent cycles; about one in
# a thousand has cycle rank >= 2 and an m(G) - 1 answer
MULTI_CYCLE_GRAPHS = 7000
MULTI_CYCLE_LIMIT = 18


def random_tree(n: int, rng: random.Random) -> Graph:
    if n <= 1:
        return Graph(n, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return Graph(n, edges)


def dense_graph(n: int, density: float, rng: random.Random) -> Graph:
    """Uniform random graph with n vertices and round(density * n(n-1)/2) edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, rng.sample(pairs, round(density * len(pairs))))


def cycle_rank(g: Graph) -> int:
    """edges - n + components: the number of independent cycles."""
    seen = [False] * g.n
    components = 0
    for start in range(g.n):
        if not seen[start]:
            components += 1
            seen[start] = True
            queue = [start]
            for u in queue:  # grows while searching
                for v in g.adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        queue.append(v)
    return g.edge_count - g.n + components


def main() -> int:
    rng = random.Random(SEED)
    mismatches = 0
    invalid = 0
    above_m = 0
    methods: Counter[str] = Counter()
    start = time.perf_counter()

    def compare(g, tag, index, limit=DEFAULT_ORACLE_LIMIT):
        """Check g and return the pipeline's record."""
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
        return outcome.record

    for index in range(TREES):
        compare(random_tree(rng.randint(1, 10), rng), "tree", index)
    for index in range(GRAPHS):
        n = rng.randint(1, MAX_N)
        g = generate_girth_constrained(n, 9, n + 3, seed=rng.randrange(2**32))
        compare(g, "graph", index)
    drawn = 0
    for index in range(NO_GOOD_SET_TREES):
        while True:
            drawn += 1
            g = random_tree(rng.randint(11, 14), rng)
            profile = density_profile(g)
            if len(find_good_set(g, profile).members) == profile.m - 1:
                break
        compare(g, "no-good-set tree", index)
    for index in range(DENSE_GRAPHS):
        compare(dense_graph(rng.randint(10, 13), rng.uniform(0.4, 0.6), rng), "dense graph", index)
    by_rank: Counter[int] = Counter()
    below_m_by_rank: Counter[int] = Counter()
    for index in range(MULTI_CYCLE_GRAPHS):
        n = rng.randint(14, 18)
        g = generate_girth_constrained(n, 9, n + rng.randint(0, 2), seed=rng.randrange(2**32))
        record = compare(g, "multi-cycle graph", index, limit=MULTI_CYCLE_LIMIT)
        rank = cycle_rank(g)
        by_rank[rank] += 1
        below_m_by_rank[rank] += record.chi_b == record.m - 1

    elapsed = time.perf_counter() - start
    total = TREES + GRAPHS + NO_GOOD_SET_TREES + DENSE_GRAPHS + MULTI_CYCLE_GRAPHS
    print(f"instances  {total} ({drawn} trees drawn to find {NO_GOOD_SET_TREES} without a good set)")
    print(f"dense      {DENSE_GRAPHS} graphs with 10-13 vertices and edge density 0.4-0.6")
    print(f"multi      {MULTI_CYCLE_GRAPHS} girth-9 graphs with 14-18 vertices, oracle limit {MULTI_CYCLE_LIMIT}")
    for rank, count in sorted(by_rank.items()):
        print(f"rank {rank:<4} {count} graphs, {below_m_by_rank[rank]} with chi_b = m(G) - 1")
    print(f"elapsed    {elapsed:.2f}s")
    for method, count in sorted(methods.items()):
        print(f"method {method:<18} {count}")
    if mismatches or invalid or above_m:
        print(f"FAILED: {mismatches} mismatches, {invalid} invalid witnesses, {above_m} values above m(G)")
        return 1
    if not methods["oracle"]:
        print("FAILED: no instance took the oracle path")
        return 1
    if not sum(count for rank, count in below_m_by_rank.items() if rank >= 2):
        print("FAILED: no graph of cycle rank 2 or more has chi_b = m(G) - 1")
        return 1
    print(
        "crosscheck OK: pipeline equals the oracle everywhere, every pipeline and exact witness is valid, "
        "no exact value exceeds m(G)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
