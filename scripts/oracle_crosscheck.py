#!/usr/bin/env python3
"""Cross-check the pipeline against the exhaustive oracle on small inputs.

Random labeled trees plus random high-girth graphs, all within the oracle
cap, compared at tolerance zero.  Random trees with 11 to 14 vertices are
drawn until a fixed number of them have no good set, so the oracle path
(the exact witness with m(G) - 1 colors) is cross-checked too; it exits 1
if that path never ran.  A family of dense uniform random graphs (10 to 13
vertices, edge density 0.4 to 0.6, girth below 9) runs the exact search on
inputs where it decides chi_b alone.  Every witness coloring, the
pipeline's and the exact search's, must pass check_b_coloring, and every
exact value must respect chi_b <= m(G).

Usage:
    python3 scripts/oracle_crosscheck.py --trees 500 --graphs 200 --seed 7
"""

from __future__ import annotations

import argparse
import random
import time
from collections import Counter

from bchrom import (
    Graph,
    check_b_coloring,
    density_profile,
    exact_b_chromatic,
    find_good_set,
    generate_girth_constrained,
    run_pipeline,
)

# about 1 in 80 random trees with 11-14 vertices has no good set
NO_GOOD_SET_TREES = 20
# dense graphs whose chi_b only the exact search decides
DENSE_GRAPHS = 60


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trees", type=int, default=500)
    parser.add_argument("--graphs", type=int, default=200)
    parser.add_argument("--max-n", type=int, default=13)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    mismatches = 0
    invalid = 0
    above_m = 0
    methods: Counter[str] = Counter()
    start = time.perf_counter()

    def compare(g, tag, index):
        nonlocal mismatches, invalid, above_m
        expected, exact_witness = exact_b_chromatic(g)
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

    for index in range(args.trees):
        compare(random_tree(rng.randint(1, 10), rng), "tree", index)
    for index in range(args.graphs):
        n = rng.randint(1, args.max_n)
        g = generate_girth_constrained(n, 9, n + 3, seed=rng.randrange(2**32))
        compare(g, "graph", index)
    drawn = 0
    for index in range(NO_GOOD_SET_TREES):
        while True:
            drawn += 1
            g = random_tree(rng.randint(11, 14), rng)
            if find_good_set(g, density_profile(g)) is None:
                break
        compare(g, "no-good-set tree", index)
    for index in range(DENSE_GRAPHS):
        compare(dense_graph(rng.randint(10, 13), rng.uniform(0.4, 0.6), rng), "dense graph", index)

    elapsed = time.perf_counter() - start
    total = args.trees + args.graphs + NO_GOOD_SET_TREES + DENSE_GRAPHS
    print(f"instances  {total} ({drawn} trees drawn to find {NO_GOOD_SET_TREES} without a good set)")
    print(f"dense      {DENSE_GRAPHS} graphs with 10-13 vertices and edge density 0.4-0.6")
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
