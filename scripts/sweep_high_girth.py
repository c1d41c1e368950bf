#!/usr/bin/env python3
"""Desk-scale sweep: generate high-girth graphs, compute chi_b, verify.

For every generated graph the pipeline value must land in {m-1, m} and any
emitted coloring must pass the independent checker.  Prints a small summary
table (method counts, gap distribution, timing).

It then colors PLANTED_FORESTS seeded forests in which the first m(G) dense
vertices encircle a vertex while more than m(G) vertices are dense, so the
good set comes from the swap of find_good_set.  Each must be colored with
m(G) colors by construction and pass the checker; the script exits 1 if one
fails or if no instance took the swap.

Usage:
    python3 scripts/sweep_high_girth.py --count 500 --max-n 200 --seed 12025
"""

from __future__ import annotations

import argparse
import random
import time
from collections import Counter

from bchrom import Graph, check_b_coloring, density_profile, generate_girth_constrained, run_pipeline

PLANTED_FORESTS = 200


def planted_forest(rng: random.Random) -> Graph:
    """Forest with m(G) = m whose members 0..m-1, each of degree m - 1,
    encircle u = m, plus more dense vertices: u itself, padded to degree
    m - 1, or stars with m - 1 leaves.  Some leaves grow into paths; no
    vertex reaches degree m, so the first m dense vertices by (-degree, id)
    are the members."""
    m = rng.randint(4, 12)
    witnesses = rng.randint(2, m - 1)
    u_dense = rng.random() < 0.5
    stars = rng.randint(0 if u_dense else 1, 3)
    u = m
    edges = [(w, u) for w in range(witnesses)]
    for v in range(witnesses, m):
        edges.append((rng.choice([w for w in range(witnesses) if sum(w in e for e in edges) < m - 1]), v))
    n = m + 1
    for v in list(range(m)) + ([u] if u_dense else []):
        while sum(v in e for e in edges) < m - 1:
            edges.append((v, n))
            n += 1
    for _ in range(stars):
        edges.extend((n, n + i) for i in range(1, m))
        n += m
    leaves = [v for v, degree in enumerate(Graph(n, edges).degrees()) if degree == 1 and v != u]
    for end in leaves:
        if rng.random() < 0.3:
            for _ in range(rng.randint(1, 5)):
                edges.append((end, n))
                end, n = n, n + 1
    return Graph(n, edges)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--max-n", type=int, default=200)
    parser.add_argument("--min-girth", type=int, default=9)
    parser.add_argument("--seed", type=int, default=12025)
    parser.add_argument("--oracle-limit", type=int, default=14)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    methods = Counter()
    gaps = Counter()
    verified = 0
    start = time.perf_counter()
    for index in range(args.count):
        n = rng.randint(1, args.max_n)
        budget = rng.randint(max(n - 1, 0), max(n + n // 3, 1))
        g = generate_girth_constrained(n, args.min_girth, budget, seed=rng.randrange(2**32))
        profile = density_profile(g)
        outcome = run_pipeline(g, compute_chi_b=True, oracle_limit=args.oracle_limit)
        value = outcome.record.chi_b
        if value not in (profile.m - 1, profile.m):
            print(f"FAIL graph #{index}: chi_b={value}, m={profile.m}")
            return 1
        methods[outcome.record.chi_b_method] += 1
        gaps["m" if value == profile.m else "m-1"] += 1
        if outcome.coloring is not None:
            if not check_b_coloring(g, outcome.coloring, value).valid:
                print(f"FAIL graph #{index}: emitted coloring did not validate")
                return 1
            verified += 1
    swapped = 0
    for index in range(PLANTED_FORESTS):
        g = planted_forest(rng)
        m = density_profile(g).m
        outcome = run_pipeline(g, compute_chi_b=True)
        record = outcome.record
        if record.chi_b != m or record.chi_b_method != "construction":
            print(f"FAIL planted forest #{index}: chi_b={record.chi_b} by {record.chi_b_method}, m={m}")
            return 1
        if not check_b_coloring(g, outcome.coloring, m).valid:
            print(f"FAIL planted forest #{index}: emitted coloring did not validate")
            return 1
        swapped += record.good_set != list(range(m))
    elapsed = time.perf_counter() - start
    if swapped == 0:
        print(f"FAIL no planted forest took the good-set swap ({PLANTED_FORESTS} colored)")
        return 1

    print(f"graphs          {args.count}")
    print(f"elapsed         {elapsed:.2f}s")
    print(f"colorings       {verified} emitted, all valid")
    for method, count in sorted(methods.items()):
        print(f"method {method:<18} {count}")
    for gap, count in sorted(gaps.items()):
        print(f"chi_b = {gap:<11} {count}")
    print(f"planted forests {PLANTED_FORESTS}, {swapped} took the good-set swap, all colorings valid")
    print("sweep OK: chi_b in {m-1, m} throughout")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
