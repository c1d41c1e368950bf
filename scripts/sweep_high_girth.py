#!/usr/bin/env python3
"""Desk-scale sweep: generate high-girth graphs, compute chi_b, verify.

It generates COUNT seeded graphs with 1 to MAX_N vertices and girth at least
MIN_GIRTH.  For every one the pipeline value must land in {m-1, m}, with a
coloring that passes the independent checker.  Prints a small summary table
(method counts, gap distribution, timing).

It then colors PLANTED_FORESTS seeded forests in which the first m(G) dense
vertices encircle a vertex while more than m(G) vertices are dense, so the
good set comes from the swap of find_good_set.  Each must be colored with
m(G) colors by construction and pass the checker; the script exits 1 if one
fails or if no instance took the swap.

Last it colors NO_GOOD_SET_GRAPHS graphs without a good set, with up to
about 10^4 vertices: a forest whose m(G) dense vertices encircle a vertex,
joined to a random tree and a ring of 9 to 30 vertices, neither of which
adds a dense vertex.  Each must get chi_b = m(G) - 1 by construction, with a
coloring that passes the checker, or the script exits 1.

Usage:
    python3 scripts/sweep_high_girth.py
"""

from __future__ import annotations

import random
import time
from collections import Counter

from bchrom import Graph, check_b_coloring, density_profile, generate_girth_constrained, run_pipeline

COUNT = 500
MAX_N = 200
MIN_GIRTH = 9
SEED = 12025
ORACLE_LIMIT = 14
PLANTED_FORESTS = 200
NO_GOOD_SET_GRAPHS = 60


def encircling_forest(m: int, witnesses: int, u_dense: bool, stars: int, rng: random.Random) -> tuple[int, list]:
    """(n, edges) of a forest whose members 0..m-1, each of degree m - 1,
    encircle u = m through its ``witnesses`` member neighbors; u is padded
    to degree m - 1 when ``u_dense``, and each star adds a center with m - 1
    leaves.  No vertex reaches degree m."""
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
    return n, edges


def planted_forest(rng: random.Random) -> Graph:
    """Forest with m(G) = m whose members 0..m-1 encircle u = m, plus more
    dense vertices: u itself or stars.  Some leaves grow into paths; the
    first m dense vertices by (-degree, id) are the members."""
    m = rng.randint(4, 12)
    witnesses = rng.randint(2, m - 1)
    u_dense = rng.random() < 0.5
    n, edges = encircling_forest(m, witnesses, u_dense, rng.randint(0 if u_dense else 1, 3), rng)
    u = m
    leaves = [v for v, degree in enumerate(Graph(n, edges).degrees()) if degree == 1 and v != u]
    for end in leaves:
        if rng.random() < 0.3:
            for _ in range(rng.randint(1, 5)):
                edges.append((end, n))
                end, n = n, n + 1
    return Graph(n, edges)


def no_good_set_graph(rng: random.Random) -> Graph:
    """Girth >= 9 graph whose m(G) = m dense vertices encircle a vertex, so
    no good set exists: an encircling forest (u of degree at most m - 2), a
    random tree whose vertices have degree at most m - 2, and a ring of 9
    to 30 vertices, each joined by one edge to a leaf of the forest."""
    m = rng.randint(5, 20)
    n, edges = encircling_forest(m, rng.randint(2, m - 2), False, 0, rng)
    leaves = range(m + 1, n)  # the forest's padding leaves
    size = rng.randint(1, 10_000)
    cap = m - 3  # tree degrees before the join; the join adds one, still below m - 1
    degree = [0] * size
    open_ends = [0]  # tree vertices below the cap, by offset from n
    for v in range(1, size):
        i = rng.randrange(len(open_ends))
        parent = open_ends[i]
        edges.append((n + parent, n + v))
        degree[parent] += 1
        degree[v] = 1
        if degree[parent] == cap:
            open_ends[i] = open_ends[-1]
            open_ends.pop()
        open_ends.append(v)
    edges.append((rng.choice(leaves), n + rng.randrange(size)))
    n += size
    ring = rng.randint(9, 30)
    edges.extend((n + i, n + (i + 1) % ring) for i in range(ring))
    edges.append((rng.choice(leaves), n))
    return Graph(n + ring, edges)


def main() -> int:
    rng = random.Random(SEED)
    methods = Counter()
    gaps = Counter()
    verified = 0
    start = time.perf_counter()
    for index in range(COUNT):
        n = rng.randint(1, MAX_N)
        budget = rng.randint(max(n - 1, 0), max(n + n // 3, 1))
        g = generate_girth_constrained(n, MIN_GIRTH, budget, seed=rng.randrange(2**32))
        profile = density_profile(g)
        outcome = run_pipeline(g, compute_chi_b=True, oracle_limit=ORACLE_LIMIT)
        value = outcome.record.chi_b
        if value not in (profile.m - 1, profile.m):
            print(f"FAIL graph #{index}: chi_b={value}, m={profile.m}")
            return 1
        methods[outcome.record.chi_b_method] += 1
        gaps["m" if value == profile.m else "m-1"] += 1
        if outcome.coloring is None:
            if outcome.record.girth >= 9:
                print(f"FAIL graph #{index}: girth {outcome.record.girth_text()} but no coloring")
                return 1
        elif not check_b_coloring(g, outcome.coloring, value).valid:
            print(f"FAIL graph #{index}: emitted coloring did not validate")
            return 1
        else:
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
    if swapped == 0:
        print(f"FAIL no planted forest took the good-set swap ({PLANTED_FORESTS} colored)")
        return 1
    largest = 0
    for index in range(NO_GOOD_SET_GRAPHS):
        g = no_good_set_graph(rng)
        m = density_profile(g).m
        outcome = run_pipeline(g, compute_chi_b=True)
        record = outcome.record
        if (record.has_good_set, record.chi_b, record.chi_b_method) != (False, m - 1, "construction"):
            print(f"FAIL no-good-set graph #{index}: chi_b={record.chi_b} by {record.chi_b_method}, m={m}")
            return 1
        if not check_b_coloring(g, outcome.coloring, m - 1).valid:
            print(f"FAIL no-good-set graph #{index}: emitted coloring did not validate")
            return 1
        largest = max(largest, g.n)
    elapsed = time.perf_counter() - start

    print(f"graphs          {COUNT}")
    print(f"elapsed         {elapsed:.2f}s")
    print(f"colorings       {verified} emitted, all valid")
    for method, count in sorted(methods.items()):
        print(f"method {method:<18} {count}")
    for gap, count in sorted(gaps.items()):
        print(f"chi_b = {gap:<11} {count}")
    print(f"planted forests {PLANTED_FORESTS}, {swapped} took the good-set swap, all colorings valid")
    print(f"no good set     {NO_GOOD_SET_GRAPHS} graphs up to n = {largest}, all m - 1 by construction, colorings valid")
    print("sweep OK: chi_b in {m-1, m} throughout")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
