#!/usr/bin/env python3
"""Cross-check the construction against the exact search on every tree of
15 and 16 vertices, and every such tree plus one or two chords at girth
>= 9, up to isomorphism.

A connected graph of cycle rank r is a spanning tree plus r chords, so
each family below is every connected graph of girth >= 9 with its vertex
count and rank.  The tier-1 tests cover trees with 1 to 14 vertices, one
chord with 9 to 14 and two chords with up to 15; this script takes the
next sizes, with the oracle capped at 16 vertices.  The graphs come from
``chorded_trees`` in tests/helpers.py and each is checked by
``tree_disagreement`` there: girth >= 9, chi_b equal to the exact
search's, both witnesses valid, chi_b in {m - 1, m}, and on a tree
chi_b = m - [pivoted].  The number of graphs and of m - 1 answers in each
family is pinned; on trees the m - 1 answers are the pivoted trees.
Exits 1 on any disagreement or any other count.

Usage (from the root of a checkout, with tests/ on the path):
    PYTHONPATH=src:tests python3 scripts/tree_crosscheck.py
"""

from __future__ import annotations

import time

from helpers import chorded_trees, tree_disagreement

#: (vertices, chords, graphs, graphs with chi_b = m(G) - 1)
FAMILIES = (
    (15, 0, 7741, 200),
    (16, 0, 19320, 451),
    (15, 1, 22240, 382),
    (16, 1, 85299, 1368),
    (16, 2, 37760, 285),
)
LIMIT = 16


def main() -> int:
    failures = 0
    for n, chords, pinned_graphs, pinned_below_m in FAMILIES:
        start = time.perf_counter()
        graphs = below_m = 0
        for g in chorded_trees(n, chords):
            problem, record = tree_disagreement(g, LIMIT)
            graphs += 1
            below_m += record.chi_b == record.m - 1
            if problem is not None:
                failures += 1
                print(f"DISAGREEMENT n={n} chords={chords} adj={g.adj}: {problem}")
        elapsed = time.perf_counter() - start
        print(f"n={n} chords={chords}  {graphs} graphs, {below_m} with chi_b = m(G) - 1  ({elapsed:.1f}s)")
        if (graphs, below_m) != (pinned_graphs, pinned_below_m):
            failures += 1
            print(f"COUNT n={n} chords={chords}: pinned {pinned_graphs} graphs, {pinned_below_m} with m(G) - 1")
    if failures:
        print(f"FAILED: {failures} disagreements or counts")
        return 1
    print("tree crosscheck OK: every graph agrees with the exact search, every count holds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
