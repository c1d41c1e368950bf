#!/usr/bin/env python3
"""Cross-check the construction against the exact search on every tree of
15 and 16 vertices, up to isomorphism.

The tier-1 tests cover every tree with 4 to 14 vertices; this script takes
the next two sizes, 27,061 trees, with the oracle capped at 16 vertices.
The trees come from ``free_trees`` in tests/helpers.py and each is checked
by ``tree_disagreement`` there: chi_b equal to the exact search's, a valid
witness, and chi_b in {m - 1, m}.  Exits 1 on any disagreement.

Usage (from the root of a checkout, with tests/ on the path):
    PYTHONPATH=src:tests python3 scripts/tree_crosscheck.py
"""

from __future__ import annotations

import time
from collections import Counter

from helpers import free_trees, tree_disagreement

SIZES = (15, 16)
LIMIT = 16


def main() -> int:
    start = time.perf_counter()
    failures = 0
    trees: Counter[int] = Counter()
    for n in SIZES:
        for g in free_trees(n):
            trees[n] += 1
            problem = tree_disagreement(g, LIMIT)
            if problem is not None:
                failures += 1
                print(f"DISAGREEMENT n={n} adj={g.adj}: {problem}")
    elapsed = time.perf_counter() - start
    for n in SIZES:
        print(f"n={n:<3} {trees[n]} trees")
    print(f"elapsed {elapsed:.2f}s")
    if failures:
        print(f"FAILED: {failures} trees disagree")
        return 1
    print("tree crosscheck OK: every tree agrees with the exact search")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
