"""Every small tree, and every small tree plus one or two chords at girth >= 9,
up to isomorphism, against the exact search; planted pivoted trees and near
misses up to 10^4 vertices against the pivot rule."""

import random
from collections import Counter

import pytest

from bchrom import Graph

from helpers import PIVOT_EDITS, chorded_trees, disagreement, free_trees, m_by_degrees, pivoted, planted_pivot_tree

#: OEIS A000055: trees with n unlabeled vertices, n = 0..16.
A000055 = [1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]


def test_free_tree_counts_match_a000055():
    assert [sum(1 for _ in free_trees(n)) for n in range(17)] == A000055


def centred_code(g: Graph) -> str:
    """A string equal for two trees exactly when they are isomorphic: the
    least nested-parentheses code of the tree rooted at a centre (Aho,
    Hopcroft & Ullman), each vertex's child codes sorted."""
    degree = g.degrees()
    layer = [v for v in range(g.n) if degree[v] <= 1]
    left = g.n
    while left > 2:  # peel leaves until the one or two centres remain
        left -= len(layer)
        peeled = []
        for u in layer:
            degree[u] = 0
            for v in g.adj[u]:
                degree[v] -= 1
                if degree[v] == 1:
                    peeled.append(v)
        layer = peeled

    def code(v, parent):
        return "(" + "".join(sorted(code(w, v) for w in g.adj[v] if w != parent)) + ")"

    return min(code(c, -1) for c in layer)


@pytest.mark.parametrize("n", range(1, 13))
def test_free_trees_are_distinct_trees(n):
    codes = set()
    for g in free_trees(n):
        code = centred_code(g)
        assert g.edge_count == n - 1 and len(code) == 2 * n  # connected: the code reaches every vertex
        codes.add(code)
    assert len(codes) == A000055[n]


@pytest.mark.parametrize(
    ("chords", "sizes", "graphs", "below_m"),
    [(0, range(1, 15), 5447, 113), (1, range(9, 15), 7148, 81), (2, range(1, 16), 5163, 29)],
    ids=["trees", "one-chord", "two-chords"],
)
def test_every_small_tree_plus_chords_agrees_with_the_exact_search(chords, sizes, graphs, below_m):
    """Every connected graph of girth >= 9 with cycle rank ``chords`` and
    ``sizes`` vertices, up to isomorphism; ``below_m`` of them answer
    m(G) - 1, on trees exactly the pivoted ones.  5,163 is the number of
    chord pairs whose graph ``girth`` puts at 9 or more, and each graph
    yielded is checked to have girth >= 9, so ``chorded_trees``' distance
    rule keeps exactly those pairs."""
    count = below = 0
    for n in sizes:
        for g in chorded_trees(n, chords):
            problem, record = disagreement(g, limit=15)
            assert problem is None and record.girth >= 9, (g.adj, problem, record.girth)
            count += 1
            below += record.chi_b == record.m - 1
    assert (count, below) == (graphs, below_m)


def test_planted_pivoted_trees_and_near_misses():
    """200 planted trees, m = 4..12, 10 to 10^4 vertices: a pivoted one
    answers m(G) - 1, and one leaf away from a pivot ("leaf" or "dense"), m(G)."""
    rng = random.Random(2026)
    answers = Counter()
    for _ in range(200):
        m, n, edit = rng.randint(4, 12), round(10 ** rng.uniform(1, 4)), rng.choice(PIVOT_EDITS)
        g = planted_pivot_tree(m, n, edit, rng)
        assert m_by_degrees(g) == m and pivoted(g, m) == (edit is None), (m, n, edit)
        problem, record = disagreement(g, limit=14)
        assert problem is None, (m, n, edit, problem)
        answers[edit, record.m - record.chi_b] += 1
    assert answers == {(None, 1): 67, ("leaf", 0): 60, ("dense", 0): 73}
