"""Every small tree, and every small tree plus one or two chords at girth >= 9,
up to isomorphism, against the exact search."""

import pytest

from bchrom import Graph

from helpers import chorded_trees, disagreement, free_trees

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
