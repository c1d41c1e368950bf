"""Every small tree, up to isomorphism, against the exact search."""

import pytest

from bchrom import Graph

from helpers import free_trees, tree_disagreement

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


def test_every_tree_with_4_to_14_vertices_agrees_with_the_exact_search():
    trees = 0
    for n in range(4, 15):
        for g in free_trees(n):
            trees += 1
            assert tree_disagreement(g, limit=14) is None, g.adj
    assert trees == 5444
