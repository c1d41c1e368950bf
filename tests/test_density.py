import random

import pytest
from hypothesis import given, strategies as st

from bchrom import Graph, density_profile

from helpers import naive_m, path_graph, random_tree, star_graph


def test_single_vertex():
    profile = density_profile(Graph(1, []))
    assert profile.m == 1
    assert profile.dense == frozenset({0})


def test_path_five():
    # degree sequence 1,2,2,2,1: brute-force check gives m = 3
    g = path_graph(5)
    assert naive_m(g) == 3
    profile = density_profile(g)
    assert profile.m == 3
    assert profile.dense == frozenset({1, 2, 3})


def test_claw():
    # K_{1,3}: center degree 3, leaves degree 1; every vertex is dense
    g = star_graph(3)
    assert naive_m(g) == 2
    profile = density_profile(g)
    assert profile.m == 2
    assert profile.dense == frozenset(range(4))


def test_edgeless_graph_has_m_one():
    profile = density_profile(Graph(4, []))
    assert profile.m == 1
    assert profile.dense == frozenset(range(4))


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        density_profile(Graph(0, []))


@given(st.integers(1, 12), st.integers(0, 2**30))
def test_matches_naive_definition_checker(n, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
    g = Graph(n, edges)
    profile = density_profile(g)
    assert profile.m == naive_m(g)
    assert profile.dense == frozenset(u for u in range(n) if len(g.adj[u]) >= profile.m - 1)


@given(st.integers(1, 12), st.integers(0, 2**30))
def test_maximality_and_size(n, seed):
    rng = random.Random(seed)
    g = random_tree(n, rng)
    profile = density_profile(g)
    assert sum(1 for u in range(n) if len(g.adj[u]) >= profile.m - 1) >= profile.m
    assert sum(1 for u in range(n) if len(g.adj[u]) >= profile.m) < profile.m + 1
