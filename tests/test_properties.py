"""Cross-module properties: the constructive pipeline against the oracle."""

import random

from hypothesis import example, given, settings, strategies as st

from bchrom import density_profile, find_good_set, girth, ACYCLIC
from bchrom.goodset import check_good_set
from bchrom.graph import generate_girth_constrained

from helpers import (
    disagreement,
    naive_has_good_set,
    planted_encircling_forest,
    random_tree,
    relabeled,
    with_tree_and_ring,
)


@given(st.integers(1, 12), st.integers(0, 2**30))
def test_pipeline_matches_oracle_on_trees(n, seed):
    problem, _ = disagreement(random_tree(n, random.Random(seed)), limit=14)
    assert problem is None


@given(st.integers(9, 14), st.integers(0, 2**30))
@settings(max_examples=60)
def test_pipeline_matches_oracle_on_high_girth_graphs(n, seed):
    problem, _ = disagreement(generate_girth_constrained(n, 9, n + 3, seed=seed), limit=14)
    assert problem is None


@given(st.integers(1, 60), st.integers(0, 2**30))
@settings(max_examples=60)
def test_high_girth_value_is_m_or_m_minus_one(n, seed):
    # chi_b is exact on the whole high-girth regime, and the construction
    # witnesses it at any n, with or without a good set
    problem, record = disagreement(generate_girth_constrained(n, 9, max(n, 1), seed=seed), limit=0)
    assert problem is None and record.girth >= 9


@given(st.integers(4, 12), st.integers(0, 2**30), st.integers(0, 12), st.sampled_from([0, 9, 13, 30]))
@example(4, 0, 0, 0)
@example(4, 1, 2, 0)
@settings(max_examples=60)
def test_no_good_set_graphs_get_checked_m_minus_one_colorings(m, seed, tree_n, ring):
    # M(G) is the m planted members, which encircle u (of degree at most
    # m - 2), so no good set exists; the tree and the ring add no dense
    # vertex (at m = 4, only a tree of at most 2 vertices: a joined ring
    # vertex would be dense)
    if m == 4:
        tree_n, ring = min(tree_n, 2), 0
    rng = random.Random(seed)
    forest = relabeled(planted_encircling_forest(m, rng.randint(2, m - 2), False, 0, rng), rng)
    g = with_tree_and_ring(forest, tree_n, ring, rng)
    profile = density_profile(g)
    assert profile.m == m and len(profile.dense) == m
    problem, record = disagreement(g, limit=14)
    assert problem is None
    assert (record.has_good_set, record.chi_b) == (False, m - 1)


@given(st.integers(8, 20), st.integers(0, 2**30))
@settings(max_examples=40)
def test_characterization_on_generated_high_girth_graphs(n, seed):
    g = generate_girth_constrained(n, 8, n + 2, seed=seed)
    profile = density_profile(g)
    expected = naive_has_good_set(g, profile.m, profile.dense)
    found = find_good_set(g)
    assert (len(found.members) == profile.m) is expected
    if not expected:
        assert len(found.members) == profile.m - 1
        assert check_good_set(g, found.members, profile.m - 1) is None


@given(st.integers(1, 40), st.integers(0, 2**30))
@settings(max_examples=40)
def test_generator_girth_postcondition(n, seed):
    g = generate_girth_constrained(n, 9, n + n // 4, seed=seed)
    value = girth(g)
    assert value == ACYCLIC or value >= 9
