"""Cross-module properties: the constructive pipeline against the oracle."""

import random

from hypothesis import assume, example, given, settings, strategies as st

from bchrom import (
    check_b_coloring,
    check_good_set,
    density_profile,
    exact_b_chromatic,
    generate_girth_constrained,
    find_good_set,
    girth,
    run_pipeline,
    ACYCLIC,
)

from helpers import naive_has_good_set, planted_encircling_forest, random_tree, with_tree_and_ring


@given(st.integers(1, 12), st.integers(0, 2**30))
def test_pipeline_matches_oracle_on_trees(n, seed):
    rng = random.Random(seed)
    g = random_tree(n, rng)
    outcome = run_pipeline(g, compute_chi_b=True)
    assert outcome.record.chi_b == exact_b_chromatic(g)[0]
    if outcome.coloring is not None:
        assert check_b_coloring(g, outcome.coloring, outcome.record.chi_b).valid


@given(st.integers(9, 14), st.integers(0, 2**30))
@settings(max_examples=60)
def test_pipeline_matches_oracle_on_high_girth_graphs(n, seed):
    g = generate_girth_constrained(n, 9, n + 3, seed=seed)
    outcome = run_pipeline(g, compute_chi_b=True)
    assert outcome.record.chi_b == exact_b_chromatic(g)[0]


@given(st.integers(1, 60), st.integers(0, 2**30))
@settings(max_examples=60)
def test_high_girth_value_is_m_or_m_minus_one(n, seed):
    g = generate_girth_constrained(n, 9, max(n, 1), seed=seed)
    profile = density_profile(g)
    outcome = run_pipeline(g, compute_chi_b=True, oracle_limit=14)
    # chi_b is exact on the whole high-girth regime, and the construction
    # witnesses it at any n, with or without a good set
    assert outcome.record.chi_b in (profile.m - 1, profile.m)
    assert outcome.record.chi_b_method == "construction"
    assert outcome.coloring is not None
    assert check_b_coloring(g, outcome.coloring, outcome.record.chi_b).valid


@given(st.integers(4, 12), st.integers(0, 2**30), st.integers(0, 12), st.sampled_from([0, 9, 13, 30]))
@example(4, 0, 0, 0)
@example(4, 1, 2, 0)
@settings(max_examples=60)
def test_no_good_set_graphs_get_checked_m_minus_one_colorings(m, seed, tree_n, ring):
    # M(G) is the m planted members, which encircle u (of degree at most
    # m - 2), so no good set exists; the tree and the ring add no dense
    # vertex when the filter holds
    rng = random.Random(seed)
    forest = planted_encircling_forest(m, rng.randint(2, m - 2), False, 0, rng)
    g = with_tree_and_ring(forest, tree_n, ring, rng)
    profile = density_profile(g)
    assume(profile.m == m and len(profile.dense) == m)
    outcome = run_pipeline(g, compute_chi_b=True)
    record = outcome.record
    assert (record.has_good_set, record.chi_b, record.chi_b_method) == (False, m - 1, "construction")
    assert check_b_coloring(g, outcome.coloring, m - 1).valid
    if g.n <= 14:
        assert exact_b_chromatic(g)[0] == m - 1


@given(st.integers(8, 20), st.integers(0, 2**30))
@settings(max_examples=40)
def test_characterization_on_generated_high_girth_graphs(n, seed):
    g = generate_girth_constrained(n, 8, n + 2, seed=seed)
    profile = density_profile(g)
    expected = naive_has_good_set(g, profile.m, profile.dense)
    found = find_good_set(g, profile)
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
