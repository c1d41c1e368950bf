"""Cross-module properties: the constructive pipeline against the oracle."""

import random

from hypothesis import given, settings, strategies as st

from bchrom import (
    check_b_coloring,
    density_profile,
    exact_b_chromatic,
    generate_girth_constrained,
    find_good_set,
    girth,
    run_pipeline,
    ACYCLIC,
)

from helpers import naive_has_good_set, random_tree


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
    # chi_b is exact on the whole high-girth regime, even when the witness
    # coloring is out of the oracle's reach (method nogoodset-theorem)
    assert outcome.record.chi_b in (profile.m - 1, profile.m)
    if outcome.coloring is not None:
        assert check_b_coloring(g, outcome.coloring, outcome.record.chi_b).valid


@given(st.integers(8, 20), st.integers(0, 2**30))
@settings(max_examples=40)
def test_characterization_on_generated_high_girth_graphs(n, seed):
    g = generate_girth_constrained(n, 8, n + 2, seed=seed)
    profile = density_profile(g)
    expected = naive_has_good_set(g, profile.m, profile.dense)
    assert (find_good_set(g, profile) is not None) is expected


@given(st.integers(1, 40), st.integers(0, 2**30))
@settings(max_examples=40)
def test_generator_girth_postcondition(n, seed):
    g = generate_girth_constrained(n, 9, n + n // 4, seed=seed)
    value = girth(g)
    assert value == ACYCLIC or value >= 9
