import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from bchrom import GoodSet, PreconditionError, check_good_set, density_profile, find_good_set
from bchrom.goodset import encircles

from helpers import (
    cycle_graph,
    encircled_tree,
    naive_encircles,
    naive_has_good_set,
    naive_is_good_set,
    path_graph,
    random_tree,
    star_of_stars,
)


def test_encircles_path_five():
    g = path_graph(5)
    profile = density_profile(g)
    w = {1, 2, 3}
    # independent definition check first, then the implementation
    assert naive_encircles(g, w, 0, profile.m) is False
    assert encircles(g, w, 0, profile.m) is False


def test_encircles_encircled_tree():
    g = encircled_tree()
    profile = density_profile(g)
    assert profile.m == 4
    assert profile.dense == frozenset({1, 2, 3, 4})
    assert naive_encircles(g, profile.dense, 0, profile.m) is True
    assert encircles(g, profile.dense, 0, profile.m) is True


def test_encircles_empty_set_is_vacuous():
    g = path_graph(3)
    profile = density_profile(g)
    assert encircles(g, set(), 0, profile.m) is True


def test_encircles_rejects_member():
    g = path_graph(5)
    profile = density_profile(g)
    with pytest.raises(ValueError):
        encircles(g, {1, 2, 3}, 2, profile.m)


def test_is_good_set_path_five():
    g = path_graph(5)
    profile = density_profile(g)
    assert naive_is_good_set(g, {1, 2, 3}, profile.m, profile.dense)
    assert check_good_set(g, {1, 2, 3}, profile) is None


def test_is_good_set_reports_encircled_vertex():
    g = encircled_tree()
    profile = density_profile(g)
    violation = check_good_set(g, profile.dense, profile)
    assert violation is not None
    assert violation.kind == "encircles"
    assert violation.witness == 0


def test_is_good_set_star_of_stars():
    g = star_of_stars()
    profile = density_profile(g)
    assert profile.m == 3
    assert naive_is_good_set(g, {0, 1, 2}, profile.m, profile.dense)
    assert check_good_set(g, {0, 1, 2}, profile) is None


def test_is_good_set_wrong_size_and_not_dense():
    g = path_graph(5)
    profile = density_profile(g)
    assert check_good_set(g, {1, 2}, profile).kind == "wrong-size"
    assert check_good_set(g, {0, 1, 2}, profile).kind == "not-dense"


def test_uncovered_high_degree_reason():
    # two disjoint claws: m = 2, and {center, leaf} of one claw leaves the
    # other center (degree 3 >= m) without a neighbor in W
    from bchrom import Graph

    g = Graph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)])
    profile = density_profile(g)
    assert profile.m == 2
    violation = check_good_set(g, {0, 1}, profile)
    assert violation is not None
    assert violation.kind == "uncovered-high-degree"
    assert violation.witness == 4


def test_has_good_set_examples():
    t_enc = encircled_tree()
    assert find_good_set(t_enc, density_profile(t_enc)) is None

    c9 = cycle_graph(9)
    profile = density_profile(c9)
    assert profile.m == 3
    assert len(profile.dense) == 9
    assert find_good_set(c9, profile) is not None

    p5 = path_graph(5)
    assert find_good_set(p5, density_profile(p5)) is not None


def test_has_good_set_requires_girth_eight():
    c5 = cycle_graph(5)
    with pytest.raises(PreconditionError):
        find_good_set(c5, density_profile(c5))
    # girth exactly 8 is allowed
    c8 = cycle_graph(8)
    assert find_good_set(c8, density_profile(c8)) is not None


def test_find_good_set_path_five():
    g = path_graph(5)
    profile = density_profile(g)
    found = find_good_set(g, profile)
    assert found is not None
    assert check_good_set(g, found.members, profile) is None


def test_find_good_set_none_for_encircled_tree():
    g = encircled_tree()
    assert find_good_set(g, density_profile(g)) is None


def test_good_set_members_must_increase():
    with pytest.raises(ValueError):
        GoodSet((2, 1))


@given(st.integers(1, 10), st.integers(0, 2**30))
def test_characterization_matches_exhaustive_enumeration(n, seed):
    rng = random.Random(seed)
    g = random_tree(n, rng)
    profile = density_profile(g)
    expected = naive_has_good_set(g, profile.m, profile.dense)
    found = find_good_set(g, profile)
    if expected:
        assert found is not None
        assert naive_is_good_set(g, found.members, profile.m, profile.dense)
    else:
        assert found is None


@given(st.integers(1, 12), st.integers(0, 2**30))
def test_more_dense_than_m_implies_good_set(n, seed):
    rng = random.Random(seed)
    g = random_tree(n, rng)
    profile = density_profile(g)
    if len(profile.dense) > profile.m:
        assert find_good_set(g, profile) is not None


def test_find_good_set_agrees_with_enumeration_on_every_subset():
    # spot-check that the search returns a subset the enumerator also accepts
    g = star_of_stars()
    profile = density_profile(g)
    found = find_good_set(g, profile)
    accepted = [
        set(sub)
        for sub in combinations(sorted(profile.dense), profile.m)
        if naive_is_good_set(g, sub, profile.m, profile.dense)
    ]
    assert set(found.members) in accepted
