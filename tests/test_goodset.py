import random
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from bchrom import (
    GoodSet,
    Graph,
    InvariantViolation,
    PreconditionError,
    b_coloring_with_good_set,
    density_profile,
    find_good_set,
)
from bchrom.goodset import (
    DensityProfile,
    GoodSetViolation,
    _swap,
    check_good_set,
    encirclement_cover,
    find_encircled_vertex,
)

from helpers import (
    backtracking_good_set,
    cycle_graph,
    encircled_tree,
    naive_encircles,
    naive_has_good_set,
    naive_is_good_set,
    path_graph,
    planted_encircling_forest,
    random_tree,
    relabeled,
    star_of_stars,
    tree_from_prufer,
)


def test_encircles_path_five():
    g = path_graph(5)
    profile = density_profile(g)
    w = {1, 2, 3}
    # independent definition check first, then the implementation
    assert naive_encircles(g, w, 0, profile.m) is False
    assert not w <= encirclement_cover(g, w, 0, profile.m)


def test_find_encircled_vertex_refuses_an_empty_set():
    with pytest.raises(ValueError, match=r"^candidate set must be nonempty$"):
        find_encircled_vertex(path_graph(5), [], 3)


def test_encircles_encircled_tree():
    g = encircled_tree()
    profile = density_profile(g)
    assert profile.m == 4
    assert profile.dense == frozenset({1, 2, 3, 4})
    assert naive_encircles(g, profile.dense, 0, profile.m) is True
    assert profile.dense <= encirclement_cover(g, profile.dense, 0, profile.m)


def test_is_good_set_path_five():
    g = path_graph(5)
    profile = density_profile(g)
    assert naive_is_good_set(g, {1, 2, 3}, profile.m, profile.dense)
    assert check_good_set(g, {1, 2, 3}, profile.m) is None


def test_is_good_set_reports_encircled_vertex():
    g = encircled_tree()
    profile = density_profile(g)
    violation = check_good_set(g, profile.dense, profile.m)
    assert violation is not None
    assert violation.kind == "encircles"
    assert violation.witness == 0


def test_is_good_set_star_of_stars():
    g = star_of_stars()
    profile = density_profile(g)
    assert profile.m == 3
    assert naive_is_good_set(g, {0, 1, 2}, profile.m, profile.dense)
    assert check_good_set(g, {0, 1, 2}, profile.m) is None


def test_is_good_set_wrong_size_and_not_dense():
    g = path_graph(5)
    profile = density_profile(g)
    assert check_good_set(g, {1, 2}, profile.m).kind == "wrong-size"
    assert check_good_set(g, {0, 1, 2}, profile.m).kind == "not-dense"


def test_uncovered_high_degree_reason():
    # two disjoint claws: m = 2, and {center, leaf} of one claw leaves the
    # other center (degree 3 >= m) without a neighbor in W
    g = Graph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)])
    profile = density_profile(g)
    assert profile.m == 2
    violation = check_good_set(g, {0, 1}, profile.m)
    assert violation is not None
    assert violation.kind == "uncovered-high-degree"
    assert violation.witness == 4


def _assert_good_for_m_minus_one(g, found, profile):
    """found is the set find_good_set returns without a good set for m(G):
    M(G) less one vertex, good for m(G) - 1 by the package and by definition."""
    k = profile.m - 1
    assert len(found.members) == k and set(found.members) < profile.dense
    assert check_good_set(g, found.members, k) is None
    assert naive_is_good_set(g, found.members, k, [v for v in range(g.n) if len(g.adj[v]) >= k - 1])


def test_has_good_set_examples():
    t_enc = encircled_tree()
    t_profile = density_profile(t_enc)
    _assert_good_for_m_minus_one(t_enc, find_good_set(t_enc), t_profile)

    c9 = cycle_graph(9)
    profile = density_profile(c9)
    assert profile.m == 3
    assert len(profile.dense) == 9
    assert len(find_good_set(c9).members) == profile.m

    p5 = path_graph(5)
    assert len(find_good_set(p5).members) == 3


def test_has_good_set_requires_girth_eight():
    c5 = cycle_graph(5)
    with pytest.raises(PreconditionError):
        find_good_set(c5)
    # girth exactly 8 is allowed
    c8 = cycle_graph(8)
    assert len(find_good_set(c8).members) == 3


def test_find_good_set_path_five():
    g = path_graph(5)
    profile = density_profile(g)
    found = find_good_set(g)
    assert len(found.members) == profile.m
    assert check_good_set(g, found.members, profile.m) is None


def test_find_good_set_drops_one_member_for_encircled_tree():
    # M(G) = {1, 2, 3, 4} encircles 0, which touches 1 and 2; x = 3 is the
    # lowest-id member not adjacent to 0, and M(G) - x is good for 3 colors
    g = encircled_tree()
    profile = density_profile(g)
    found = find_good_set(g)
    assert found.members == (1, 2, 4)
    (x,) = profile.dense - set(found.members)
    assert x == 3 and x not in g.adj[0]
    assert check_good_set(g, profile.dense, profile.m) == GoodSetViolation("encircles", 0)
    _assert_good_for_m_minus_one(g, found, profile)


def test_good_set_members_must_increase():
    with pytest.raises(ValueError):
        GoodSet((2, 1))


@given(st.integers(1, 10), st.integers(0, 2**30))
def test_characterization_matches_exhaustive_enumeration(n, seed):
    rng = random.Random(seed)
    g = random_tree(n, rng)
    profile = density_profile(g)
    expected = naive_has_good_set(g, profile.m, profile.dense)
    found = find_good_set(g)
    if expected:
        assert len(found.members) == profile.m
        assert naive_is_good_set(g, found.members, profile.m, profile.dense)
    else:
        _assert_good_for_m_minus_one(g, found, profile)


@given(st.integers(1, 12), st.integers(0, 2**30))
def test_more_dense_than_m_implies_good_set(n, seed):
    rng = random.Random(seed)
    g = random_tree(n, rng)
    profile = density_profile(g)
    if len(profile.dense) > profile.m:
        assert len(find_good_set(g).members) == profile.m


def test_find_good_set_agrees_with_enumeration_on_every_subset():
    # spot-check that the search returns a subset the enumerator also accepts
    g = star_of_stars()
    profile = density_profile(g)
    found = find_good_set(g)
    accepted = [
        set(sub)
        for sub in combinations(sorted(profile.dense), profile.m)
        if naive_is_good_set(g, sub, profile.m, profile.dense)
    ]
    assert set(found.members) in accepted


def _first_dense(g, profile):
    """W0: the first m(G) dense vertices by (-degree, id), sorted by id."""
    return tuple(sorted(sorted(profile.dense, key=lambda v: (-len(g.adj[v]), v))[: profile.m]))


def test_swap_case_two_on_relabelled_path():
    # the path 4-0-3-1-2-5: W0 = (0, 1, 2) encircles 3, and M - W0 = {3}
    g = Graph(6, [(4, 0), (0, 3), (3, 1), (1, 2), (2, 5)])
    profile = density_profile(g)
    assert profile.m == 3 and profile.dense == frozenset({0, 1, 2, 3})
    assert _first_dense(g, profile) == (0, 1, 2)
    assert naive_encircles(g, {0, 1, 2}, 3, profile.m)
    found = find_good_set(g)
    assert found.members == (1, 2, 3)
    assert naive_is_good_set(g, found.members, profile.m, profile.dense)


def test_swap_case_one_on_relabelled_path():
    # the path 5-0-3-1-2-4-6: W0 = (0, 1, 2) encircles 3; z = 4 replaces p0 = 1
    g = Graph(7, [(5, 0), (0, 3), (3, 1), (1, 2), (2, 4), (4, 6)])
    profile = density_profile(g)
    assert profile.m == 3 and profile.dense == frozenset({0, 1, 2, 3, 4})
    assert _first_dense(g, profile) == (0, 1, 2)
    assert naive_encircles(g, {0, 1, 2}, 3, profile.m)
    found = find_good_set(g)
    assert found.members == (0, 2, 4)
    assert naive_is_good_set(g, found.members, profile.m, profile.dense)


def test_every_good_set_may_leave_out_a_high_degree_vertex():
    # H = {4, 7} (degree 3 = m); W0 = (0, 4, 7) encircles 2, and the swap
    # drops 7, whose neighbor 2 joins the set
    g = Graph(8, [(0, 2), (0, 4), (1, 4), (2, 7), (3, 4), (5, 7), (6, 7)])
    profile = density_profile(g)
    assert profile.m == 3
    high = {v for v in range(g.n) if len(g.adj[v]) >= profile.m}
    assert high == {4, 7}
    good = [
        sub
        for sub in combinations(sorted(profile.dense), profile.m)
        if naive_is_good_set(g, sub, profile.m, profile.dense)
    ]
    assert good == [(0, 2, 4), (0, 2, 7)]
    assert all(not high <= set(sub) for sub in good)
    assert find_good_set(g).members == (0, 2, 4)


def _prufer_trees(max_n):
    yield Graph(1, [])
    yield Graph(2, [(0, 1)])
    for n in range(3, max_n + 1):
        for seq in product(range(n), repeat=n - 2):
            yield tree_from_prufer(list(seq))


def test_swap_repairs_every_failing_superset_of_the_high_vertices():
    """On every labelled tree with n <= 7 and |M| > m, every set W of m dense
    vertices that holds all vertices of degree >= m and encircles some u is
    made good by the swap for u."""
    repaired = 0
    for g in _prufer_trees(7):
        profile = density_profile(g)
        m = profile.m
        if len(profile.dense) == m:
            continue
        high = {v for v in range(g.n) if len(g.adj[v]) >= m}
        rest = sorted(profile.dense - high)
        for extra in combinations(rest, m - len(high)):
            members = tuple(sorted(high.union(extra)))
            for u in range(g.n):
                if u in members or not naive_encircles(g, members, u, m):
                    continue
                swapped = _swap(g, profile, members, u)
                assert naive_is_good_set(g, swapped, m, profile.dense), (g.adj, members, u)
                repaired += 1
    assert repaired == 15840


def test_find_good_set_makes_at_most_two_checks(monkeypatch):
    import bchrom.goodset

    calls = []
    real = bchrom.goodset.check_good_set

    def counted(*args):
        calls.append(tuple(args[1:3]))
        return real(*args)

    monkeypatch.setattr(bchrom.goodset, "check_good_set", counted)
    # W0 at m, then the swapped set at m
    g = Graph(7, [(5, 0), (0, 3), (3, 1), (1, 2), (2, 4), (4, 6)])
    found = find_good_set(g)
    assert found.members == (0, 2, 4) and g._good_set is found
    assert calls == [((0, 1, 2), 3), ((0, 2, 4), 3)]
    # the stored set comes back with no check
    calls.clear()
    assert find_good_set(g) is found and calls == []
    # without a good set for m(G): W0 at m, then M(G) - x at m - 1
    calls.clear()
    t_enc = encircled_tree()
    found = find_good_set(t_enc)
    assert found.members == (1, 2, 4) and t_enc._good_set is found
    assert calls == [((1, 2, 3, 4), 4), ((1, 2, 4), 3)]
    # W0 good at once: one check
    calls.clear()
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert find_good_set(star).members == (0, 1)
    assert calls == [((0, 1), 2)]


def test_case_iii_set_is_checked(monkeypatch):
    # u = 4 is adjacent to 0, 1 and 2, and 3 hangs off the witness 0, of
    # degree m - 1 = 3; 1, 2 and 3 carry three leaves each.  M(G) is
    # {0, ..., 4}, and W0 = (0, 1, 2, 3) encircles the dense vertex 4.
    import bchrom.goodset

    edges = [(4, 0), (4, 1), (4, 2), (0, 3), (0, 5)]
    edges += [(v, 6 + 3 * i + j) for i, v in enumerate((1, 2, 3)) for j in range(3)]
    g = Graph(15, edges)
    profile = density_profile(g)
    assert profile.m == 4 and profile.dense == frozenset(range(5))
    assert find_good_set(g).members == (0, 2, 3, 4)  # case (ii)
    # a profile that leaves out 4 sends W0 to case (iii); M - x = (0, 1, 2)
    # is adjacent to all of 4, so it encircles 4 at m - 1, and is refused
    monkeypatch.setattr(bchrom.goodset, "density_profile", lambda g: DensityProfile(4, frozenset(range(4))))
    assert check_good_set(g, (0, 1, 2), 3) == GoodSetViolation("encircles", 4)
    fresh = Graph(15, edges)  # g stores its good set, which find_good_set would return unchecked
    with pytest.raises(InvariantViolation, match="the set for 3 colors failed the good-set check as encircles") as info:
        find_good_set(fresh)
    assert info.value.vertex == 4
    assert fresh._good_set is None  # a refused set is not stored


def test_a_set_failing_condition_b_is_refused_whatever_the_profile(monkeypatch):
    # five stars: centers 0-3 of degree 2, 4 of degree 3.  A profile that
    # leaves out 4 makes W0 = (0, 1, 2), which leaves 4, of degree >= 3,
    # without a neighbor in the set: the full check refuses it, and so does
    # the construction when the set is handed to it unchecked
    import bchrom.goodset

    edges = [(0, 5), (0, 6), (1, 7), (1, 8), (2, 9), (2, 10), (3, 11), (3, 12), (4, 13), (4, 14), (4, 15)]
    g = Graph(16, edges)
    assert density_profile(g) == DensityProfile(3, frozenset(range(5)))
    assert find_good_set(g).members == (0, 1, 4)
    monkeypatch.setattr(bchrom.goodset, "density_profile", lambda g: DensityProfile(3, frozenset(range(4))))
    with pytest.raises(InvariantViolation, match="the first 3 dense vertices failed the good-set check as uncovered-high-degree"):
        find_good_set(Graph(16, edges))
    assert check_good_set(g, (0, 1, 2), 3) == GoodSetViolation("uncovered-high-degree", 4)
    with pytest.raises(ValueError, match="not a good set: uncovered-high-degree"):
        b_coloring_with_good_set(g, GoodSet((0, 1, 2)))


@given(
    st.integers(3, 7),
    st.integers(0, 2**30),
    st.booleans(),
    st.integers(0, 2),
    st.integers(2, 12),
)
def test_find_good_set_agrees_with_backtracking_reference(m, seed, u_dense, extra_stars, tree_n):
    rng = random.Random(seed)
    witnesses = rng.randint(2, m - 1)
    forest = relabeled(planted_encircling_forest(m, witnesses, u_dense, extra_stars, rng), rng)
    for g in (forest, random_tree(tree_n, rng)):
        profile = density_profile(g)
        found = find_good_set(g)
        reference = backtracking_good_set(g)
        assert (len(found.members) == profile.m) == (reference is not None)
        if reference is not None:
            assert naive_is_good_set(g, found.members, profile.m, profile.dense)
        else:
            _assert_good_for_m_minus_one(g, found, profile)
        if check_good_set(g, _first_dense(g, profile), profile.m) is None:
            assert found == reference
