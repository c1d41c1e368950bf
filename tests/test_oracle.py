import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from bchrom import Graph, OracleLimitError, check_b_coloring, density_profile, exact_b_chromatic
from bchrom.goodset import find_encircled_vertex, find_good_set
from bchrom.oracle import MAX_ORACLE_LIMIT, Violation, find_b_coloring_exact

from helpers import (
    by_vertex_id,
    chorded_trees,
    chromatic_number,
    cycle_graph,
    encircled_tree,
    exact_b_chromatic_unpruned,
    find_b_coloring_unpruned,
    naive_check_b_coloring,
    naive_m,
    path_graph,
    proper_coloring_ok,
    random_simple_graph,
    random_tree,
    set_based_extend_basis,
    set_based_find_b_coloring_exact,
    star_of_stars,
    starved_basis,
)


def test_check_path_five_construction():
    g = path_graph(5)
    coloring = [3, 1, 2, 3, 1]
    report = check_b_coloring(g, coloring, 3)
    assert report.proper and report.valid
    assert report.basis == {1: 1, 2: 2, 3: 3}


def test_check_single_vertex():
    report = check_b_coloring(Graph(1, []), [1], 1)
    assert report.valid
    assert report.basis == {1: 0}


def test_check_monochromatic_edge():
    g = Graph(2, [(0, 1)])
    report = check_b_coloring(g, [1, 1], 1)
    assert not report.proper
    assert any(v.kind == "monochromatic-edge" and v.witness == (0, 1) for v in report.violations)
    assert report.basis is None


def test_check_color_gap_and_missing_b_vertex():
    g = path_graph(4)
    report = check_b_coloring(g, [1, 2, 1, 2], 3)
    kinds = {v.kind for v in report.violations}
    assert "color-gap" in kinds  # color 3 unused
    report2 = check_b_coloring(g, [1, 2, 3, 1], 3)
    assert any(v.kind == "class-without-b-vertex" for v in report2.violations)


def test_check_refuses_k_below_one():
    with pytest.raises(ValueError, match=r"^k must be positive$"):
        check_b_coloring(Graph(1, []), [1], 0)


def test_find_exact_refuses_k_below_one():
    with pytest.raises(ValueError, match=r"^k must be positive$"):
        find_b_coloring_exact(path_graph(3), 0)


def test_exact_refuses_the_empty_graph():
    with pytest.raises(ValueError, match=r"^the b-chromatic number is undefined for the empty graph$"):
        exact_b_chromatic(Graph(0, []))


def test_check_rejects_partial():
    with pytest.raises(ValueError, match="^coloring has 2 entries for 3 vertices$"):
        check_b_coloring(path_graph(3), [1, 2], 2)


def test_check_picks_the_lowest_id_b_vertex_of_each_class():
    # class 1 is {0, 2, 4} with b-vertices 2 and 4 (0 is isolated);
    # class 2 is {1, 3, 5} with b-vertices 3 and 5
    g = Graph(6, [(2, 3), (4, 5)])
    coloring = [1, 2, 1, 2, 1, 2]
    report = check_b_coloring(g, coloring, 2)
    assert report.valid
    assert list(report.basis.items()) == [(1, 2), (2, 3)]
    assert report == naive_check_b_coloring(g, dict(enumerate(coloring)), 2)


def draw_coloring(g: Graph, mode: str, rng: random.Random) -> tuple[list[int], int]:
    """A coloring of g, by vertex id, and a k to check it against.

    "random" colors are drawn from -1..k+2, so they may clash, leave gaps
    and fall outside 1..k; "greedy" is a proper first-fit coloring checked
    against a k from one below to two above its color count; "witness" is
    an exact b-coloring where the search finds one.  Half the time one
    vertex is then recolored at random, to a color in 0..k+1.
    """
    if mode == "random":
        k = rng.randint(1, g.n + 2)
        coloring = [rng.randint(-1, k + 2) for _ in range(g.n)]
    else:
        coloring = None
        if mode == "witness" and g.n <= 9:
            k = rng.randint(1, density_profile(g).m) if g.n else 1
            coloring = find_b_coloring_exact(g, k)
        if coloring is None:
            coloring = [0] * g.n  # 0: not colored yet
            for u in rng.sample(range(g.n), g.n):
                taken = {coloring[v] for v in g.adj[u]}
                coloring[u] = min(c for c in range(1, g.n + 2) if c not in taken)
            k = max(1, max(coloring, default=0) + rng.randint(-1, 2))
    if g.n and rng.random() < 0.5:
        coloring[rng.randrange(g.n)] = rng.randint(0, k + 1)
    return coloring, k


@given(
    st.integers(0, 30),
    st.sampled_from([0.1, 0.25, 0.5]),
    st.sampled_from(["random", "greedy", "witness"]),
    st.integers(0, 2**30),
)
def test_check_matches_the_naive_checker(n, edge_prob, mode, seed):
    rng = random.Random(seed)
    g = random_simple_graph(n, edge_prob, rng)
    coloring, k = draw_coloring(g, mode, rng)
    report = check_b_coloring(g, coloring, k)
    # the reference takes a mapping; a 0 entry is a color to both
    expected = naive_check_b_coloring(g, dict(enumerate(coloring)), k)
    assert report == expected
    if report.basis is not None:
        assert list(report.basis.items()) == list(expected.basis.items())


def test_check_reports_a_zero_as_a_color_gap():
    g = path_graph(5)
    report = check_b_coloring(g, [3, 1, 0, 3, 0], 3)
    assert report.proper and not report.valid and report.basis is None
    assert report.colors_used == 3
    assert report.violations == (
        Violation("color-gap", 0),
        Violation("color-gap", 2),
        Violation("class-without-b-vertex", 1),
        Violation("class-without-b-vertex", 3),
    )
    with pytest.raises(ValueError, match="^coloring has 4 entries for 5 vertices$"):
        check_b_coloring(g, [3, 1, 2, 3], 3)


def test_find_exact_examples():
    p5 = path_graph(5)
    found = find_b_coloring_exact(p5, 3)
    assert found is not None
    assert check_b_coloring(p5, found, 3).valid
    # the deterministic search lands on the same witness as the construction
    assert found == [3, 1, 2, 3, 1]

    t_enc = encircled_tree()
    assert find_b_coloring_exact(t_enc, 4) is None

    k2 = Graph(2, [(0, 1)])
    assert find_b_coloring_exact(k2, 2) == [1, 2]


def test_exact_values_for_named_instances():
    cases = [
        (path_graph(5), 3),
        (encircled_tree(), 3),
        (cycle_graph(9), 3),
        (star_of_stars(), 3),
        (Graph(1, []), 1),
        (Graph(4, []), 1),
    ]
    for g, expected in cases:
        k, witness = exact_b_chromatic(g)
        assert k == expected
        assert check_b_coloring(g, witness, k).valid


def test_oracle_limit_refusal():
    big = path_graph(15)
    with pytest.raises(OracleLimitError):
        exact_b_chromatic(big)
    # the cap is configuration, not a hard-coded constant
    assert exact_b_chromatic(big, limit=15)[0] == 3


def test_oracle_limit_above_the_recursion_cap_is_a_value_error():
    # the backtracking search recurses once per vertex outside the basis
    g = path_graph(5)
    with pytest.raises(ValueError, match=f"above the largest allowed, {MAX_ORACLE_LIMIT}"):
        find_b_coloring_exact(g, 2, limit=MAX_ORACLE_LIMIT + 1)
    with pytest.raises(ValueError, match=f"above the largest allowed, {MAX_ORACLE_LIMIT}"):
        exact_b_chromatic(g, limit=MAX_ORACLE_LIMIT + 1)
    assert exact_b_chromatic(g, limit=MAX_ORACLE_LIMIT)[0] == 3


def test_encircled_basis_never_witnesses_m_colors():
    # the dense set of the encircled tree has size m = 4 and encircles
    # vertex 0, so it cannot be a basis: the exact search, which has no
    # encirclement test, refutes it by exhaustion, and so does the search
    # without the starvation prune
    g = encircled_tree()
    assert find_b_coloring_exact(g, 4) is None
    assert find_b_coloring_unpruned(g, 4) is None


def test_prune_soundness_small_sweep():
    # the starvation prune changes no value
    rng = random.Random(20240)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_simple_graph(n, 0.35, rng)
        with_prune = exact_b_chromatic(g)[0]
        without = exact_b_chromatic_unpruned(g)
        assert with_prune == without


def assert_prune_keeps_witness(g: Graph, k: int) -> None:
    # the starvation prune skips only bases that hold no b-coloring
    pruned = find_b_coloring_exact(g, k)
    assert pruned == by_vertex_id(find_b_coloring_unpruned(g, k), g.n)


@given(st.integers(1, 9), st.sampled_from([0.25, 0.4, 0.6]), st.integers(0, 2**30))
def test_prune_keeps_the_witness_at_every_k_on_graphs(n, edge_prob, seed):
    g = random_simple_graph(n, edge_prob, random.Random(seed))
    for k in range(1, density_profile(g).m + 1):
        assert_prune_keeps_witness(g, k)


@given(st.integers(1, 10), st.integers(0, 2**30))
def test_prune_keeps_the_witness_at_every_k_on_trees(n, seed):
    g = random_tree(n, random.Random(seed))
    for k in range(1, density_profile(g).m + 1):
        assert_prune_keeps_witness(g, k)


@pytest.mark.parametrize("k", [3, 4])
def test_prune_keeps_the_witness_on_the_encircled_tree(k):
    assert_prune_keeps_witness(encircled_tree(), k)


def assert_starved_bases_hold_no_b_coloring(g: Graph) -> None:
    for k in range(1, density_profile(g).m + 1):
        eligible = [v for v in range(g.n) if len(g.adj[v]) >= k - 1]
        for basis in combinations(eligible, k):
            if starved_basis(g, basis):
                assert set_based_extend_basis(g, basis, k) is None, (basis, k)


@given(st.integers(1, 10), st.sampled_from([0.25, 0.4, 0.6]), st.integers(0, 2**30))
def test_starved_bases_hold_no_b_coloring_on_graphs(n, edge_prob, seed):
    assert_starved_bases_hold_no_b_coloring(random_simple_graph(n, edge_prob, random.Random(seed)))


@given(st.integers(1, 10), st.integers(0, 2**30))
def test_starved_bases_hold_no_b_coloring_on_trees(n, seed):
    assert_starved_bases_hold_no_b_coloring(random_tree(n, random.Random(seed)))


def test_starvation_skips_a_basis_that_encircles_nothing():
    # K_{2,3} with parts {0, 1, 2} and {3, 4}, k = 3, basis (0, 3, 4): every
    # neighbor of 3 outside the basis is adjacent to 4, so 3 sees no vertex
    # that could carry 4's color.  Nothing outside is encircled (1 and 2 have
    # no neighbor of degree 2), so the reference's encirclement prune keeps
    # it, and the starvation prune skips it.
    g = Graph(5, [(u, v) for u in (0, 1, 2) for v in (3, 4)])
    basis = (0, 3, 4)
    assert starved_basis(g, basis)
    assert find_encircled_vertex(g, basis, 3) is None
    assert set_based_extend_basis(g, basis, 3) is None
    assert find_b_coloring_exact(g, 3) is None
    assert find_b_coloring_unpruned(g, 3) is None


def assert_kernel_matches_the_set_based_search(g: Graph, limit: int = 14) -> None:
    # the reference skips the bases that encircle a vertex and the kernel
    # extends them, so a match means none of them held the first witness
    for k in range(1, density_profile(g).m + 1):
        found = find_b_coloring_exact(g, k, limit=limit)
        assert found == by_vertex_id(set_based_find_b_coloring_exact(g, k, limit=limit), g.n), k


@given(st.integers(1, 10), st.sampled_from([0.25, 0.4, 0.6]), st.integers(0, 2**30))
def test_kernel_matches_the_set_based_search_on_graphs(n, edge_prob, seed):
    assert_kernel_matches_the_set_based_search(random_simple_graph(n, edge_prob, random.Random(seed)))


@given(st.integers(1, 10), st.integers(0, 2**30))
def test_kernel_matches_the_set_based_search_on_trees(n, seed):
    assert_kernel_matches_the_set_based_search(random_tree(n, random.Random(seed)))


def test_kernel_matches_the_set_based_search_at_benchmark_size():
    # dense graphs shaped like the benchmark's oracle inputs, then trees above
    # the default cap, where the search runs under a raised limit
    rng = random.Random(1212)
    for _ in range(30):
        g = random_simple_graph(rng.randint(12, 14), rng.uniform(0.4, 0.6), rng)
        assert_kernel_matches_the_set_based_search(g)
    for _ in range(4):
        assert_kernel_matches_the_set_based_search(random_tree(rng.randint(15, 18), rng), limit=18)


def test_the_witness_at_m_has_the_construction_basis_where_w0_is_good():
    """On every tree with at most 12 vertices and every one-chord graph of
    girth >= 9 with 9 to 12, 1,204 of their 1,320 graphs, ``find_good_set``
    returns W0 itself, the first m(G) dense vertices by (-degree, id).
    There the exact search tries W0 first at m(G), so its witness gives
    W0's i-th member in that rank color i + 1, and each member is a
    b-vertex (the argument in ``find_b_coloring_exact``'s docstring)."""
    count = 0
    for chords, sizes in ((0, range(1, 13)), (1, range(9, 13))):
        for g in (g for n in sizes for g in chorded_trees(n, chords)):
            m = naive_m(g)
            w0 = sorted((v for v in range(g.n) if len(g.adj[v]) >= m - 1), key=lambda v: (-len(g.adj[v]), v))[:m]
            if sorted(w0) != list(find_good_set(g).members):  # a swap, or no good set for m(G)
                continue
            witness = find_b_coloring_exact(g, m)
            assert [witness[v] for v in w0] == list(range(1, m + 1)), g.adj
            for v in w0:
                assert {witness[u] for u in g.adj[v]} | {witness[v]} == set(range(1, m + 1)), (g.adj, v)
            count += 1
    assert count == 1204


@given(st.integers(1, 9), st.integers(0, 2**30))
def test_returned_colorings_always_validate(n, seed):
    rng = random.Random(seed)
    g = random_simple_graph(n, 0.3, rng)
    value, witness = exact_b_chromatic(g)
    assert witness == find_b_coloring_exact(g, value)
    report = check_b_coloring(g, witness, value)
    assert report.valid and report.basis is not None
    assert proper_coloring_ok(g, dict(enumerate(witness)))


@given(st.integers(1, 9), st.integers(0, 2**30))
def test_chi_chain_of_bounds(n, seed):
    rng = random.Random(seed)
    g = random_simple_graph(n, 0.35, rng)
    profile = density_profile(g)
    value = exact_b_chromatic(g)[0]
    assert chromatic_number(g) <= value <= profile.m


@given(st.integers(1, 10), st.integers(0, 2**30))
def test_trees_land_within_one_of_m(n, seed):
    rng = random.Random(seed)
    g = random_tree(n, rng)
    profile = density_profile(g)
    assert exact_b_chromatic(g)[0] in (profile.m - 1, profile.m)
