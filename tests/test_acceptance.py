"""Acceptance suite: desk-scale, end-to-end checks of the whole pipeline.

Each criterion is one test that prints a single PASS line (visible with
``pytest -v -s tests/test_acceptance.py``).  Everything is seeded, exact,
and checked at tolerance zero.
"""

import random
from itertools import combinations, product

from bchrom import (
    ACYCLIC,
    b_coloring_with_good_set,
    check_b_coloring,
    density_profile,
    exact_b_chromatic,
    find_good_set,
    girth,
)
from bchrom.cli import run_pipeline
from bchrom.graph import generate_girth_constrained

from helpers import (
    brute_force_girth,
    cycle_graph,
    disagreement,
    encircled_tree,
    fallback_pick_tree,
    greedy_trap_forest,
    high_degree_leftover_forest,
    naive_is_good_set,
    path_graph,
    petersen_graph,
    random_simple_graph,
    random_tree,
    star_of_stars,
    steal_chain_tree,
    tree_from_prufer,
    two_fan_tree,
)


def _generated_corpus(count, max_n, min_girth, seed):
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        budget = rng.randint(max(n - 1, 0), max(n + n // 3, 1))
        graphs.append(generate_girth_constrained(n, min_girth, budget, seed=rng.randrange(2**32)))
    return graphs


def _all_labeled_trees(max_n):
    yield path_graph(1)
    yield path_graph(2)
    for n in range(3, max_n + 1):
        for seq in product(range(n), repeat=n - 2):
            yield tree_from_prufer(list(seq))


def test_criterion_1_high_girth_pipeline_at_scale():
    """>= 500 generated girth->=9 graphs up to n = 200: chi_b is m or m-1,
    by construction, and every coloring validates at the claimed k."""
    graphs = _generated_corpus(count=500, max_n=200, min_girth=9, seed=1_2025)
    for g in graphs:
        problem, record = disagreement(g, limit=0)
        assert problem is None and record.girth >= 9, (g.n, problem)
    assert len(graphs) >= 500
    print(
        f"\nACCEPTANCE 1 PASS: {len(graphs)} girth->=9 graphs, chi_b always in {{m-1, m}} by construction, "
        "every coloring valid"
    )


def test_criterion_2_oracle_equivalence():
    """Pipeline chi_b equals the exact oracle, and both witnesses validate,
    on every labeled tree with n <= 6, on >= 2000 random labeled trees with
    n <= 10, and on >= 200 random girth->=9 graphs with n <= 14.  Tolerance
    zero."""
    rng = random.Random(77)
    trees = [*_all_labeled_trees(6), *(random_tree(rng.randint(1, 10), rng) for _ in range(2000))]
    graphs = _generated_corpus(count=200, max_n=14, min_girth=9, seed=4242)
    for g in trees + graphs:
        problem, _ = disagreement(g, limit=14)
        assert problem is None, (g.adj, problem)
    print(f"\nACCEPTANCE 2 PASS: oracle equality on {len(trees)} trees and {len(graphs)} girth->=9 graphs")


def test_criterion_3_goodset_characterization_vs_enumeration():
    """find_good_set finds a good set for m(G) exactly when exhaustive
    enumeration of all m-subsets of the dense vertices does, and otherwise
    one for m(G) - 1, on every corpus graph with girth >= 8, |M| <= 18."""
    corpus = [
        path_graph(5),
        cycle_graph(8),
        cycle_graph(9),
        star_of_stars(),
        encircled_tree(),
        two_fan_tree(),
        steal_chain_tree(),
        fallback_pick_tree(),
        high_degree_leftover_forest(),
        greedy_trap_forest(),
    ]
    rng = random.Random(9001)
    for _ in range(60):
        corpus.append(random_tree(rng.randint(1, 12), rng))
    corpus.extend(_generated_corpus(count=40, max_n=20, min_girth=8, seed=515))
    corpus.extend(_generated_corpus(count=40, max_n=22, min_girth=9, seed=616))
    checked = 0
    for g in corpus:
        if g.n == 0:
            continue
        gv = girth(g)
        profile = density_profile(g)
        if gv < 8 or len(profile.dense) > 18:
            continue
        expected = any(
            naive_is_good_set(g, subset, profile.m, profile.dense)
            for subset in combinations(sorted(profile.dense), profile.m)
        )
        found = find_good_set(g)
        k = len(found.members)
        assert (k == profile.m) is expected
        assert k in (profile.m, profile.m - 1)
        assert naive_is_good_set(g, found.members, k, [v for v in range(g.n) if len(g.adj[v]) >= k - 1])
        checked += 1
    assert checked >= 100
    print(f"\nACCEPTANCE 3 PASS: characterization matches enumeration on {checked} graphs")


def test_criterion_4_named_instances():
    """P_5, C_9, the star of stars, and the encircled 11-vertex tree."""
    p5 = path_graph(5)
    assert len(find_good_set(p5).members) == 3
    assert run_pipeline(p5, compute_chi_b=True)[0].chi_b == 3 == exact_b_chromatic(p5)[0]

    c9 = cycle_graph(9)
    assert len(find_good_set(c9).members) == 3
    assert run_pipeline(c9, compute_chi_b=True)[0].chi_b == 3 == exact_b_chromatic(c9)[0]

    sos = star_of_stars()
    assert run_pipeline(sos, compute_chi_b=True)[0].chi_b == 3 == exact_b_chromatic(sos)[0]

    t_enc = encircled_tree()
    profile = density_profile(t_enc)
    assert profile.m == 4
    assert len(find_good_set(t_enc).members) == 3 == profile.m - 1
    record, result = run_pipeline(t_enc, compute_chi_b=True)
    assert record.chi_b == 3 == profile.m - 1
    assert record.chi_b_method == "construction"
    assert check_b_coloring(t_enc, result.coloring, 3).valid
    assert exact_b_chromatic(t_enc)[0] == 3
    print("\nACCEPTANCE 4 PASS: named instances kept their exact values")


def test_criterion_5_internal_certificates_over_a_sweep():
    """The construction re-checks properness at every assignment and
    recoloring, anchor slack, the stable-set certificate, the single-recolor
    rule, and the b-vertex property on every run; here a sweep re-verifies
    the observable half from the outside as well, with m(G) colors or, from
    M(G) less one vertex when no good set exists, m(G) - 1."""
    instances = [
        path_graph(5),
        cycle_graph(9),
        star_of_stars(),
        two_fan_tree(),
        steal_chain_tree(),
        fallback_pick_tree(),
        high_degree_leftover_forest(),
        greedy_trap_forest(),
    ]
    rng = random.Random(31337)
    for _ in range(120):
        instances.append(random_tree(rng.randint(1, 60), rng))
    instances.extend(_generated_corpus(count=80, max_n=80, min_girth=9, seed=727))
    runs = 0
    for g in instances:
        if g.n == 0:
            continue
        profile = density_profile(g)
        anchors = find_good_set(g)
        k = len(anchors.members)
        assert k in (profile.m, profile.m - 1)
        result = b_coloring_with_good_set(g, anchors)
        assert result.chi_b == k
        report = check_b_coloring(g, result.coloring, k)
        assert report.valid
        recolored = [e.vertex for e in result.trace if e.recolored_from is not None]
        assert len(recolored) == len(set(recolored))
        for color, vertex in result.basis.items():
            assert result.coloring[vertex] == color
            seen = {result.coloring[u] for u in g.adj[vertex]}
            assert set(range(1, k + 1)) - {color} <= seen
        runs += 1
    assert runs >= 150
    print(f"\nACCEPTANCE 5 PASS: certificates held on {runs} constructive runs")


def test_criterion_6_girth_correctness():
    """BFS girth equals exhaustive cycle enumeration; named values exact."""
    assert girth(petersen_graph()) == 5 == brute_force_girth(petersen_graph())
    assert girth(cycle_graph(9)) == 9
    rng = random.Random(2718)
    for _ in range(40):
        assert girth(random_tree(rng.randint(1, 10), rng)) == ACYCLIC
    checked = 0
    for _ in range(300):
        g = random_simple_graph(rng.randint(1, 10), rng.uniform(0.1, 0.6), rng)
        expected = brute_force_girth(g)
        assert girth(g) == expected
        checked += 1
    print(f"\nACCEPTANCE 6 PASS: girth matched enumeration on {checked} graphs plus named instances")


def test_criterion_7_scope():
    """No further numbers to reproduce: the guarantees under test are
    exactly the exactness and validity properties exercised by criteria
    1 through 6 at desk scale."""
    print("\nACCEPTANCE 7 PASS: scope note, nothing additional to measure")
