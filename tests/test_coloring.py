import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bchrom import (
    GoodSet,
    Graph,
    InvariantViolation,
    PreconditionError,
    b_coloring_with_good_set,
    check_b_coloring,
    density_profile,
    exact_b_chromatic,
    find_good_set,
)
from bchrom.cli import run_pipeline
from bchrom.coloring import (
    LinkStructure,
    PartialColoring,
    TraceEvent,
    classify_links,
    color_links,
    complete_b_vertices,
    greedy_extend,
)
from bchrom.goodset import check_good_set
from bchrom.graph import generate_girth_constrained

from helpers import (
    case_iii_leftover_tree,
    chorded_trees,
    cycle_graph,
    encircled_tree,
    fallback_pick_tree,
    five_dense_tree,
    full_fringe_clash,
    full_fringe_crowded,
    greedy_trap_forest,
    high_degree_leftover_forest,
    log_events,
    naive_link_vertices,
    path_graph,
    per_pair_complete_b_vertices,
    random_simple_graph,
    random_tree,
    star_of_stars,
    steal_chain_tree,
    two_fan_tree,
    used_set_greedy_extend,
)


def last_step(pc: PartialColoring, v: int) -> str:
    """The step of the last logged event that colored or recolored v."""
    return next(step for step, vertex, _, _ in reversed(log_events(pc)) if vertex == v)


# ------------------------------------------------------------ link scan


def test_links_empty_for_star_of_stars():
    g = star_of_stars()
    anchors = GoodSet((0, 1, 2))
    assert naive_link_vertices(g, anchors.members) == set()
    links = classify_links(g, anchors)
    assert links.vertices == frozenset()


def test_links_empty_for_path_five():
    g = path_graph(5)
    anchors = GoodSet((1, 2, 3))
    assert naive_link_vertices(g, anchors.members) == set()
    assert classify_links(g, anchors).vertices == frozenset()


def test_links_on_nine_cycle_spread_anchors():
    g = cycle_graph(9)
    anchors = GoodSet((0, 3, 6))
    expected = naive_link_vertices(g, anchors.members)
    assert expected == {1, 2, 4, 5, 7, 8}
    links = classify_links(g, anchors)
    assert links.vertices == frozenset(expected)
    assert links.chained == frozenset(expected)
    assert links.multi_anchored == frozenset()


@given(st.integers(2, 10), st.integers(0, 2**30))
def test_links_match_quartic_scan_on_trees(n, seed):
    rng = random.Random(seed)
    g = random_tree(n, rng)
    profile = density_profile(g)
    anchors = find_good_set(g)
    links = classify_links(g, anchors)
    assert links.vertices == frozenset(naive_link_vertices(g, anchors.members))
    w = set(anchors.members)
    for x in links.vertices:
        assert w.intersection(g.adj[x]), "every link vertex touches an anchor"
    assert links.anchors_of == {
        x: tuple(v for v in anchors.members if v in g.adj[x])
        for x in range(g.n)
        if x not in w and w.intersection(g.adj[x]) and len(g.adj[x]) > 1
    }


# ------------------------------------------------------- link coloring


def test_color_links_anchor_only_when_no_links():
    g = star_of_stars()
    anchors = GoodSet((0, 1, 2))
    pc = color_links(g, anchors, classify_links(g, anchors))
    assert pc.colors == [1, 2, 3, 0, 0, 0, 0]
    assert all(step == "anchor" for step, _, _, _ in log_events(pc))


def test_color_links_nine_cycle_golden():
    g = cycle_graph(9)
    anchors = GoodSet((0, 3, 6))
    pc = color_links(g, anchors, classify_links(g, anchors))
    assert pc.colors == [1, 2, 1, 2, 3, 2, 3, 1, 3]
    for x in (1, 2, 4, 5, 7, 8):
        assert last_step(pc, x) == "step1"


def test_color_links_requires_girth_nine(monkeypatch):
    # the link passes are sound for girth >= 9 only; C8 has a good set, so
    # only its girth of 8 can be refused, and before color_links runs
    g = cycle_graph(8)
    anchors = find_good_set(g)
    assert len(anchors.members) == 3

    def unreachable(*args, **kwargs):
        raise AssertionError("color_links ran on a graph of girth 8")

    monkeypatch.setattr("bchrom.coloring.color_links", unreachable)
    with pytest.raises(PreconditionError, match="girth >= 9"):
        b_coloring_with_good_set(g, anchors)


def test_derangement_pass_golden():
    g = two_fan_tree()
    profile = density_profile(g)
    assert profile.m == 4
    anchors = find_good_set(g)
    assert anchors.members == (0, 1, 2, 3)
    pc = color_links(g, anchors, classify_links(g, anchors))
    assert last_step(pc, 4) == "step2"
    assert last_step(pc, 5) == "step2"
    assert pc.colors[4] == 3 and pc.colors[5] == 2


def test_derangement_pass_shifts_a_star_of_three():
    # anchor 0 (color 1) has the uncolored doubly anchored neighbors 4, 5
    # and 6, forbidden colors 2, 3 and 4: each takes the next one, cyclically
    g = Graph(7, [(0, 4), (4, 1), (0, 5), (5, 2), (0, 6), (6, 3)])
    anchors = GoodSet((0, 1, 2, 3))
    pc = color_links(g, anchors, classify_links(g, anchors))
    assert pc.log[-1] == ("step2", (4, 5, 6), (3, 4, 2), None)


def test_derangement_pass_gives_a_target_a_colored_members_forbidden_color():
    # around anchor 0, 4 sees anchor 1 (color 2) and 5 sees anchor 2 (color
    # 3); pass 1 gives 5, chained through 6 to anchor 3, the color 4, so
    # the one target 4 takes 5's forbidden color 3
    g = Graph(7, [(0, 4), (4, 1), (0, 5), (5, 2), (5, 6), (6, 3)])
    anchors = GoodSet((0, 1, 2, 3))
    pc = color_links(g, anchors, classify_links(g, anchors))
    assert last_step(pc, 5) == "step1" and pc.colors[5] == 4
    assert pc.log[-1] == ("step2", (4,), (3,), None)


def test_steal_pass_golden_trace():
    g = steal_chain_tree()
    profile = density_profile(g)
    assert profile.m == 3
    anchors = find_good_set(g)
    assert anchors.members == (0, 1, 2)
    pc = color_links(g, anchors, classify_links(g, anchors))
    assert pc.colors[4] == 2 and last_step(pc, 4) == "step3-recolor"
    assert pc.colors[3] == 3 and last_step(pc, 3) == "step3-new"
    assert pc.colors[5] == 1 and last_step(pc, 5) == "step1"
    recolors = [(vertex, old) for _, vertex, _, old in log_events(pc) if old is not None]
    assert recolors == [(4, 3)]


def test_fallback_pass_golden():
    g = fallback_pick_tree()
    profile = density_profile(g)
    anchors = find_good_set(g)
    assert anchors.members == (0, 1, 2)
    pc = color_links(g, anchors, classify_links(g, anchors))
    assert pc.colors[3] == 3 and last_step(pc, 3) == "step4"


# The link passes' certificates, each reached on a graph that breaks the
# girth their argument needs: color_links does not check the girth itself.


def test_link_passes_refuse_colliding_second_anchors():
    # the 4-cycle 0-1-2-3: both neighbors of anchor 0 have anchor 2 as their second
    g = cycle_graph(4)
    anchors = GoodSet((0, 2))
    with pytest.raises(
        InvariantViolation,
        match=r"^second-anchor colors collide around an anchor \(step=step2, vertex=0\)$",
    ) as info:
        color_links(g, anchors, classify_links(g, anchors))
    assert (info.value.step, info.value.vertex) == ("step2", 0)


def test_link_passes_refuse_an_infeasible_derangement():
    # anchors 0, 1, 2; 3 sees 0 and 1, 4 sees 0 and 2, and 5 joins 3 to 2, so
    # pass 1 gives 3 the color of 5's anchor 2, which is 4's forbidden color
    g = Graph(6, [(0, 3), (1, 3), (0, 4), (2, 4), (3, 5), (2, 5)])
    anchors = GoodSet((0, 1, 2))
    with pytest.raises(
        InvariantViolation,
        match=r"^a colored neighbor holds a second-anchor color \(step=step2, vertex=0\)$",
    ) as info:
        color_links(g, anchors, classify_links(g, anchors))
    assert (info.value.step, info.value.vertex) == ("step2", 0)


def test_link_passes_refuse_a_colored_member_with_another_colored_members_forbidden_color():
    # around anchor 0, pass 1 colors 5 (seeing anchor 1) with 3 through 6 and
    # anchor 2, and 7 (seeing anchor 2) with 5 through 8 and anchor 4: 5
    # holds 7's forbidden color, and the one target 9 would still find two
    # colors, 2 and 4, that no colored member holds
    edges = [(0, 5), (1, 5), (5, 6), (2, 6), (0, 7), (2, 7), (7, 8), (4, 8), (0, 9), (3, 9)]
    g = Graph(10, edges)
    anchors = GoodSet((0, 1, 2, 3, 4))
    with pytest.raises(
        InvariantViolation,
        match=r"^a colored neighbor holds a second-anchor color \(step=step2, vertex=0\)$",
    ) as info:
        color_links(g, anchors, classify_links(g, anchors))
    assert (info.value.step, info.value.vertex) == ("step2", 0)


def test_link_passes_refuse_an_encircled_pass_four_vertex():
    # the path 0-1-2 with anchors 0 and 2: 1 is adjacent to both, so every
    # anchor lies in its encirclement cover and no color is safe for it
    g = path_graph(3)
    anchors = GoodSet((0, 2))
    with pytest.raises(
        InvariantViolation,
        match=r"^uncolored doubly anchored vertex is encircled \(step=step4, vertex=1\)$",
    ) as info:
        color_links(g, anchors, classify_links(g, anchors))
    assert (info.value.step, info.value.vertex) == ("step4", 1)


def test_link_passes_refuse_a_link_vertex_they_leave():
    # a hand-built link structure whose link vertex 3 is neither chained nor doubly anchored
    g = path_graph(4)
    anchors = GoodSet((0, 1))
    links = LinkStructure(frozenset({3}), frozenset(), frozenset(), {})
    with pytest.raises(
        InvariantViolation,
        match=r"^link vertex survived all four passes \(step=step4, vertex=3\)$",
    ) as info:
        color_links(g, anchors, links)
    assert (info.value.step, info.value.vertex) == ("step4", 3)


# ------------------------------------------------ completion and greedy


def test_completion_path_five_golden():
    g = path_graph(5)
    anchors = GoodSet((1, 2, 3))
    links = classify_links(g, anchors)
    pc = color_links(g, anchors, links)
    complete_b_vertices(g, anchors, pc, links)
    assert pc.colors == [3, 1, 2, 3, 1]
    assert last_step(pc, 0) == "completion"
    assert last_step(pc, 4) == "completion"


def test_completion_star_of_stars_golden():
    g = star_of_stars()
    anchors = GoodSet((0, 1, 2))
    links = classify_links(g, anchors)
    pc = color_links(g, anchors, links)
    complete_b_vertices(g, anchors, pc, links)
    # leaves of anchors 1 and 2 supply the missing colors
    assert pc.colors[4] == 3
    assert pc.colors[5] == 2
    assert pc.colors[3] == 0  # spoke 3 is left for the greedy pass
    total = greedy_extend(g, pc, 3)
    assert total == [1, 2, 3, 2, 3, 2, 1]


def test_completion_checks_anchor_slack():
    # anchor 0 (color 1) misses color 2 and has no uncolored neighbor left,
    # its one neighbor holding a color from outside the palette
    g = path_graph(3)
    anchors = GoodSet((0, 2))
    pc = PartialColoring(g)
    for v, color in [(0, 1), (1, 3), (2, 2)]:
        pc.assign(v, color, "anchor")
    with pytest.raises(InvariantViolation, match="anchor is missing 1 colors but has only 0 uncolored") as info:
        complete_b_vertices(g, anchors, pc, classify_links(g, anchors))
    assert (info.value.step, info.value.vertex) == ("completion", 0)


def test_completion_refuses_adjacent_uncolored_anchor_neighbors():
    # anchors 0 and 1; their uncolored neighbors 3, 9 and 10 are pairwise
    # adjacent, and CPython iterates over the set {3, 9, 10} as 9, 10, 3
    g = Graph(11, [(0, 2), (0, 9), (1, 3), (1, 10), (3, 9), (3, 10), (9, 10)])
    anchors = GoodSet((0, 1))
    pc = PartialColoring(g)
    pc.assign(0, 1, "anchor")
    pc.assign(1, 2, "anchor")
    with pytest.raises(
        InvariantViolation, match=r"^uncolored anchor neighbors 3 and 9 are adjacent \(step=completion, vertex=3\)$"
    ) as info:
        complete_b_vertices(g, anchors, pc, classify_links(g, anchors))
    assert (info.value.step, info.value.vertex) == ("completion", 3)
    assert len(log_events(pc)) == 2
    assert full_fringe_clash(g, anchors.members, pc.colors) == (3, 9)


def _completion_clash(g, anchors, pc, links):
    """The adjacent pair that the completion's stable-set check names, or
    None when that check passes (a later certificate may still refuse)."""
    try:
        complete_b_vertices(g, anchors, pc, links)
    except InvariantViolation as exc:
        found = re.match(r"uncolored anchor neighbors (\d+) and (\d+) are adjacent", str(exc))
        if found:
            return int(found[1]), int(found[2])
    return None


@pytest.mark.parametrize(
    ("chords", "sizes", "graphs", "clashes"),
    [(0, range(1, 15), 5447, 946), (1, range(9, 15), 7148, 3514), (2, range(1, 16), 5163, 3145)],
    ids=["trees", "one-chord", "two-chords"],
)
def test_stable_set_check_matches_the_full_fringe_scan(chords, sizes, graphs, clashes):
    """On every graph that test_trees.py enumerates, the completion's check
    over the link structure's keys names the same pair as the scan of every
    uncolored anchor neighbor: as the link passes leave the graph (always a
    stable set), and with every link vertex uncolored again, which leaves
    an adjacent pair wherever two link vertices are adjacent."""
    count = seen = 0
    for n in sizes:
        for g in chorded_trees(n, chords):
            anchors = find_good_set(g)
            links = classify_links(g, anchors)
            for uncolored in ((), links.vertices):
                pc = color_links(g, anchors, links)
                for step, _, step_colors, _ in pc.log:
                    assert step != "step2" or len(set(step_colors)) == len(step_colors), (g.adj, step_colors)
                for x in uncolored:
                    pc.colors[x] = 0
                expected = full_fringe_clash(g, anchors.members, pc.colors)
                assert _completion_clash(g, anchors, pc, links) == expected, (g.adj, uncolored)
                seen += expected is not None
            count += 1
    assert (count, seen) == (graphs, clashes)


@given(st.integers(1, 14), st.floats(0.05, 0.5), st.integers(0, 2**30))
def test_stable_set_check_matches_the_full_fringe_scan_on_hand_built_states(n, edge_prob, seed):
    # any graph, any anchors (colored 1..k), every other vertex uncolored or
    # given a random color: the two checks agree whatever the passes did
    rng = random.Random(seed)
    g = random_simple_graph(n, edge_prob, rng)
    anchors = GoodSet(tuple(sorted(rng.sample(range(n), rng.randint(1, n)))))
    k = len(anchors.members)
    pc = PartialColoring(g)
    for i, v in enumerate(anchors.members):
        pc.colors[v] = i + 1
    for x in range(n):
        if not pc.colors[x] and rng.random() < 0.3:
            pc.colors[x] = rng.randint(1, k)
    expected = full_fringe_clash(g, anchors.members, pc.colors)
    assert _completion_clash(g, anchors, pc, classify_links(g, anchors)) == expected


def _completion_premise_refusal(g, anchors, pc, links):
    """The vertex the completion's premise check names, or None when that
    check passes or is not reached (the stable-set check runs first)."""
    try:
        complete_b_vertices(g, anchors, pc, links)
    except InvariantViolation as exc:
        if "colored neighbors, not its one anchor alone" in str(exc):
            return exc.vertex
    return None


@given(st.integers(1, 14), st.floats(0.05, 0.5), st.integers(0, 2**30))
def test_premise_check_matches_the_full_fringe_scan_on_hand_built_states(n, edge_prob, seed):
    # built as for the stable-set check: anchors colored 1..k, every other
    # vertex uncolored or given a random color
    rng = random.Random(seed)
    g = random_simple_graph(n, edge_prob, rng)
    anchors = GoodSet(tuple(sorted(rng.sample(range(n), rng.randint(1, n)))))
    k = len(anchors.members)
    pc = PartialColoring(g)
    for i, v in enumerate(anchors.members):
        pc.colors[v] = i + 1
    for x in range(n):
        if not pc.colors[x] and rng.random() < 0.3:
            pc.colors[x] = rng.randint(1, k)
    stable = full_fringe_clash(g, anchors.members, pc.colors) is None
    expected = full_fringe_crowded(g, anchors.members, pc.colors) if stable else None
    assert _completion_premise_refusal(g, anchors, pc, classify_links(g, anchors)) == expected


def _chorded_family(rank, sizes):
    """Every graph of ``chorded_trees(n, rank)`` for n in sizes, with the
    set ``find_good_set`` returns."""
    return lambda: ((g, find_good_set(g)) for n in sizes for g in chorded_trees(n, rank))


def _high_degree_leftover_forests():
    """The two forests whose anchors 0..3 leave an anchor a neighbor of
    degree m = 4 after its missing colors: anchor 0 (color 1) in the first,
    anchor 3 (color 4) in the second."""
    return ((g, GoodSet((0, 1, 2, 3))) for g in (high_degree_leftover_forest(), greedy_trap_forest()))


def _case_iii_leftover_tree():
    """The tree whose case (iii) set leaves the dropped dense vertex 4 to
    completion, with the set ``find_good_set`` returns."""
    g = case_iii_leftover_tree()
    return iter([(g, find_good_set(g))])


@pytest.mark.parametrize(
    ("family", "counts"),
    [
        (_chorded_family(0, range(1, 14)), (2288, 0, 0, 0)),
        (_chorded_family(1, range(1, 14)), (1612, 0, 0, 0)),
        (_chorded_family(2, range(1, 16)), (5163, 0, 0, 0)),
        (_high_degree_leftover_forests, (2, 2, 2, 1)),
        (_case_iii_leftover_tree, (1, 1, 1, 1)),
    ],
    ids=["trees", "one-chord", "two-chords", "high-degree-leftovers", "case-iii-leftover"],
)
def test_batched_completion_matches_the_per_pair_reference(family, counts):
    """On every tree plus up to two chords at girth >= 9, with n <= 13 (n <=
    15 with two chords, of which n <= 13 gives only 27), on the two forests
    built to leave an anchor a neighbor of degree >= |W| after its missing
    colors with hand-picked anchors, and on the one tree known to leave
    such a leftover with ``find_good_set``'s own set (case (iii); no
    enumerated graph does), the batched completion leaves the colors and
    the expanded log that the per-pair loop, which checks every assignment
    and looks up each leftover's color, leaves.  ``counts`` pins the graphs,
    those with such a leftover, the leftovers, and the graphs where a
    leftover's anchor has color 1, so the leftover takes color 2."""
    graphs = with_leftover = leftover_count = next_to_color_1 = 0
    for g, anchors in family():
        links = classify_links(g, anchors)
        batched = complete_b_vertices(g, anchors, color_links(g, anchors, links), links)
        reference, leftovers = per_pair_complete_b_vertices(g, anchors, color_links(g, anchors, links))
        assert (batched.colors, log_events(batched)) == (reference.colors, log_events(reference)), g.adj
        graphs += 1
        with_leftover += bool(leftovers)
        leftover_count += len(leftovers)
        next_to_color_1 += any(own == 1 for _, own in leftovers)
    assert (graphs, with_leftover, leftover_count, next_to_color_1) == counts


def test_case_iii_set_leaves_its_dropped_vertex_to_completion():
    # M = {0, 3, 4, 5} encircles 1, so k = m - 1 = 3 with W' = M - 4; the
    # oracle agrees that no 4-b-coloring exists, and 4 (degree 5 >= k) is
    # the one vertex of degree >= k outside W', colored by completion
    g = case_iii_leftover_tree()
    profile = density_profile(g)
    anchors = find_good_set(g)
    assert (profile.m, profile.dense, anchors.members) == (4, {0, 3, 4, 5}, (0, 3, 5))
    result = b_coloring_with_good_set(g, anchors)
    assert result.chi_b == exact_b_chromatic(g, limit=g.n)[0] == 3
    assert ("completion", 4, 2, None) in log_events(result)


def test_assign_refuses_a_neighbor_color():
    g = path_graph(3)
    pc = PartialColoring(g)
    pc.assign(0, 1, "anchor")
    with pytest.raises(InvariantViolation, match=r"^edge 0-1 is monochromatic \(step=step1, vertex=1\)$") as info:
        pc.assign(1, 1, "step1")
    assert (info.value.step, info.value.vertex) == ("step1", 1)
    assert pc.colors[1] == 0 and len(log_events(pc)) == 1


@pytest.mark.parametrize(
    ("pairs", "message"),
    [
        ([(0, 1), (2, 2), (1, 1)], r"^edge 0-1 is monochromatic \(step=completion, vertex=1\)$"),
        ([(0, 1), (2, 2), (0, 3)], r"^vertex assigned twice \(step=completion, vertex=0\)$"),
    ],
)
def test_assign_each_refuses_mid_batch_as_assign_does(pairs, message):
    g = path_graph(3)
    batched, single = PartialColoring(g), PartialColoring(g)
    with pytest.raises(InvariantViolation, match=message) as info:
        batched.assign_each(pairs, "completion")
    for v, color in pairs[:-1]:
        single.assign(v, color, "completion")
    with pytest.raises(InvariantViolation, match=message) as expected:
        single.assign(*pairs[-1], "completion")
    assert (info.value.step, info.value.vertex) == (expected.value.step, expected.value.vertex)
    # the pairs before the refused one stay assigned, as one by one
    assert batched.colors == single.colors == [1, 0, 2]


def test_recolor_refuses_a_neighbor_color():
    g = path_graph(3)
    pc = PartialColoring(g)
    for v, color in [(0, 1), (1, 2), (2, 3)]:
        pc.assign(v, color, "anchor")
    with pytest.raises(
        InvariantViolation, match=r"^edge 2-1 is monochromatic \(step=step3-recolor, vertex=1\)$"
    ) as info:
        pc.recolor(1, 3, "step3-recolor")
    assert (info.value.step, info.value.vertex) == ("step3-recolor", 1)
    assert pc.colors[1] == 2 and len(log_events(pc)) == 3
    pc.recolor(1, 4, "step3-recolor")  # the refusal did not use up the one recoloring
    assert pc.colors[1] == 4


def test_recolor_refuses_a_second_recoloring():
    g = path_graph(3)
    pc = PartialColoring(g)
    for v, color in [(0, 1), (1, 2), (2, 1)]:
        pc.assign(v, color, "anchor")
    pc.recolor(1, 3, "step3-recolor")
    with pytest.raises(InvariantViolation, match=r"^vertex recolored twice \(step=step3-recolor, vertex=1\)$"):
        pc.recolor(1, 2, "step3-recolor")
    assert pc.colors[1] == 3 and len(log_events(pc)) == 4


def test_recolor_refuses_an_uncolored_vertex():
    pc = PartialColoring(path_graph(3))
    with pytest.raises(
        InvariantViolation, match=r"^cannot recolor an uncolored vertex \(step=step3-recolor, vertex=1\)$"
    ) as info:
        pc.recolor(1, 2, "step3-recolor")
    assert (info.value.step, info.value.vertex) == ("step3-recolor", 1)
    assert pc.colors == [0, 0, 0] and log_events(pc) == []


def test_completion_checks_that_every_anchor_sees_every_other_color():
    # the closing check does not trust the loop it checks: a batch that drops
    # its last pair leaves anchor 0 without color 3, though its slack held
    class DroppingLastPair(PartialColoring):
        def assign_certified(self, vertices, colors, step):
            super().assign_certified(vertices[:-1], colors[:-1], step)

    # anchors 0, 1 and 2, each the center of a star with two uncolored leaves
    g = Graph(9, [(0, 3), (0, 4), (1, 5), (1, 6), (2, 7), (2, 8)])
    anchors = GoodSet((0, 1, 2))
    pc = DroppingLastPair(g)
    for v, color in [(0, 1), (1, 2), (2, 3)]:
        pc.assign(v, color, "anchor")
    with pytest.raises(InvariantViolation, match="^anchor does not see every other color") as info:
        complete_b_vertices(g, anchors, pc, classify_links(g, anchors))
    assert (info.value.step, info.value.vertex) == ("completion", 0)


def test_greedy_identity_when_total():
    g = path_graph(3)
    pc = PartialColoring(g)
    pc.assign(0, 1, "anchor")
    pc.assign(1, 2, "anchor")
    pc.assign(2, 1, "anchor")
    assert greedy_extend(g, pc, 2) == [1, 2, 1]


def test_greedy_isolated_vertex_gets_one():
    g = Graph(1, [])
    assert greedy_extend(g, PartialColoring(g), 1) == [1]


def test_greedy_pendant_gets_smallest_absent():
    g = Graph(2, [(0, 1)])
    pc = PartialColoring(g)
    pc.assign(0, 2, "anchor")
    assert greedy_extend(g, pc, 3)[1] == 1


def test_greedy_rejects_high_degree_uncolored():
    g = star_of_stars()
    with pytest.raises(InvariantViolation):
        greedy_extend(g, PartialColoring(g), 3)


def test_greedy_names_the_lowest_too_connected_vertex():
    # 2 and 6 both have degree 3 = num_colors; 0 and 1, below them, would fit
    g = Graph(10, [(0, 1), (2, 3), (2, 4), (2, 5), (6, 7), (6, 8), (6, 9)])
    with pytest.raises(InvariantViolation, match="too connected for greedy completion") as info:
        greedy_extend(g, PartialColoring(g), 3)
    assert (info.value.step, info.value.vertex) == ("greedy", 2)


def greedy_outcome(extend, g: Graph, precolored: list[tuple[int, int]], num_colors: int):
    """The coloring and event log greedy leaves, or the refusal it raises, on
    a fresh PartialColoring holding ``precolored``."""
    pc = PartialColoring(g)
    for v, color in precolored:
        pc.assign(v, color, "anchor")
    try:
        return extend(g, pc, num_colors), log_events(pc)
    except InvariantViolation as exc:
        return str(exc), exc.step, exc.vertex


def shuffled_forest_or_path(family: str, n: int, rng: random.Random) -> Graph:
    """A path, or a random recursive forest (each vertex joins an earlier one
    with probability 0.9), on n vertices whose ids are shuffled."""
    ids = list(range(n))
    rng.shuffle(ids)
    if family == "path":
        edges = [(ids[i - 1], ids[i]) for i in range(1, n)]
    else:
        edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n) if rng.random() < 0.9]
    return Graph(n, edges)


@settings(max_examples=300)
@given(
    st.sampled_from(["random", "forest", "path"]),
    st.integers(0, 12),
    st.floats(0.0, 0.6),
    st.integers(1, 6),
    st.integers(0, 2**30),
)
def test_greedy_matches_the_used_set_reference(family, n, edge_prob, num_colors, seed):
    # dense random graphs at n <= 12; forests and paths of up to ~200
    # vertices, mostly of degree 1 and 2, with precolored neighbors
    rng = random.Random(seed)
    if family == "random":
        g = random_simple_graph(n, edge_prob, rng)
    else:
        g = shuffled_forest_or_path(family, rng.randint(0, 200), rng)
    # a random proper partial coloring, colors up to one past num_colors; on
    # forests and paths it holds, as completion leaves it, every vertex of
    # degree >= num_colors, so greedy mostly gets through
    precolored: list[tuple[int, int]] = []
    taken: dict[int, int] = {}
    for v in range(g.n):
        held = family != "random" and len(g.adj[v]) >= num_colors
        color = rng.randint(1, num_colors + 1)
        if held or rng.random() < 0.4:
            near = {taken.get(u) for u in g.adj[v]}
            while held and color in near:
                color += 1
            if color not in near:
                taken[v] = color
                precolored.append((v, color))
    expected = greedy_outcome(used_set_greedy_extend, g, precolored, num_colors)
    assert greedy_outcome(greedy_extend, g, precolored, num_colors) == expected


@pytest.mark.parametrize(
    "around, expected",
    [
        ((), 1),  # isolated
        ((1,), 2),
        ((3,), 1),
        ((0,), 1),  # next to an uncolored neighbor
        ((1, 2), 3),
        ((2, 1), 3),
        ((1, 1), 2),
        ((2, 2), 1),
        ((2, 0), 1),
        ((1, 3), 2),
        ((1, 2, 3), 4),
        ((2, 3, 0), 1),
        ((3, 1, 1, 2), 4),
    ],
)
def test_assign_smallest_free_each_by_neighbor_colors(around, expected):
    # vertex 0 is the center of a star whose leaves carry the colors around it (0: uncolored)
    g = Graph(len(around) + 1, [(0, i) for i in range(1, len(around) + 1)])
    pc = PartialColoring(g)
    pc.assign_each([(i, color) for i, color in enumerate(around, 1) if color], "anchor")
    pc.assign_smallest_free([0], "greedy")
    assert pc.colors[0] == expected
    assert log_events(pc)[-1] == ("greedy", 0, expected, None)


@pytest.mark.parametrize("vertices", [[], [0, 4, 5]], ids=["empty", "whole"])
def test_assign_smallest_free_each_logs_exactly_what_it_assigned(vertices):
    # the expanded log replays the colors, one record for the whole call
    g = Graph(6, [(0, 3), (1, 2), (1, 3)])
    pc = PartialColoring(g)
    pc.assign_each([(2, 1), (3, 2)], "anchor")
    pc.assign_smallest_free(vertices, "greedy")
    assert pc.log[-1][:2] == ("greedy", tuple(vertices))
    events = log_events(pc)
    replayed = [0] * g.n
    for _, vertex, color, _ in events:  # one positive color per vertex
        assert color > 0 and not replayed[vertex]
        replayed[vertex] = color
    assert replayed == pc.colors
    assert [step for step, _, _, _ in events] == ["anchor", "anchor"] + ["greedy"] * (len(events) - 2)


def test_assign_smallest_free_takes_the_lowest_absent_color():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    pc = PartialColoring(g)
    pc.assign(1, 1, "anchor")
    pc.assign(3, 3, "anchor")
    pc.assign_smallest_free([0], "greedy")
    assert pc.colors[0] == 2
    assert log_events(pc)[-1] == ("greedy", 0, 2, None)


def test_completion_refuses_a_high_degree_neighbor_with_no_color_left():
    # anchors 0 (color 1) and 1 (color 2) already see every other color;
    # anchor 0's leftover neighbor 3 has degree m = 2 and sees colors 1 and 2.
    # The premise certificate refuses the state before any assignment: 3 has
    # a colored neighbor, 4, besides its anchor.  Under the premise a
    # leftover's one colored neighbor is its anchor, so a color is always left.
    g = Graph(6, [(0, 2), (0, 3), (3, 4), (1, 5)])
    anchors = GoodSet((0, 1))
    pc = PartialColoring(g)
    for v, color in [(0, 1), (1, 2), (2, 2), (4, 2), (5, 1)]:
        pc.assign(v, color, "anchor")
    with pytest.raises(
        InvariantViolation,
        match=r"^uncolored anchor neighbor has 2 colored neighbors, not its one anchor alone "
        r"\(step=completion, vertex=3\)$",
    ) as info:
        complete_b_vertices(g, anchors, pc, classify_links(g, anchors))
    assert (info.value.step, info.value.vertex) == ("completion", 3)
    assert pc.colors[3] == 0 and len(log_events(pc)) == 5


def test_trace_event_fields():
    event = TraceEvent("greedy", 4, 2)
    assert (event.step, event.vertex, event.color, event.recolored_from) == ("greedy", 4, 2, None)
    moved = TraceEvent("step3-recolor", 4, 2, recolored_from=3)
    assert moved.recolored_from == 3
    with pytest.raises(AttributeError):
        event.color = 3


@pytest.mark.parametrize("builder", [steal_chain_tree, lambda: random_tree(300, random.Random(11))])
def test_trace_is_built_from_the_event_log_on_read(builder):
    g = builder()
    result = b_coloring_with_good_set(g, find_good_set(g))
    expanded = log_events(result)
    trace = result.trace
    assert all(type(event) is TraceEvent for event in trace)
    assert list(trace) == expanded  # field by field, in assignment order
    assert Counter(event.step for event in trace if event.recolored_from is None) == Counter(
        step for step, _, _, old in expanded if old is None
    )
    assert [event for event in trace if event.recolored_from is not None] == [
        event for event in expanded if event[3] is not None
    ]
    replayed = [0] * g.n
    for event in trace:
        assert replayed[event.vertex] == (event.recolored_from or 0)
        replayed[event.vertex] = event.color
    assert replayed == result.coloring


# ----------------------------------------------------- full construction


@pytest.mark.parametrize(
    "builder, expected",
    [
        (lambda: path_graph(5), 3),
        (lambda: cycle_graph(9), 3),
        (star_of_stars, 3),
        (two_fan_tree, 4),
        (steal_chain_tree, 3),
        (fallback_pick_tree, 3),
    ],
)
def test_full_construction_matches_oracle(builder, expected):
    g = builder()
    profile = density_profile(g)
    anchors = find_good_set(g)
    result = b_coloring_with_good_set(g, anchors)
    assert result.chi_b == profile.m == expected
    report = check_b_coloring(g, result.coloring, result.chi_b)
    assert report.valid and report.basis is not None
    assert exact_b_chromatic(g)[0] == expected


def test_full_construction_steal_chain_exact_coloring():
    g = steal_chain_tree()
    result = b_coloring_with_good_set(g, find_good_set(g))
    expected = [1, 2, 3, 3, 2, 1, 2, 1, 1, 2, 1]
    assert result.coloring == expected


def test_construction_rejects_non_good_set():
    g = path_graph(5)
    with pytest.raises(ValueError, match="not a good set"):
        b_coloring_with_good_set(g, GoodSet((0, 1, 2)))
    # a graph that stores its good set checks every other set as before
    assert find_good_set(g) != GoodSet((0, 1, 2))
    with pytest.raises(ValueError, match="not a good set"):
        b_coloring_with_good_set(g, GoodSet((0, 1, 2)))
    # and a good set is its members alone: there is no mark to set
    with pytest.raises(TypeError):
        GoodSet((0, 1, 2), certified_on=g)


@pytest.mark.parametrize("member", [3, 5])
def test_construction_refuses_a_member_past_the_last_vertex(member):
    # refused before adj[member] is read, which would raise a bare IndexError
    with pytest.raises(ValueError, match=rf"^good-set member {member} is no vertex of this 3-vertex graph$"):
        b_coloring_with_good_set(path_graph(3), GoodSet((member,)))


def test_construction_refuses_a_negative_member():
    # adj[-1] would read the last vertex, and the set would be certified and colored
    with pytest.raises(ValueError, match=r"^good-set member -1 is no vertex of this 2-vertex graph$"):
        b_coloring_with_good_set(Graph(2, []), GoodSet((-1,)))


def test_construction_refuses_an_empty_set():
    with pytest.raises(ValueError, match=r"^a good set needs k >= 1 colors, not k = 0$"):
        b_coloring_with_good_set(path_graph(3), GoodSet(()))


def _count_good_set_checks(monkeypatch) -> list[str]:
    """Count check_good_set calls through both module bindings, by module."""
    import bchrom.coloring
    import bchrom.goodset

    calls = []
    for module in (bchrom.goodset, bchrom.coloring):
        real = module.check_good_set

        def counted(*args, _real=real, _name=module.__name__):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, "check_good_set", counted)
    return calls


def test_construction_rechecks_a_set_certified_on_another_graph(monkeypatch):
    calls = _count_good_set_checks(monkeypatch)
    g, twin = steal_chain_tree(), steal_chain_tree()
    anchors = find_good_set(twin)
    # twin stores the set; g, an equal graph, stores none
    assert twin._good_set is anchors and g._good_set is None and g == twin
    calls.clear()
    assert b_coloring_with_good_set(g, anchors).coloring == b_coloring_with_good_set(twin, anchors).coloring
    assert calls == ["bchrom.coloring"]


def test_construction_trusts_an_equal_hand_built_set_and_checks_any_other(monkeypatch):
    calls = _count_good_set_checks(monkeypatch)
    g = five_dense_tree()
    stored = find_good_set(g)
    assert stored.members == (0, 3, 7, 8)
    calls.clear()
    # built by hand, equal to the stored set: trusted, no check
    result = b_coloring_with_good_set(g, GoodSet((0, 3, 7, 8)))
    assert calls == [] and result.chi_b == 4
    # another good set for 4 colors on the same graph: checked once, then colored
    other = GoodSet((0, 2, 3, 8))
    result = b_coloring_with_good_set(g, other)
    assert calls == ["bchrom.coloring"]
    assert check_b_coloring(g, result.coloring, 4).basis == {1: 0, 2: 2, 3: 3, 4: 8}
    assert g._good_set is stored  # the construction stores nothing


def test_run_pipeline_checks_the_good_set_once(monkeypatch):
    calls = _count_good_set_checks(monkeypatch)
    g = generate_girth_constrained(300, 9, 320, seed=1)
    record, result = run_pipeline(g, need_coloring=True)
    assert record.girth >= 9 and record.has_good_set and result.chi_b == record.m
    assert calls == ["bchrom.goodset"]
    # without a good set: W0 and M(G) - x, both in find_good_set
    calls.clear()
    record, result = run_pipeline(encircled_tree(), need_coloring=True)
    assert not record.has_good_set and result.chi_b == record.m - 1
    assert calls == ["bchrom.goodset", "bchrom.goodset"]


def test_construction_refuses_low_girth():
    with pytest.raises(PreconditionError):
        b_coloring_with_good_set(cycle_graph(7), GoodSet((0, 1, 2)))


def test_completion_colors_high_degree_leftover():
    g = high_degree_leftover_forest()
    profile = density_profile(g)
    assert profile.m == 4
    anchors = GoodSet((0, 1, 2, 3))
    assert check_good_set(g, anchors.members, profile.m) is None
    result = b_coloring_with_good_set(g, anchors)
    assert check_b_coloring(g, result.coloring, 4).valid
    # vertex 7 has degree m and must not be left to the greedy pass
    by_vertex = {event.vertex: event.step for event in result.trace}
    assert by_vertex[7] == "completion"


def test_greedy_trap_is_defused_by_completion():
    # deferring vertex 23 (degree m, anchored at 3) to the greedy pass would
    # leave it facing colors {1, 2, 3} on 20..22 plus 4 on its anchor
    g = greedy_trap_forest()
    profile = density_profile(g)
    assert profile.m == 4
    anchors = GoodSet((0, 1, 2, 3))
    assert check_good_set(g, anchors.members, profile.m) is None
    result = b_coloring_with_good_set(g, anchors)
    assert check_b_coloring(g, result.coloring, 4).valid
    by_vertex = {event.vertex: event.step for event in result.trace}
    assert by_vertex[23] == "completion"


@given(st.integers(1, 14), st.integers(0, 2**30))
def test_construction_properties_on_random_trees(n, seed):
    rng = random.Random(seed)
    g = random_tree(n, rng)
    profile = density_profile(g)
    anchors = find_good_set(g)
    k = len(anchors.members)  # m(G), or m(G) - 1 when no good set exists
    assert k == profile.m or (k == profile.m - 1 and len(profile.dense) == profile.m)
    result = b_coloring_with_good_set(g, anchors)
    assert result.chi_b == k
    report = check_b_coloring(g, result.coloring, k)
    assert report.valid
    recolored = [event.vertex for event in result.trace if event.recolored_from is not None]
    assert len(recolored) == len(set(recolored)), "no vertex recolored twice"
    for color, vertex in result.basis.items():
        assert result.coloring[vertex] == color
        seen = {result.coloring[u] for u in g.adj[vertex]}
        assert set(range(1, k + 1)) - {color} <= seen
