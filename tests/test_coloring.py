import random
import re
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from bchrom import (
    GoodSet,
    Graph,
    InvariantViolation,
    PreconditionError,
    b_coloring_with_good_set,
    check_b_coloring,
    check_good_set,
    density_profile,
    exact_b_chromatic,
    find_good_set,
    generate_girth_constrained,
    run_pipeline,
)
from bchrom.coloring import (
    PartialColoring,
    TraceEvent,
    classify_links,
    color_links,
    complete_b_vertices,
    derange_assign,
    greedy_extend,
)

from helpers import (
    chorded_trees,
    cycle_graph,
    encircled_tree,
    fallback_pick_tree,
    full_fringe_clash,
    greedy_trap_forest,
    high_degree_leftover_forest,
    naive_link_vertices,
    path_graph,
    random_simple_graph,
    random_tree,
    star_of_stars,
    steal_chain_tree,
    two_fan_tree,
    used_set_greedy_extend,
)


def last_step(pc: PartialColoring, v: int) -> str:
    """The step of the last logged event that colored or recolored v."""
    return next(step for step, vertex, _, _ in reversed(pc.events) if vertex == v)


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
    anchors = find_good_set(g, profile)
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


# -------------------------------------------------------- derangement


def test_derange_two_targets():
    assert derange_assign([(10, 2), (11, 3)], [2, 3]) == {10: 3, 11: 2}


def test_derange_single_target_with_spare_color():
    assert derange_assign([(10, 2)], [2, 5]) == {10: 5}


def test_derange_three_targets_cyclic_shift():
    result = derange_assign([(1, 4), (2, 5), (3, 6)], [4, 5, 6])
    assert result == {1: 5, 2: 6, 3: 4}
    # brute force: exactly two of the six permutations avoid all forbidden pairs
    valid = [
        perm
        for perm in permutations([4, 5, 6])
        if perm[0] != 4 and perm[1] != 5 and perm[2] != 6
    ]
    assert len(valid) == 2
    assert tuple(result[v] for v in (1, 2, 3)) in valid


def test_derange_rejects_bad_input():
    with pytest.raises(ValueError):
        derange_assign([(1, 2)], [2])  # palette too small
    with pytest.raises(ValueError):
        derange_assign([(1, 2), (2, 2)], [2, 3])  # forbidden collide
    with pytest.raises(ValueError):
        derange_assign([(1, 7)], [2, 3])  # forbidden outside palette
    with pytest.raises(ValueError):
        derange_assign([(1, 2), (2, 3), (3, 4)], [2, 3])  # too many targets


@given(st.integers(2, 8), st.integers(0, 2**30))
def test_derange_properties(size, seed):
    rng = random.Random(seed)
    palette = rng.sample(range(1, 20), size)
    count = rng.randint(1, size)
    targets = [(100 + j, palette[j]) for j in range(count)]
    result = derange_assign(targets, palette)
    values = list(result.values())
    assert len(set(values)) == len(values)
    assert set(values) <= set(palette)
    for vertex, forbidden in targets:
        assert result[vertex] != forbidden


# ------------------------------------------------------- link coloring


def test_color_links_anchor_only_when_no_links():
    g = star_of_stars()
    anchors = GoodSet((0, 1, 2))
    pc = color_links(g, anchors, classify_links(g, anchors))
    assert pc.colors == [1, 2, 3, 0, 0, 0, 0]
    assert all(step == "anchor" for step, _, _, _ in pc.events)


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
    anchors = find_good_set(g, density_profile(g))
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
    anchors = find_good_set(g, profile)
    assert anchors.members == (0, 1, 2, 3)
    pc = color_links(g, anchors, classify_links(g, anchors))
    assert last_step(pc, 4) == "step2"
    assert last_step(pc, 5) == "step2"
    assert pc.colors[4] == 3 and pc.colors[5] == 2


def test_steal_pass_golden_trace():
    g = steal_chain_tree()
    profile = density_profile(g)
    assert profile.m == 3
    anchors = find_good_set(g, profile)
    assert anchors.members == (0, 1, 2)
    pc = color_links(g, anchors, classify_links(g, anchors))
    assert pc.colors[4] == 2 and last_step(pc, 4) == "step3-recolor"
    assert pc.colors[3] == 3 and last_step(pc, 3) == "step3-new"
    assert pc.colors[5] == 1 and last_step(pc, 5) == "step1"
    recolors = [(vertex, old) for _, vertex, _, old in pc.events if old is not None]
    assert recolors == [(4, 3)]


def test_fallback_pass_golden():
    g = fallback_pick_tree()
    profile = density_profile(g)
    anchors = find_good_set(g, profile)
    assert anchors.members == (0, 1, 2)
    pc = color_links(g, anchors, classify_links(g, anchors))
    assert pc.colors[3] == 3 and last_step(pc, 3) == "step4"


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
    assert len(pc.events) == 2
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
            anchors = find_good_set(g, density_profile(g))
            links = classify_links(g, anchors)
            for uncolored in ((), links.vertices):
                pc = color_links(g, anchors, links)
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


def test_assign_refuses_a_neighbor_color():
    g = path_graph(3)
    pc = PartialColoring(g)
    pc.assign(0, 1, "anchor")
    with pytest.raises(InvariantViolation, match=r"^edge 0-1 is monochromatic \(step=step1, vertex=1\)$") as info:
        pc.assign(1, 1, "step1")
    assert (info.value.step, info.value.vertex) == ("step1", 1)
    assert pc.colors[1] == 0 and len(pc.events) == 1


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
    # the pairs before the refused one stay assigned and logged, as one by one
    assert batched.colors == single.colors == [1, 0, 2]
    assert batched.events == single.events == [("completion", 0, 1, None), ("completion", 2, 2, None)]


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
    assert pc.colors[1] == 2 and len(pc.events) == 3
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
    assert pc.colors[1] == 3 and len(pc.events) == 4


def test_completion_checks_that_every_anchor_sees_every_other_color():
    # the closing check does not trust the loop it checks: an assign_each that
    # drops its last pair leaves anchor 0 without color 3, though its slack held
    class DroppingLastPair(PartialColoring):
        def assign_each(self, pairs, step):
            super().assign_each(list(pairs)[:-1], step)

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
        return extend(g, pc, num_colors), pc.events
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
    assert pc.assign_smallest_free_each([0], "greedy", 4) is None
    assert pc.colors[0] == expected
    assert pc.events[-1] == ("greedy", 0, expected, None)


def test_assign_smallest_free_each_stops_at_a_vertex_with_no_free_color():
    # 1 sees colors 1 and 2 at num_colors = 2; 0 before it is assigned, 4 after it is not
    g = Graph(5, [(0, 3), (1, 2), (1, 3)])
    pc = PartialColoring(g)
    pc.assign_each([(2, 1), (3, 2)], "anchor")
    assert pc.assign_smallest_free_each([0, 1, 4], "greedy", 2) == 1
    assert pc.colors == [1, 0, 1, 2, 0]
    assert pc.events[2:] == [("greedy", 0, 1, None)]


def test_assign_smallest_free_each_refuses_a_second_assignment():
    g = path_graph(3)
    pc = PartialColoring(g)
    with pytest.raises(InvariantViolation, match=r"^vertex assigned twice \(step=greedy, vertex=1\)$"):
        pc.assign_smallest_free_each([1, 0, 1], "greedy", 3)
    assert pc.colors == [2, 1, 0]


def test_assign_smallest_free_takes_the_lowest_absent_color():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    pc = PartialColoring(g)
    pc.assign(1, 1, "anchor")
    pc.assign(3, 3, "anchor")
    assert pc.assign_smallest_free_each([0], "greedy", 3) is None
    assert pc.colors[0] == 2
    assert pc.events[-1] == ("greedy", 0, 2, None)
    with pytest.raises(InvariantViolation, match=r"^vertex assigned twice \(step=greedy, vertex=0\)$"):
        pc.assign_smallest_free_each([0], "greedy", 3)


def test_assign_smallest_free_assigns_nothing_when_every_color_is_taken():
    g = path_graph(3)
    pc = PartialColoring(g)
    pc.assign(0, 1, "anchor")
    pc.assign(2, 2, "anchor")
    assert pc.assign_smallest_free_each([1], "completion", 2) == 1
    assert pc.colors[1] == 0 and len(pc.events) == 2


def test_completion_refuses_a_high_degree_neighbor_with_no_color_left():
    # anchors 0 (color 1) and 1 (color 2) already see every other color;
    # anchor 0's leftover neighbor 3 has degree m = 2 and sees colors 1 and 2
    g = Graph(6, [(0, 2), (0, 3), (3, 4), (1, 5)])
    anchors = GoodSet((0, 1))
    pc = PartialColoring(g)
    for v, color in [(0, 1), (1, 2), (2, 2), (4, 2), (5, 1)]:
        pc.assign(v, color, "anchor")
    with pytest.raises(InvariantViolation, match="^no color left for a high-degree neighbor") as info:
        complete_b_vertices(g, anchors, pc, classify_links(g, anchors))
    assert (info.value.step, info.value.vertex) == ("completion", 3)
    assert pc.colors[3] == 0


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
    result = b_coloring_with_good_set(g, find_good_set(g, density_profile(g)))
    assert all(type(event) is tuple for event in result.events)
    trace = result.trace
    assert all(type(event) is TraceEvent for event in trace)
    assert trace == result.events  # field by field, in assignment order
    assert Counter(event.step for event in trace if event.recolored_from is None) == Counter(
        step for step, _, _, old in result.events if old is None
    )
    assert [event for event in trace if event.recolored_from is not None] == [
        event for event in result.events if event[3] is not None
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
    anchors = find_good_set(g, profile)
    result = b_coloring_with_good_set(g, anchors)
    assert result.chi_b == profile.m == expected
    report = check_b_coloring(g, result.coloring, result.chi_b)
    assert report.valid and report.basis is not None
    assert exact_b_chromatic(g)[0] == expected


def test_full_construction_steal_chain_exact_coloring():
    g = steal_chain_tree()
    result = b_coloring_with_good_set(g, find_good_set(g, density_profile(g)))
    expected = [1, 2, 3, 3, 2, 1, 2, 1, 1, 2, 1]
    assert result.coloring == expected


def test_construction_rejects_non_good_set():
    g = path_graph(5)
    with pytest.raises(ValueError, match="not a good set"):
        b_coloring_with_good_set(g, GoodSet((0, 1, 2)))
    # a mark for another graph object is no certificate for this one
    marked = GoodSet((0, 1, 2))
    object.__setattr__(marked, "certified_on", path_graph(5))
    with pytest.raises(ValueError, match="not a good set"):
        b_coloring_with_good_set(g, marked)
    # and no constructor argument can set the mark
    with pytest.raises(TypeError):
        GoodSet((0, 1, 2), certified_on=g)


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
    anchors = find_good_set(twin, density_profile(twin))
    assert anchors.certified_on is twin and anchors == GoodSet(anchors.members)
    calls.clear()
    assert b_coloring_with_good_set(g, anchors).coloring == b_coloring_with_good_set(twin, anchors).coloring
    assert calls == ["bchrom.coloring"]


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
    anchors = find_good_set(g, profile)
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
