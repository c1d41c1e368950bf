import hashlib
import importlib.util
import math
import random
import re
from itertools import combinations, islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bchrom.graph
from bchrom import ACYCLIC, Graph, ParseError, girth, parse_dimacs, parse_edge_list
from bchrom.graph import (
    _within_distance,
    format_coloring_file,
    generate_girth_constrained,
    parse_coloring_file,
    to_edge_list,
)

from helpers import (
    all_roots_girth,
    brute_force_girth,
    cycle_graph,
    fstring_format_coloring_file,
    one_sided_within_distance,
    path_graph,
    petersen_graph,
    random_simple_graph,
    random_tree,
)

CROSSCHECK = Path(__file__).resolve().parents[1] / "scripts" / "crosscheck.py"


def test_parse_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.degrees() == [1, 2, 1]


def test_parse_rejects_self_loop():
    with pytest.raises(ParseError, match="self-loop"):
        parse_edge_list("0 0")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(ParseError, match="duplicate"):
        parse_edge_list("0 1\n0 1")
    with pytest.raises(ParseError, match="duplicate"):
        parse_edge_list("0 1\n1 0")


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("0 1\n\n1 2 3")


def test_parse_comments_and_sparse_labels():
    g = parse_edge_list("# a comment\n10 40\n40 7\n")
    assert g.n == 3
    assert g.labels == (7, 10, 40)
    assert g.labels.index(40) in g.adj[g.labels.index(10)]


def test_parse_n_header_declares_isolated_vertices():
    g = parse_edge_list("# n=5\n0 1\n")
    assert g.n == 5
    assert g.degrees() == [1, 1, 0, 0, 0]


def test_constructor_validates():
    with pytest.raises(ValueError, match=r"^self-loop at vertex 0$"):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(2, 4\)$"):
        Graph(5, [(4, 2), (0, 1), (1, 3), (2, 4)])
    with pytest.raises(ValueError, match=r"^edge \(0, 5\) out of range for n=2$"):
        Graph(2, [(0, 5)])


def test_constructor_refuses_a_negative_vertex_count():
    with pytest.raises(ValueError, match=r"^vertex count must be nonnegative$"):
        Graph(-1, [])


def test_constructor_refuses_labels_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"^labels must cover every vertex$"):
        Graph(3, [(0, 1)], labels=[5, 6])


def test_constructor_refuses_repeated_labels():
    with pytest.raises(ValueError, match=r"^labels must be distinct$"):
        Graph(3, [(0, 1)], labels=[5, 6, 5])


def test_constructor_sorts_each_adjacency():
    g = Graph(5, [(4, 2), (0, 3), (3, 2), (1, 3), (2, 0)])
    assert g.adj == ((2, 3), (3,), (0, 3, 4), (0, 1, 2), (2,))


def test_dimacs_round_trip_semantics():
    text = "c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
    g = parse_dimacs(text)
    assert g.n == 4
    assert g.labels == (1, 2, 3, 4)
    assert g.degrees() == [1, 2, 2, 1]


def test_dimacs_rejects_bad_lines():
    with pytest.raises(ParseError):
        parse_dimacs("e 1 2\n")  # edge before problem line
    with pytest.raises(ParseError):
        parse_dimacs("p edge 2 1\ne 1 3\n")  # endpoint out of range
    with pytest.raises(ParseError):
        parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n")  # duplicate edge
    with pytest.raises(ParseError, match="self-loop"):
        parse_dimacs("p edge 2 1\ne 2 2\n")


def test_dimacs_refuses_a_non_integer_vertex_count():
    with pytest.raises(ParseError, match=r"^line 1: non-integer vertex count$") as refusal:
        parse_dimacs("p edge x 0\n")
    assert refusal.value.line == 1


def test_dimacs_refuses_an_edge_line_with_the_wrong_field_count():
    with pytest.raises(ParseError, match=r"^line 3: edge line must read 'e <u> <v>'$") as refusal:
        parse_dimacs("p edge 3 2\ne 1 2\ne 2 3 1\n")
    assert refusal.value.line == 3


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("p edge 3 banana\ne 1 2\n", "line 1: non-integer edge count"),
        ("p edge 3 -1\ne 1 2\n", "line 1: problem line declares -1 edges, a negative count"),
        ("p edge 3 2\ne 1 2\n", "line 1: problem line declares 2 edges, the file has 1"),
        ("p banana 3 1\ne 1 2\n", "line 1: problem line must read 'p edge <n> <m>'"),
        ("p edge 2 1\np edge 3 1\ne 1 2\n", "line 2: duplicate problem line"),
    ],
)
def test_dimacs_edge_count_must_match_the_edge_lines(text, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_dimacs(text)


def test_declared_vertex_count_is_capped(monkeypatch):
    with pytest.raises(ParseError, match="line 2: '# n=' declares 1000000000000 vertices"):
        parse_edge_list("0 1\n# n=1000000000000\n")
    with pytest.raises(ParseError, match="line 2: problem line declares 1000000000000 vertices"):
        parse_dimacs("c big\np edge 1000000000000 0\n")
    monkeypatch.setattr(bchrom.graph, "MAX_VERTICES", 3)
    assert parse_edge_list("# n=3\n").n == 3
    assert parse_dimacs("p edge 3 0\n").n == 3
    with pytest.raises(ParseError, match="above the limit 3"):
        parse_edge_list("# n=4\n")
    with pytest.raises(ParseError, match="above the limit 3"):
        parse_dimacs("p edge 4 0\n")


#: Tokens int() alone reads as integers, which no reader accepts: "+3",
#: "1_0" and the Arabic-Indic digit three.
ODD_INTEGERS = ["+3", "1_0", "\u0663"]


@pytest.mark.parametrize("token", ODD_INTEGERS)
def test_edge_list_reads_only_ascii_decimal_labels(token):
    with pytest.raises(ParseError, match=rf"^line 2: non-integer vertex label in '{re.escape(token)} 2'$") as refusal:
        parse_edge_list(f"0 1\n{token} 2\n")
    assert refusal.value.line == 2
    # a "# n=" line whose count is no ASCII decimal is no header, but a comment
    assert parse_edge_list(f"# n={token}\n0 1\n").n == 2
    # zero-padded labels are ASCII decimals, and read as the plain ones
    assert parse_edge_list("# n=004\n00 01\n01 02\n") == parse_edge_list("# n=4\n0 1\n1 2\n")


@pytest.mark.parametrize("token", ODD_INTEGERS)
def test_dimacs_reads_only_ascii_decimal_integers(token):
    with pytest.raises(ParseError, match=r"^line 3: non-integer endpoint$") as refusal:
        parse_dimacs(f"p edge 3 2\ne 1 2\ne {token} 2\n")
    assert refusal.value.line == 3
    with pytest.raises(ParseError, match=r"^line 1: non-integer vertex count$"):
        parse_dimacs(f"p edge {token} 0\n")
    with pytest.raises(ParseError, match=r"^line 1: non-integer edge count$"):
        parse_dimacs(f"p edge 3 {token}\n")
    assert parse_dimacs("p edge 03 01\ne 01 003\n") == parse_dimacs("p edge 3 1\ne 1 3\n")


@pytest.mark.parametrize("token", ODD_INTEGERS)
def test_coloring_file_reads_only_ascii_decimal_integers(token):
    g = path_graph(3)
    with pytest.raises(ParseError, match=rf"^line 3: non-integer token in '1 {re.escape(token)}'$") as refusal:
        parse_coloring_file(f"# k=2 basis=\n0 1\n1 {token}\n2 1\n", g)
    assert refusal.value.line == 3
    with pytest.raises(ParseError, match=r"^missing '# k=... basis=...' header$"):
        parse_coloring_file(f"# k={token} basis=\n0 1\n1 2\n2 1\n", g)
    assert parse_coloring_file("# k=02 basis=\n00 1\n01 -02\n2 01\n", g) == (2, [1, -2, 1])


def test_serialize_round_trip_with_header():
    g = Graph(4, [(0, 2)])
    text = to_edge_list(g)
    assert text.splitlines()[0] == "# n=4"
    assert parse_edge_list(text) == g


def test_serialize_requires_dense_labels_for_isolated():
    g = Graph(2, [], labels=[3, 9])
    with pytest.raises(ValueError):
        to_edge_list(g)


def test_girth_cycle_and_tree():
    assert girth(cycle_graph(9)) == 9
    assert girth(path_graph(6)) == ACYCLIC
    assert girth(Graph(1, [])) == ACYCLIC
    assert girth(Graph(0, [])) == ACYCLIC


def test_girth_petersen():
    petersen = petersen_graph()
    assert petersen.edge_count == 15
    expected = brute_force_girth(petersen)
    assert expected == 5
    assert girth(petersen) == 5


def test_girth_two_cycles_sharing_a_vertex():
    # C_3 and C_5 glued at vertex 0
    g = Graph(7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 0)])
    assert girth(g) == 3


@given(st.integers(0, 9), st.integers(0, 40), st.integers(0, 2**30))
def test_girth_matches_brute_force(n, extra, seed):
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    g = Graph(n, pairs[: min(extra, len(pairs))])
    assert girth(g) == brute_force_girth(g)


def _relabeled(n: int, edges: list[tuple[int, int]], rng: random.Random) -> Graph:
    """The graph on a random vertex numbering, so roots are met in any order."""
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _grow(edges: list[tuple[int, int]], n: int, extra: int, rng: random.Random, lo: int = 0) -> int:
    """Add vertices n .. n + extra - 1, each joined to a random earlier vertex >= lo."""
    for new in range(n, n + extra):
        if new > lo:
            edges.append((rng.randrange(lo, new), new))
    return n + extra


def _ring(edges: list[tuple[int, int]], first: int, length: int) -> int:
    edges.extend((first + i, first + (i + 1) % length) for i in range(length))
    return first + length


def _pendant_cycles(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A random tree, cycles glued onto it at one vertex each, pendant trees everywhere."""
    edges: list[tuple[int, int]] = []
    n = _grow(edges, 0, rng.randrange(1, 8), rng)
    for _ in range(rng.randrange(1, 4)):
        first = n
        n = _ring(edges, first, rng.randrange(3, 9))
        edges.append((rng.randrange(first), first + rng.randrange(n - first)))
    return _grow(edges, n, rng.randrange(0, 8), rng), edges


def _rings_and_branchy(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Disjoint rings beside a tree with a few chords; often a ring is the shortest cycle."""
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(rng.randrange(1, 4)):
        n = _ring(edges, n, rng.randrange(3, 10))
    first = n
    n = _grow(edges, n, rng.randrange(3, 16), rng, lo=first)
    present = set(edges)
    for _ in range(rng.randrange(1, 4)):
        chord = tuple(sorted(rng.sample(range(first, n), 2)))
        if chord not in present:
            present.add(chord)
            edges.append(chord)
    return n, edges


def _theta(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Two vertices joined by three internally disjoint paths, at most one of them an edge."""
    lengths = sorted(rng.randrange(1, 8) for _ in range(3))
    lengths[1] = max(lengths[1], 2)
    lengths[2] = max(lengths[2], 2)
    edges: list[tuple[int, int]] = []
    n = 2
    for length in lengths:
        path = [0] + list(range(n, n + length - 1)) + [1]
        n += length - 1
        edges.extend(zip(path, path[1:]))
    return _grow(edges, n, rng.randrange(0, 5), rng), edges


def _forest(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Several trees plus isolated vertices."""
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(rng.randrange(1, 4)):
        tree = random_tree(rng.randrange(1, 12), rng)
        edges.extend((n + u, n + v) for u, v in tree.edges())
        n += tree.n
    return n + rng.randrange(0, 4), edges


GIRTH_SHAPES = {
    "pendant-cycles": _pendant_cycles,
    "rings-and-branchy": _rings_and_branchy,
    "theta": _theta,
    "forest": _forest,
    "tiny": lambda rng: (rng.randrange(2), []),
}


@st.composite
def girth_shapes(draw):
    """Graphs that reach every branch of girth(): peeling, ring components, branch-vertex BFS."""
    shape = draw(st.sampled_from(sorted(GIRTH_SHAPES)))
    rng = random.Random(draw(st.integers(0, 2**30)))
    n, edges = GIRTH_SHAPES[shape](rng)
    return _relabeled(n, edges, rng)


@given(girth_shapes())
@settings(max_examples=300)
def test_girth_matches_brute_force_on_shaped_graphs(g):
    assert girth(g) == brute_force_girth(g)


def test_girth_ring_beside_branchy_component():
    # rings next to a theta graph whose shortest cycle has length 6
    ring = [(0, 1), (1, 2), (2, 3), (3, 0)]
    theta = [(4, 5), (5, 6), (6, 7), (4, 8), (8, 9), (9, 7), (4, 10), (10, 11), (11, 12), (12, 7)]
    assert girth(Graph(13, ring + theta)) == 4
    assert girth(Graph(13, theta)) == 6
    assert girth(Graph(13, [(0, 1), (1, 2), (2, 0)] + theta)) == 3


@given(st.integers(9, 300), st.integers(3, 10), st.integers(0, 2**30))
@settings(max_examples=60)
def test_girth_matches_all_roots_on_generated_graphs(n, min_girth, seed):
    g = generate_girth_constrained(n, min_girth, n + n // 8, seed=seed)
    assert girth(g) == all_roots_girth(g)


@given(st.integers(2, 300), st.integers(1, 4), st.integers(0, 2**30))
@settings(max_examples=60)
def test_girth_matches_all_roots_on_trees_with_extra_edges(n, extra, seed):
    rng = random.Random(seed)
    edges = set(random_tree(n, rng).edges())
    for _ in range(extra):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    g = Graph(n, sorted(edges))
    assert girth(g) == all_roots_girth(g)


def _hubs_with_leaves(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Hubs joined by paths of length 1 to 3, each hub padded with many pendant leaves."""
    hubs = rng.randrange(3, 7)
    edges: list[tuple[int, int]] = []
    n = hubs
    for a, b in combinations(range(hubs), 2):
        if rng.random() < 0.7:
            path = [a, *range(n, n + rng.randrange(3)), b]
            n += len(path) - 2
            edges.extend(zip(path, path[1:]))
    for hub in range(hubs):
        leaves = rng.randrange(10, 60)
        edges.extend((hub, leaf) for leaf in range(n, n + leaves))
        n += leaves
    return n, edges


def _cycles_with_long_pendant_trees(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A theta graph and a ring, with long paths and trees hung from their vertices."""
    n, edges = _theta(rng)
    n = _ring(edges, n, rng.randrange(3, 12))
    for _ in range(rng.randrange(1, 6)):
        tail = [rng.randrange(n), *range(n, n + rng.randrange(5, 40))]
        n += len(tail) - 1
        edges.extend(zip(tail, tail[1:]))
        n = _grow(edges, n, rng.randrange(0, 20), rng, lo=tail[-1] if len(tail) > 1 else 0)
    return n, edges


def _grid_with_pendant_trees(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A rows x cols grid (girth 4, every inner vertex a branch vertex) with trees hung from it."""
    rows, cols = rng.randrange(2, 12), rng.randrange(2, 12)
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return _grow(edges, rows * cols, rng.randrange(0, 30), rng), edges


def _subdivided_hubs(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Hubs joined by paths of length 2 or 3, beside a triangle whose sides are
    paths of length 3 (a 9-cycle), with pendant leaves on the hubs."""
    hubs = rng.randrange(4, 10)
    edges: list[tuple[int, int]] = []
    n = hubs
    for a, b in combinations(range(hubs), 2):
        if rng.random() < 0.6:
            path = [a, *range(n, n + rng.randrange(1, 3)), b]
            n += len(path) - 2
            edges.extend(zip(path, path[1:]))
    corners = [n, n + 1, n + 2]
    n += 3
    for a, b in combinations(corners, 2):
        path = [a, n, n + 1, b]
        n += 2
        edges.extend(zip(path, path[1:]))
    edges.append((rng.randrange(hubs), corners[0]))
    for hub in range(hubs):
        leaves = rng.randrange(0, 8)
        edges.extend((hub, leaf) for leaf in range(n, n + leaves))
        n += leaves
    return n, edges


@given(
    st.sampled_from([_hubs_with_leaves, _cycles_with_long_pendant_trees, _grid_with_pendant_trees, _subdivided_hubs]),
    st.integers(0, 2**30),
)
@settings(max_examples=100)
def test_girth_matches_all_roots_on_cores_with_many_peeled_vertices(shape, seed):
    rng = random.Random(seed)
    g = _relabeled(*shape(rng), rng)
    assert girth(g) == all_roots_girth(g)


@pytest.mark.parametrize("seed", range(3))
def test_girth_matches_all_roots_on_generated_girth_nine_graphs_of_2000_vertices(seed):
    rng = random.Random(seed)
    g = generate_girth_constrained(2000, 9, 2300, seed=seed)
    value = girth(g)
    assert value >= 9
    assert value == girth(_relabeled(g.n, list(g.edges()), rng)) == all_roots_girth(g)


def test_girth_of_disjoint_rings_with_the_shortest_at_the_highest_ids():
    # every ring vertex has degree 2, so roots go by id: the 5-cycle comes last
    edges: list[tuple[int, int]] = []
    n = 0
    for length in (12, 10, 8, 7, 5):
        n = _ring(edges, n, length)
    assert girth(Graph(n, edges)) == 5
    # a theta graph of girth 6 at the lowest ids: its branch vertices go first
    theta = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 3), (0, 6), (6, 7), (7, 8), (8, 3)]
    shifted = [(u + 9, v + 9) for u, v in edges]
    assert girth(Graph(n + 9, theta + shifted)) == 5
    assert girth(Graph(n + 9, theta + shifted[:-5])) == 6  # the 5-cycle dropped


def test_girth_of_a_long_ring_with_pendant_trees_is_linear():
    # one BFS from the first root meets the whole ring; deleting that root then
    # peels the rest, so no second BFS runs.  The trees hang from the ring's
    # last ten vertices, so the other ring vertices become roots in id order: a
    # peel that stopped after one vertex would leave a path whose every other
    # vertex is a root, each with a BFS over half the ring.
    rng = random.Random(7)
    length = 70_000
    edges: list[tuple[int, int]] = []
    n = _ring(edges, 0, length)
    n = _grow(edges, n, 30_000, rng, lo=length - 10)
    assert girth(Graph(n, edges)) == length
    assert girth(_relabeled(n, edges, rng)) == length


@given(st.integers(1, 10), st.integers(0, 2**30))
def test_edge_list_round_trip(n, seed):
    rng = random.Random(seed)
    pairs = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.4]
    g = Graph(n, pairs)
    if any(len(g.adj[u]) == 0 for u in range(n)):
        assert parse_edge_list(to_edge_list(g)) == g
    else:
        # also exercise exotic labels when no header is needed
        relabeled = Graph(n, pairs, labels=[3 * i + 5 for i in range(n)])
        assert parse_edge_list(to_edge_list(relabeled)) == relabeled


@st.composite
def colored_graphs(draw):
    """A graph with distinct labels in no particular order, a color per
    vertex id (negative colors send the file to the line loop), k and a basis."""
    n = draw(st.integers(1, 12))
    labels = draw(st.lists(st.integers(0, 10**12), min_size=n, max_size=n, unique=True))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    g = Graph(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v}, labels=labels)
    coloring = [draw(st.integers(-2, 10**9)) for _ in range(n)]
    k = draw(st.integers(1, n))
    basis = draw(st.dictionaries(st.integers(1, k), st.integers(0, n - 1)))
    return g, coloring, k, basis


@given(colored_graphs())
def test_coloring_file_round_trip(case):
    g, coloring, k, basis = case
    text = "".join(format_coloring_file(g, coloring, k, basis))
    assert parse_coloring_file(text, g) == (k, coloring)
    assert parse_coloring_file(text.replace("\n", "\r\n"), g) == (k, coloring)


def test_coloring_file_blocks_join_to_the_one_string_file():
    # the header, one full block of 2**16 lines, and a block of the last 3
    n = 2**16 + 3
    g = path_graph(n)
    coloring = [u % 2 + 1 for u in range(n)]
    reference = "# k=2 basis=0:1,1:2\n" + "".join(f"{u} {coloring[u]}\n" for u in range(n))
    blocks = format_coloring_file(g, coloring, 2, {1: 0, 2: 1})
    assert [block.count("\n") for block in blocks] == [1, 2**16, 3]
    assert "".join(blocks) == reference


@pytest.mark.parametrize("n", [0, 1, 2**16 - 1, 2**16, 2**16 + 1])
def test_coloring_file_matches_the_fstring_reference(n):
    # many-digit labels in no order; negative, small and 10-digit colors
    rng = random.Random(n)
    labels = rng.sample(range(10**15, 10**15 + 4 * n + 1), n)
    g = Graph(n, [(u, u + 1) for u in range(0, n - 1, 3)], labels=labels)
    coloring = [rng.choice((-7, -1, 1, 2, 9, 10, 1234567890, -9876543210)) for _ in range(n)]
    basis = {c: rng.randrange(n) for c in (2, 1, 3)} if n else {}
    expected = fstring_format_coloring_file(g, coloring, 3, basis)
    assert len(expected) == 1 + -(-n // 2**16)
    assert format_coloring_file(g, coloring, 3, basis) == expected


def test_generator_deterministic_and_respects_girth():
    a = generate_girth_constrained(40, 9, 50, seed=7)
    b = generate_girth_constrained(40, 9, 50, seed=7)
    assert a == b
    assert to_edge_list(a) == to_edge_list(b)
    value = girth(a)
    assert value == ACYCLIC or value >= 9


#: sha256 of ``to_edge_list`` (first 16 hex digits) of seeded calls (n, min_girth, edge_budget, seed),
#: as the generator gave them before it stopped on saturated graphs: CI's two calls, then a grid.
GENERATED_DIGESTS = {
    (300, 9, 320, 1): "ad272673abcd63e9",
    (10, 9, 10**9, 0): "3ebcad01983a092f",
    (2, 9, 1, 0): "a79122992d53d358",
    (7, 3, 7, 0): "c7af800bd1aca5aa",
    (7, 3, 7, 1): "37fe6ce98951e32d",
    (7, 3, 21, 0): "2091e21e15618a74",
    (7, 3, 21, 1): "2091e21e15618a74",
    (7, 5, 7, 0): "b9aa2db171cebf9f",
    (7, 5, 7, 1): "9df1f826c61e4771",
    (7, 5, 21, 0): "b9aa2db171cebf9f",
    (7, 5, 21, 1): "49695bb837e1e010",
    (7, 9, 7, 0): "9a5775335017d5b1",
    (7, 9, 7, 1): "1131d677f97069ee",
    (7, 9, 21, 0): "9a5775335017d5b1",
    (7, 9, 21, 1): "1131d677f97069ee",
    (16, 3, 16, 0): "c60750ec54e12668",
    (16, 3, 16, 1): "7ed8530ee9fff977",
    (16, 3, 120, 0): "1be43d0887840ab4",
    (16, 3, 120, 1): "1be43d0887840ab4",
    (16, 5, 16, 0): "86ccb077bf575339",
    (16, 5, 16, 1): "2c705759a8b1aed2",
    (16, 5, 120, 0): "8408580a49ee967b",
    (16, 5, 120, 1): "76396ac17e2f6fda",
    (16, 9, 16, 0): "e37ca4bd5542ed82",
    (16, 9, 16, 1): "8d83cbf02d9a92a8",
    (16, 9, 120, 0): "e37ca4bd5542ed82",
    (16, 9, 120, 1): "5079273084bb71ad",
    (40, 3, 40, 0): "fea8ffbe1d6615ab",
    (40, 3, 40, 1): "38c399fcd4916bf1",
    (40, 3, 780, 0): "c17126dfc2bf4e96",
    (40, 3, 780, 1): "c17126dfc2bf4e96",
    (40, 5, 40, 0): "fea8ffbe1d6615ab",
    (40, 5, 40, 1): "1b1d70b8cd7717e4",
    (40, 5, 780, 0): "21c23b963327b81f",
    (40, 5, 780, 1): "3b1737cd6f421cb2",
    (40, 9, 40, 0): "f9cb76bac188cd1b",
    (40, 9, 40, 1): "91395ea35b2be592",
    (40, 9, 780, 0): "afaa60d02b1e822a",
    (40, 9, 780, 1): "7aebd0a456651b8f",
}


def edge_list_digest(graphs) -> str:
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(to_edge_list(g).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("call", GENERATED_DIGESTS)
def test_generator_gives_the_pinned_graph(call):
    assert edge_list_digest([generate_girth_constrained(*call)]) == GENERATED_DIGESTS[call]


def test_generator_gives_the_crosschecks_pinned_multi_cycle_graphs():
    """The first 300 graphs of ``scripts/crosscheck.py``'s multi-cycle
    family, drawn by the script's own code, most of them saturated before
    their edge budget is spent."""
    spec = importlib.util.spec_from_file_location("crosscheck", CROSSCHECK)
    crosscheck = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(crosscheck)
    graphs = islice(crosscheck.multi_cycle_graphs(random.Random(7)), 300)
    assert edge_list_digest(graphs) == "df8be2a9993c2e40"


def test_two_sided_distance_test_matches_the_one_sided_bfs():
    """The generator's distance test against a BFS from one end alone, on
    10,000 seeded (graph, u, v, cap) cases: sparse graphs, where distances
    run long and components end before the cap, and denser ones.  4,910 of
    the pairs are within the cap, and 529 just beyond it."""
    rng = random.Random(2036)
    within = 0
    for _ in range(200):
        n = rng.randint(2, 60)
        adj = [set(nbrs) for nbrs in random_simple_graph(n, rng.choice([0.02, 0.05, 0.1, 0.3]), rng).adj]
        for _ in range(50):
            u, v = rng.sample(range(n), 2)
            cap = rng.randint(1, 9)
            expected = one_sided_within_distance(adj, u, v, cap)
            assert _within_distance(adj, u, v, cap) == expected, (adj, u, v, cap)
            within += expected
    assert within == 4910


def test_generator_small_n_is_acyclic():
    # a cycle of length >= 9 needs 9 vertices, so n = 8 forces a forest
    g = generate_girth_constrained(8, 9, 7, seed=3)
    assert girth(g) == ACYCLIC


def test_generator_rejects_girth_below_three():
    with pytest.raises(ValueError):
        generate_girth_constrained(5, 2, 4, seed=0)


def test_generator_rejects_negative_counts():
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        generate_girth_constrained(-1, 9, 4, seed=0)
    with pytest.raises(ValueError, match="^edge budget must be nonnegative$"):
        generate_girth_constrained(5, 9, -3, seed=0)


def test_generator_girth_postcondition_sweep():
    # small instances so the independent check stays cheap
    for seed in range(1000):
        g = generate_girth_constrained(11, 9, 13, seed=seed)
        value = brute_force_girth(g)
        assert value == math.inf or value >= 9


def test_generator_triangle_budget():
    g = generate_girth_constrained(30, 3, 60, seed=11)
    assert g.edge_count > 0
    value = girth(g)
    assert value == ACYCLIC or value >= 3
