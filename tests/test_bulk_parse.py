"""The bulk reads of the edge-list and coloring parsers against their line loops.

Each parser reads a plain file in bulk and hands every other text to a
line-by-line loop.  Whatever the text, the result must be the loop's: the
same Graph or coloring, or the same ParseError message and line.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import bchrom.graph
from bchrom import Graph, ParseError, parse_edge_list
from bchrom.graph import (
    MAX_VERTICES,
    _coloring_bulk,
    _coloring_lines,
    _edge_list_bulk,
    _edge_list_lines,
    _plain_pairs,
    _repeated_neighbor,
    _sorted_adjacency,
    parse_coloring_file,
)

from helpers import regex_plain_pairs

# labels 0..6 keep self-loops, duplicates and unknown labels frequent
plain_numbers = st.integers(0, 6).map(str)
odd_numbers = st.sampled_from(["+5", "1_000", "007", "٣", "５", "-1", "x"])
separators = st.sampled_from([" ", " ", "\t", "  ", " \t"])
line_ends = st.sampled_from(["\n", "\n", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", " "])
odd_lines = st.sampled_from(["", "   ", "# a comment", "# n=4", "# n=9", "#n=2", "# k=2 basis=", "1 2 3", "7"])
plain_pairs = st.builds("{}{}{}".format, plain_numbers, separators, plain_numbers)
odd_pairs = st.builds(
    "{}{}{}{}".format,
    st.one_of(plain_numbers, odd_numbers),
    separators,
    st.one_of(plain_numbers, odd_numbers),
    st.sampled_from(["", "", " ", "\t"]),
)
any_lines = st.one_of(plain_pairs, plain_pairs, odd_pairs, odd_lines)


def join(draw, lines: list[str]) -> str:
    """Plain ("\\n" after every line, the shape the bulk reads accept) or mixed
    line ends, sometimes without a final one."""
    if draw(st.booleans()):
        return "".join(line + "\n" for line in lines)
    text = "".join(line + draw(line_ends) for line in lines)
    return text[:-1] if text and draw(st.booleans()) else text


# a leading header: none, plain, spaced, or above the vertex limit
n_headers = st.sampled_from([None, None, None, "# n=3", "# n=9", "#n = 2 ", f"# n={MAX_VERTICES + 1}"])


@st.composite
def edge_texts(draw):
    if draw(st.booleans()):
        lines = draw(st.lists(plain_pairs, max_size=12))
    else:
        lines = draw(st.lists(any_lines, max_size=12))
    header = draw(n_headers)
    return join(draw, lines if header is None else [header, *lines])


def outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError as exc:
        return "ParseError", str(exc), exc.line


@settings(max_examples=400)
@given(edge_texts())
@example("0 1\n1 2\n2 2\n")  # self-loop on line 3
@example("0 1\n1 2\n2 1\n")  # duplicate on line 3
@example("0 1\n1 2\n0 1\n")  # repeat on line 3
@example("0 1 1 2\n")
@example("0 1\r\n1 2\r\n")
@example("0 1\x0b1 2\n")
@example("0\x0c1\n")
@example("+5 1\n")
@example("0 1\n1 2")
@example("# n=3\n")  # header only
@example("# n=2\n5 7\n")  # labels above the declared count
@example("# n=4\n0 1\n")
@example(f"# n={MAX_VERTICES + 1}\n0 1\n")  # declared count above the limit
@example(f"# n={'9' * 5000}\n0 1\n")  # more digits than int() converts
@example("# n=3\n0 1\n1 0\n")  # duplicate after the header, on line 3
@example("# n=3\n# n=3\n")  # duplicate header
@example("3 0\n1 4\n2 1\n0 2\n")  # labels 0..n-1 in shuffled order: each label is its own id
@example("# n=6\n1 0\n3 2\n")  # labels 0..n-1 completed by the header
@example("1 2\n3 4\n")  # near miss: labels 1..n
@example("0 1\n3 4\n2 0\n")  # near miss: 0..n with one gap
@example("# n=2\n4 1\n")  # near miss: the header's 0..n-1 and a gap
def test_edge_list_bulk_read_matches_line_loop(text):
    assert outcome(parse_edge_list, text) == outcome(_edge_list_lines, text)


GRAPH = Graph(4, [(0, 1), (1, 2), (2, 3)], labels=[2, 3, 5, 6])


@st.composite
def coloring_texts(draw, g: Graph = GRAPH):
    """A header, then one line per vertex of ``g`` in a drawn order, colors
    0..3, sometimes broken: a line dropped, or one more line added (a
    repeat, an unknown label or an odd line)."""
    headers = ["# k=2 basis=", "# k=3 basis=2:1,3:2", "#k=2\tbasis= ", "# k=5 basis=", "# k=٢ basis="]
    header = draw(st.sampled_from(headers))
    labels = draw(st.permutations(g.labels))
    lines = [f"{label}{draw(separators)}{draw(st.integers(0, 3))}" for label in labels]
    if draw(st.booleans()):
        del lines[draw(st.integers(0, len(lines) - 1))]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(any_lines))
    return join(draw, [header, *lines])


@settings(max_examples=400)
@given(coloring_texts())
@example("# k=2 basis=\n2 1\n3 2\n7 1\n6 2\n")  # unknown label on line 4
@example("# k=2 basis=\n2 1\n3 2\n2 1\n5 1\n6 2\n")  # repeated vertex on line 4
@example("# k=2 basis=\n2 1\n3 2\n5 1\n")  # partial
@example("# k=5 basis=\n2 1\n3 2\n5 1\n6 2\n")  # k > n on line 1
@example("# k=2 basis=\x0b2 1\n3 2\n5 1\n6 2\n")
@example("#\x1ck=2 basis=\n2 1\n3 2\n5 1\n6 2\n")
@example("# k=2 basis=\n2 1\n3 02\n5 1\n6 2\n")  # a color with a leading zero on line 3
@example("# k=2 basis=\n2 1\n3 2\n05 1\n6 2\n")  # a label with a leading zero on line 4
@example("# k=2 basis=\n2 1\n3 2\n5 1\n6 2 \n")  # a trailing space on the last line only
def test_coloring_bulk_read_matches_line_loop(text):
    expected = outcome(_coloring_lines, text, GRAPH)
    assert outcome(parse_coloring_file, text, GRAPH) == expected


#: Graphs whose labels are 0..n-1: in id order, and with two swapped.
ID_GRAPH = Graph(4, [(0, 1), (1, 2), (2, 3)])
SWAPPED_GRAPH = Graph(4, [(0, 1), (1, 2), (2, 3)], labels=[1, 0, 2, 3])


@settings(max_examples=300)
@given(st.sampled_from([ID_GRAPH, SWAPPED_GRAPH]).flatmap(lambda g: st.tuples(st.just(g), coloring_texts(g))))
def test_coloring_bulk_read_on_labels_zero_to_n_matches_line_loop(case):
    g, text = case
    assert outcome(parse_coloring_file, text, g) == outcome(_coloring_lines, text, g)


def test_plain_texts_take_the_bulk_read():
    for text in ["10 40\n40 7\n7\t3\n", "# n=50\n10 40\n40 7\n7\t3\n", "# n=3\n"]:
        g = _edge_list_bulk(text)
        assert isinstance(g, Graph)
        assert g == _edge_list_lines(text)
    # labels 0..n-1 are read as ids, whatever the order
    assert _edge_list_bulk("2 0\n1 2\n").adj == ((2,), (2,), (0, 1))
    coloring = "# k=2 basis=1:2,2:3\n2 1\n3\t2\n5 1\n6 2\n"
    assert _coloring_bulk(coloring, GRAPH) == (2, [1, 2, 1, 2])
    # a color 0 is a color like any other
    assert _coloring_bulk("# k=2 basis=\n2 1\n3 2\n5 1\n6 0\n", GRAPH) == (2, [1, 2, 1, 0])


@pytest.mark.parametrize(
    "text",
    [
        "00 1\n1 02\n",  # leading zeros
        "0  1\n1 2\n",  # two spaces
        "0 1\n1 \t2\n",  # a space and a tab
        "0 1\n\n1 2\n",  # an empty line
    ],
)
def test_edge_lists_outside_the_bulk_form_take_the_line_loop(text):
    assert _plain_pairs(text) is None
    assert _edge_list_bulk(text) is None
    assert parse_edge_list(text) == _edge_list_lines(text) == _edge_list_lines("0 1\n1 2\n")


@pytest.mark.parametrize(
    ("g", "text", "coloring"),
    [
        (GRAPH, "# k=2 basis=\n6 0\n2 1\n5 1\n3 2\n", [1, 2, 1, 0]),  # out of id order
        (GRAPH, "# k=2 basis=\n02 1\n3 02\n5 01\n6 0\n", [1, 2, 1, 0]),  # leading zeros
        (GRAPH, "# k=2 basis=\n2  1\n3 2\n5 1\n6 0\n", [1, 2, 1, 0]),  # two spaces
        (ID_GRAPH, "# k=2 basis=\n3 2\n0 1\n2 1\n1 2\n", [1, 2, 1, 2]),  # out of id order
        (SWAPPED_GRAPH, "# k=2 basis=\n3 2\n0 1\n2 1\n1 2\n", [2, 1, 1, 2]),  # out of id order
    ],
)
def test_coloring_files_outside_the_bulk_form_take_the_line_loop(g, text, coloring):
    assert _coloring_bulk(text, g) is None
    assert parse_coloring_file(text, g) == _coloring_lines(text, g) == (2, coloring)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("0 1\n1 2\n2 2\n", "line 3: self-loop at vertex 2"),
        ("0 1\n1 2\n2 1\n", "line 3: duplicate edge 2 1"),
        ("0 1\n1 2\n0 1\n", "line 3: duplicate edge 0 1"),
        # labels that are not 0..n-1: the bulk read maps them to ids first
        ("10 11\n11 12\n12 12\n", "line 3: self-loop at vertex 12"),
        ("10 11\n11 12\n12 11\n", "line 3: duplicate edge 12 11"),
        ("10 11\n11 12\n10 11\n", "line 3: duplicate edge 10 11"),
        ("10 10\n", "line 1: self-loop at vertex 10"),
    ],
)
def test_edge_list_anomaly_in_a_plain_text_names_its_line(text, message):
    assert _edge_list_bulk(text) is None
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_edge_list(text)


def naive_repeated_neighbor(adj):
    """The first u in id order whose list names some neighbor twice, with the
    lowest such neighbor."""
    for u, nbrs in enumerate(adj):
        twice = [v for v in nbrs if nbrs.count(v) > 1]
        if twice:
            return u, min(twice)
    return None


@st.composite
def adjacencies(draw):
    """The sorted adjacency of up to 12 random edges on 1 to 9 vertices:
    repeats, reversals and self-loops are frequent."""
    n = draw(st.integers(1, 9))
    ends = st.integers(0, n - 1)
    return _sorted_adjacency(n, draw(st.lists(st.tuples(ends, ends), max_size=12)))


@settings(max_examples=300)
@given(adjacencies())
def test_repeated_neighbor_matches_its_definition(adj):
    assert _repeated_neighbor(adj) == naive_repeated_neighbor(adj)


@pytest.mark.parametrize(
    "text",
    [
        "0 1\n2 3\n",  # plain: the bulk read counts the labels, the line loop refuses them
        "# n=3\n5 6\n",  # plain with a header: likewise
        "0 1\r\n2 3\r\n",  # the line loop
        "# n=2\n# a comment\n7 8\n",  # the line loop
    ],
)
def test_distinct_labels_are_capped(monkeypatch, text):
    monkeypatch.setattr(bchrom.graph, "MAX_VERTICES", 3)
    for parse in (parse_edge_list, _edge_list_lines):
        with pytest.raises(ParseError, match=r"^the edge list names [45] distinct vertices, above the limit 3$"):
            parse(text)
    assert parse_edge_list("0 1\n1 2\n").n == 3
    assert parse_edge_list("# n=3\n1 2\n").n == 3
    # an error on an earlier line is named before the count is refused
    with pytest.raises(ParseError, match="^line 3: duplicate edge 0 1$"):
        parse_edge_list("0 1\n2 3\n0 1\n")


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("# k=2 basis=\n2 1\n3 2\n7 1\n6 2\n", "line 4: unknown vertex label 7"),
        ("# k=2 basis=\n2 1\n3 2\n2 1\n5 1\n", "line 4: vertex 2 colored twice"),
        ("# k=2 basis=\n2 0\n3 2\n2 1\n5 1\n", "line 4: vertex 2 colored twice"),  # 0 is a color too
        ("# k=2 basis=\n2 1\n3 2\n5 1\n", "coloring is partial: vertex 6 has no color"),
        ("# k=5 basis=\n2 1\n3 2\n5 1\n6 2\n", "line 1: k=5 exceeds the graph's 4 vertices"),
    ],
)
def test_coloring_anomaly_in_a_plain_text_names_its_line(text, message):
    assert _coloring_bulk(text, GRAPH) is None
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_coloring_file(text, GRAPH)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("# k=2 basis=\n0 1\n1 2\n4 1\n3 2\n", "line 4: unknown vertex label 4"),
        ("# k=2 basis=\n0 1\n1 2\n0 1\n2 1\n", "line 4: vertex 0 colored twice"),
        ("# k=2 basis=\n0 1\n1 2\n3 1\n", "coloring is partial: vertex 2 has no color"),
    ],
)
def test_coloring_anomaly_on_labels_zero_to_n_names_its_line(text, message):
    assert _coloring_bulk(text, ID_GRAPH) is None
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_coloring_file(text, ID_GRAPH)


# characters that make or break a plain line, "٣" a non-ASCII decimal
text_chars = st.sampled_from(["0", "1", "9", " ", "\t", "\n", "\r", "#", "x", "٣"])
plain_lines = st.builds("{} {}\n".format, st.integers(0, 999), st.integers(0, 999))
noisy_lines = st.text(text_chars, max_size=8).map(lambda line: line + "\n")
pair_bodies = st.one_of(
    st.text(text_chars, max_size=30),
    st.lists(st.one_of(plain_lines, plain_lines, noisy_lines), max_size=8).map("".join),
)
# a header the caller has matched, skipped through ``start``; one is not ASCII
pair_headers = st.sampled_from(["", "", "# n=3\n", "# k=2 basis=\n", "# k=2 basis=٣:1\n"])


@settings(max_examples=500)
@given(pair_headers, pair_bodies)
@example("", "1  2\n")
@example("", "1\t2\n")
@example("", "1 \t2\n")
@example("", "1\t\t2\n")
@example("", "1\t2\n3 04\n")
@example("", " 1 2\n")
@example("", "1 2 \n")
@example("", "1 2")
@example("", "\n")
@example("", "007 1\n")
@example("", "1 2\r\n")
@example("", "")
@example("# n=3\n", "")
@example("", "1 \n2")
@example("", "1 2\n\ud800 1\n")  # a lone surrogate is not ASCII either
@example("", f"{'1' * 4301} 2\n")  # more digits than int() converts
# JSON refuses a text of the right shape only on a later line
@example("", "0 1\n2 03\n")
@example("", "1 2\n00 1\n")
@example("", f"1 2\n{'1' * 4301} 2\n")
@example("", "0 0\n")  # zeros without a leading zero: JSON reads them
@example("# n=3\n", "0 1\n1 2 \n")  # a trailing space on the last line only
def test_plain_pairs_match_the_line_search(header, body):
    assert _plain_pairs(header + body, len(header)) == regex_plain_pairs(header + body, len(header))


def test_bulk_reads_match_the_line_loops_at_size():
    """A tree and a coloring file of 2^16 lines each, labels 0..n-1 shuffled:
    the edge list takes the bulk read, and so does the coloring file in id
    order but not in shuffled order; each agrees with its line loop."""
    rng = random.Random(7)
    n = 2**16 + 1
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[v], label[rng.randrange(v)]) for v in range(1, n)]
    rng.shuffle(edges)
    edge_text = "".join(f"{a} {b}\n" for a, b in edges)
    assert _plain_pairs(edge_text) == regex_plain_pairs(edge_text)
    g = _edge_list_bulk(edge_text)
    assert g is not None and g == _edge_list_lines(edge_text)
    header = "# k=3 basis=\n"
    colors = [rng.randrange(4) for _ in range(n)]
    in_order = header + "".join(f"{u} {colors[u]}\n" for u in range(n))
    shuffled = header + "".join(f"{u} {colors[u]}\n" for u in label)
    for coloring_text in (in_order, shuffled):
        assert _plain_pairs(coloring_text, len(header)) == regex_plain_pairs(coloring_text, len(header))
    assert _coloring_bulk(in_order, g) == _coloring_lines(in_order, g) == (3, colors)
    assert _coloring_bulk(shuffled, g) is None
    assert parse_coloring_file(shuffled, g) == (3, colors)
