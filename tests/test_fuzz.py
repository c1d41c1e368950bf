"""Parser fuzzing through the CLI: hostile files end in a documented exit code.

Numbers in the generated files are small or 10**12, and free text and raw
bytes hold no decimal digits, so no file can declare a large but accepted
graph.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from bchrom import Graph, parse_edge_list
from bchrom.graph import generate_girth_constrained, to_edge_list
from bchrom.cli import main

ALLOWED_EXITS = {0, 1, 2, 3}

P5_TEXT = "0 1\n1 2\n2 3\n3 4\n"

numbers = st.sampled_from([*range(10), -1, 10**12]).map(str)
words = st.sampled_from(["#", "c", "p", "e", "edge", "n=", "k=", "basis=", "1:1,2:2", "x", "-", "1.5", ""])
free_text = st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=6)
token_lines = st.lists(st.one_of(numbers, words, free_text), max_size=5).map(" ".join)
digitless_bytes = st.binary(max_size=120).map(lambda b: b.translate(None, b"0123456789"))
pairs = st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(lambda p: p[0] != p[1])


@st.composite
def graph_files(draw, fmt):
    """Edge lines, a header first, last or missing, maybe one garbage line."""
    edges = draw(st.lists(pairs, max_size=12, unique_by=frozenset))
    count = draw(st.one_of(st.just("10"), numbers))
    if fmt == "edgelist":
        lines = [f"{u} {v}" for u, v in edges]
        header = f"# n={count}"
    else:
        lines = [f"e {u} {v}" for u, v in edges]
        header = f"p edge {count} {len(lines)}"
    place = draw(st.sampled_from(["first", "first", "last", "none"]))
    if place != "none":
        lines.insert(0 if place == "first" else len(lines), header)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(token_lines))
    return "\n".join(lines)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("fmt", ["edgelist", "dimacs"])
@pytest.mark.parametrize("command", ["analyze", "color"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_garbage_graph_files_exit_cleanly(workdir, fmt, command, data):
    path = workdir / "graph"
    path.write_text(data.draw(graph_files(fmt)))
    argv = ["analyze", str(path), "--chi-b"] if command == "analyze" else ["color", str(path)]
    assert run([*argv, "--format", fmt]) in ALLOWED_EXITS


@given(digitless_bytes, st.sampled_from(["edgelist", "dimacs"]))
@settings(max_examples=50, deadline=None)
def test_garbage_bytes_exit_cleanly(workdir, data, fmt):
    path = workdir / "bytes"
    path.write_bytes(data)
    assert run(["analyze", str(path), "--format", fmt]) in ALLOWED_EXITS


@st.composite
def coloring_files(draw):
    """A header, a color per P5 vertex, and stray lines, in any order."""
    rows = [f"# k={draw(st.one_of(st.just('3'), numbers))} basis="]
    rows += [f"{v} {draw(st.integers(0, 4))}" for v in range(5) if draw(st.integers(0, 9))]
    rows += draw(st.lists(st.one_of(st.tuples(numbers, numbers).map(" ".join), token_lines), max_size=2))
    return "\n".join(draw(st.permutations(rows)))


@given(coloring_files())
@example("# k=3 basis=\n0 2\n1 1\n2 3\n3 2\n4 1")
@settings(max_examples=150, deadline=None)
def test_garbage_coloring_files_exit_cleanly(workdir, text):
    graph_path = workdir / "p5.txt"
    graph_path.write_text(P5_TEXT)
    coloring_path = workdir / "p5.coloring"
    coloring_path.write_text(text)
    assert run(["verify", str(graph_path), str(coloring_path)]) in ALLOWED_EXITS


@st.composite
def any_graph(draw):
    n = draw(st.integers(0, 12))
    edge = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = {(min(u, v), max(u, v)) for u, v in draw(st.lists(edge, max_size=30)) if u != v}
    g = Graph(n, edges)
    if all(g.adj):  # no isolated vertex, so any increasing labels serialize
        labels = sorted(draw(st.sets(st.integers(0, 10**12), min_size=n, max_size=n)))
        g = Graph(n, edges, labels=labels)
    return g


generated_graphs = st.builds(
    generate_girth_constrained, st.integers(0, 40), st.integers(3, 10), st.integers(0, 50), st.integers(0, 2**30)
)


@given(st.one_of(any_graph(), generated_graphs))
@settings(max_examples=100)
def test_edge_list_round_trip_on_generated_graphs(g):
    assert parse_edge_list(to_edge_list(g)) == g
