import gc
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import bchrom
import bchrom.cli
import bchrom.coloring
import bchrom.goodset
import bchrom.graph
import bchrom.oracle
from bchrom import BResult, InvariantViolation, PreconditionError, check_b_coloring, run_pipeline, to_edge_list
from bchrom.cli import EXIT_CLOSED_PIPE, EXIT_INTERNAL, main
from bchrom.goodset import _certified
from bchrom.oracle import MAX_ORACLE_LIMIT

from helpers import cycle_graph, encircled_tree, path_graph, petersen_graph, steal_chain_tree


def write_graph(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


P5_TEXT = "0 1\n1 2\n2 3\n3 4\n"
C9_TEXT = "".join(f"{i} {(i + 1) % 9}\n" for i in range(9))
C5_TEXT = "".join(f"{i} {(i + 1) % 5}\n" for i in range(5))
T_ENC_TEXT = "0 1\n0 2\n1 3\n2 4\n1 5\n2 6\n3 7\n3 8\n4 9\n4 10\n"


def record_from(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_analyze_path_five(tmp_path, capsys):
    path = write_graph(tmp_path, "p5.txt", P5_TEXT)
    assert main(["analyze", path, "--chi-b", "--json"]) == 0
    record = record_from(capsys)
    assert record["girth"] == "acyclic"
    assert record["m"] == 3
    assert record["has_good_set"] is True
    assert record["chi_b"] == 3
    assert record["chi_b_method"] == "construction"


def test_analyze_json_bytes_are_pinned(tmp_path, capsys):
    # the record's fields in field order, girth as text, good_set as a list
    path = write_graph(tmp_path, "p5.txt", P5_TEXT)
    expected = (
        '"n": 5, "edges": 4, "girth": "acyclic", "m": 3, "dense_count": 3, "has_good_set": true, '
        '"good_set": [1, 2, 3], "chi_b": 3, "chi_b_method": "construction", "chi_b_upper": null}\n'
    )
    assert main(["analyze", path, "--chi-b", "--json"]) == 0
    assert capsys.readouterr().out == "{" + expected
    assert main(["analyze", "--batch", str(tmp_path), "--chi-b", "--json"]) == 0
    assert capsys.readouterr().out == '{"file": "p5.txt", ' + expected


def test_analyze_encircled_tree(tmp_path, capsys):
    path = write_graph(tmp_path, "tenc.txt", T_ENC_TEXT)
    assert main(["analyze", path, "--chi-b", "--json"]) == 0
    record = record_from(capsys)
    assert record["girth"] == "acyclic"
    assert record["m"] == 4
    assert record["has_good_set"] is False
    assert record["good_set"] is None
    assert record["chi_b"] == 3
    assert record["chi_b_method"] == "construction"


def test_analyze_nine_cycle(tmp_path, capsys):
    path = write_graph(tmp_path, "c9.txt", C9_TEXT)
    assert main(["analyze", path, "--chi-b", "--json"]) == 0
    record = record_from(capsys)
    assert record["girth"] == 9
    assert record["m"] == 3
    assert record["has_good_set"] is True
    assert record["chi_b"] == 3
    assert record["chi_b_method"] == "construction"


def test_analyze_text_output_is_stable(tmp_path, capsys):
    path = write_graph(tmp_path, "p5.txt", P5_TEXT)
    assert main(["analyze", path, "--chi-b"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", path, "--chi-b"]) == 0
    assert capsys.readouterr().out == first
    assert "chi-b 3" in first
    assert "chi-b-method construction" in first


def test_analyze_low_girth_without_oracle_reports_bounds(tmp_path, capsys):
    # girth 5, n above the tiny limit -> exact value out of reach
    path = write_graph(tmp_path, "c5.txt", C5_TEXT)
    assert main(["analyze", path, "--chi-b", "--json", "--oracle-limit", "3"]) == 0
    record = record_from(capsys)
    assert record["girth"] == 5
    assert record["has_good_set"] is None
    assert record["chi_b"] is None
    assert record["chi_b_method"] == "bounds-only"
    assert record["chi_b_upper"] == record["m"]


def test_analyze_bounds_only_text_reports_the_upper_bound(tmp_path, capsys):
    path = write_graph(tmp_path, "c5.txt", C5_TEXT)
    assert main(["analyze", path, "--chi-b", "--oracle-limit", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["chi-b-upper 3", "chi-b-method bounds-only"]
    assert not any(line.startswith("chi-b ") for line in lines)


def test_analyze_no_good_set_above_the_oracle_limit_uses_the_construction(tmp_path, capsys):
    path = write_graph(tmp_path, "tenc.txt", T_ENC_TEXT)
    assert main(["analyze", path, "--chi-b", "--json", "--oracle-limit", "5"]) == 0
    record = record_from(capsys)
    assert record["has_good_set"] is False
    assert record["good_set"] is None
    assert (record["chi_b"], record["chi_b_method"]) == (3, "construction")


def test_analyze_low_girth_uses_oracle_within_limit(tmp_path, capsys):
    path = write_graph(tmp_path, "c5.txt", C5_TEXT)
    assert main(["analyze", path, "--chi-b", "--json"]) == 0
    record = record_from(capsys)
    assert record["chi_b"] == 3
    assert record["chi_b_method"] == "oracle"


def test_oracle_path_derives_the_density_profile_once(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return bchrom.goodset.density_profile(g)

    monkeypatch.setattr(bchrom.cli, "density_profile", counted)
    monkeypatch.setattr(bchrom.oracle, "density_profile", counted)
    record, _ = run_pipeline(petersen_graph(), compute_chi_b=True)
    assert (record.chi_b, record.chi_b_method) == (3, "oracle")
    assert len(calls) == 1


def test_color_verify_round_trip(tmp_path, capsys):
    graph_path = write_graph(tmp_path, "p5.txt", P5_TEXT)
    out_path = str(tmp_path / "p5.coloring")
    assert main(["color", graph_path, "-o", out_path]) == 0
    content = open(out_path).read()
    assert content.splitlines()[0].startswith("# k=3 basis=")
    assert main(["verify", graph_path, out_path]) == 0
    out = capsys.readouterr().out
    assert "status valid" in out


def test_verify_detects_tampering(tmp_path, capsys):
    graph_path = write_graph(tmp_path, "p5.txt", P5_TEXT)
    out_path = tmp_path / "p5.coloring"
    assert main(["color", graph_path, "-o", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    # make vertices 0 and 1 share a color
    lines[1] = "0 1"
    lines[2] = "1 1"
    out_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", graph_path, str(out_path)]) == 1
    assert "monochromatic-edge" in capsys.readouterr().out


def test_verify_json_payload(tmp_path, capsys):
    graph_path = write_graph(tmp_path, "p5.txt", P5_TEXT)
    out_path = tmp_path / "p5.coloring"
    assert main(["color", graph_path, "-o", str(out_path)]) == 0
    assert main(["verify", graph_path, str(out_path), "--json"]) == 0
    payload = record_from(capsys)
    # JSON object keys are strings: color -> label of its b-vertex
    basis = {"1": 1, "2": 2, "3": 3}
    assert payload == {"k": 3, "proper": True, "colors_used": 3, "valid": True, "basis": basis, "violations": []}
    lines = out_path.read_text().splitlines()
    lines[1], lines[2] = "0 1", "1 1"  # vertices 0 and 1 share a color
    out_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", graph_path, str(out_path), "--json"]) == 1
    payload = record_from(capsys)
    assert (payload["proper"], payload["valid"], payload["basis"]) == (False, False, None)
    assert {"kind": "monochromatic-edge", "witness": [0, 1]} in payload["violations"]


def test_verify_detects_lowered_k(tmp_path, capsys):
    graph_path = write_graph(tmp_path, "p5.txt", P5_TEXT)
    out_path = tmp_path / "p5.coloring"
    assert main(["color", graph_path, "-o", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    lines[0] = lines[0].replace("k=3", "k=2")
    out_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", graph_path, str(out_path)]) == 1
    assert "color-gap" in capsys.readouterr().out


def test_color_refuses_low_girth_without_oracle(tmp_path, capsys):
    path = write_graph(tmp_path, "c5.txt", C5_TEXT)
    assert main(["color", path, "-o", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "girth" in err
    # with --oracle the same input is colorable
    out_path = str(tmp_path / "c5.coloring")
    assert main(["color", path, "--oracle", "-o", out_path]) == 0
    assert main(["verify", path, out_path]) == 0


def test_color_trace_lines(tmp_path, capsys):
    path = write_graph(tmp_path, "c9.txt", C9_TEXT)
    assert main(["color", path, "--trace", "-o", str(tmp_path / "c9.coloring")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # the search settles on the consecutive anchors 0, 1, 2, which leave no
    # link vertices: anchors, then completion, then greedy
    assert lines[0] == "step=anchor vertex=0 color=1"
    assert all(line.startswith("step=") for line in lines)
    assert any(line.startswith("step=completion") for line in lines)
    assert any(line.startswith("step=greedy") for line in lines)
    assert len(lines) == 9


def test_color_trace_names_the_recolored_color(tmp_path, capsys):
    path = write_graph(tmp_path, "steal.txt", to_edge_list(steal_chain_tree()))
    assert main(["color", path, "--trace", "-o", str(tmp_path / "steal.coloring")]) == 0
    lines = capsys.readouterr().out.splitlines()
    # vertex 3 takes color 3 from its anchor's chained neighbor 4, which moves to 2
    assert "step=step3-new vertex=3 color=3" in lines
    assert [line for line in lines if "recolored-from=" in line] == [
        "step=step3-recolor vertex=4 color=2 recolored-from=3"
    ]


STEAL_CHAIN_TRACE = """\
step=anchor vertex=3 color=1
step=anchor vertex=13 color=2
step=anchor vertex=23 color=3
step=step1 vertex=43 color=3
step=step1 vertex=53 color=1
step=step3-new vertex=33 color=3
step=step3-recolor vertex=43 color=2 recolored-from=3
step=completion vertex=73 color=1
step=completion vertex=93 color=2
step=greedy vertex=63 color=2
step=greedy vertex=83 color=1
step=greedy vertex=103 color=1
# k=3 basis=3:1,13:2,23:3
3 1
13 2
23 3
33 3
43 2
53 1
63 2
73 1
83 1
93 2
103 1
"""


def test_color_trace_golden_listing(tmp_path, capsys):
    # the steal-chain tree with each label v written as 10 v + 3: the trace
    # names vertices by label, and every pass but 2 and 4 runs
    edges = [(0, 3), (0, 4), (0, 6), (1, 3), (1, 7), (1, 8), (2, 5), (2, 9), (2, 10), (4, 5)]
    text = "".join(f"{10 * u + 3} {10 * v + 3}\n" for u, v in edges)
    path = write_graph(tmp_path, "steal.txt", text)
    assert main(["color", path, "--trace"]) == 0
    assert capsys.readouterr().out == STEAL_CHAIN_TRACE


def test_color_output_is_the_same_through_stdout_and_a_file(tmp_path, capsys):
    # more lines than one block of the coloring file
    n = 2**16 + 3
    path = write_graph(tmp_path, "path.txt", "".join(f"{u} {u + 1}\n" for u in range(n - 1)))
    out_path = tmp_path / "path.coloring"
    assert main(["color", path, "-o", str(out_path)]) == 0
    assert main(["color", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# k=3 basis=") and out.count("\n") == n + 1
    assert out_path.read_text() == out


def test_reused_parser_keeps_no_option_between_calls(tmp_path, capsys):
    path = write_graph(tmp_path, "c9.txt", C9_TEXT)
    assert main(["color", "--trace", path]) == 0
    assert any(line.startswith("step=") for line in capsys.readouterr().out.splitlines())
    assert main(["color", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# k=3 basis=")
    assert not any(line.startswith("step=") for line in out.splitlines())
    assert main(["analyze", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 9
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "n 9"


def test_too_many_distinct_labels_is_an_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bchrom.graph, "MAX_VERTICES", 3)
    path = write_graph(tmp_path, "p5.txt", P5_TEXT)
    assert main(["analyze", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the edge list names 5 distinct vertices, above the limit 3\n"


def test_generate_deterministic_and_valid(tmp_path, capsys):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    assert main(["generate", "50", "--min-girth", "9", "--edges", "60", "--seed", "1", "-o", a]) == 0
    assert main(["generate", "50", "--min-girth", "9", "--edges", "60", "--seed", "1", "-o", b]) == 0
    assert open(a).read() == open(b).read()
    assert main(["analyze", a, "--json"]) == 0
    record = record_from(capsys)
    assert record["girth"] == "acyclic" or record["girth"] >= 9


def test_generate_single_vertex(tmp_path):
    out = tmp_path / "one.txt"
    assert main(["generate", "1", "--edges", "0", "-o", str(out)]) == 0
    assert out.read_text() == "# n=1\n"


def test_generate_refuses_more_vertices_than_the_limit(tmp_path, capsys):
    out = tmp_path / "big.txt"
    assert main(["generate", "1000001", "--edges", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: vertex count 1000001 is above the limit 1000000\n"
    assert not out.exists()


@pytest.mark.parametrize(
    ("argv", "option"),
    [
        (["generate", "5", "--edges", "-3"], "--edges"),
        (["generate", "--edges", "1", "-3"], "n"),
        (["analyze", "g.txt", "--oracle-limit", "-3"], "--oracle-limit"),
        (["color", "g.txt", "--oracle-limit", "-3"], "--oracle-limit"),
    ],
)
def test_negative_counts_are_refused_naming_the_option(capsys, argv, option):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f": error: argument {option}: must be nonnegative, got -3\n")


def _cycle_with_chord_text(n):
    return "".join(f"{i} {(i + 1) % n}\n" for i in range(n)) + "0 5\n"


@pytest.mark.parametrize("command", ["analyze", "color"])
@pytest.mark.parametrize("limit", [MAX_ORACLE_LIMIT + 1, 1500])
def test_oracle_limits_above_the_recursion_cap_are_refused_naming_the_option(tmp_path, capsys, command, limit):
    # a 1,500-vertex search would recurse 1,500 frames deep, past Python's default limit
    path = write_graph(tmp_path, "c.txt", _cycle_with_chord_text(1500))
    with pytest.raises(SystemExit) as exit_info:
        main([command, path, "--oracle", "--oracle-limit", str(limit)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f": error: argument --oracle-limit: must be at most {MAX_ORACLE_LIMIT}, got {limit}\n")


def test_the_oracle_answers_at_the_recursion_cap(tmp_path, capsys):
    # girth 6, below the construction's reach: the exact search decides, about MAX_ORACLE_LIMIT frames deep
    path = write_graph(tmp_path, "c.txt", _cycle_with_chord_text(MAX_ORACLE_LIMIT))
    assert main(["analyze", path, "--chi-b", "--json", "--oracle-limit", str(MAX_ORACLE_LIMIT)]) == 0
    record = record_from(capsys)
    assert (record["n"], record["girth"], record["chi_b"], record["chi_b_method"]) == (MAX_ORACLE_LIMIT, 6, 3, "oracle")


def test_generate_with_an_edge_budget_above_every_possible_edge(tmp_path):
    # 10 vertices have 45 possible edges: the attempts stop at 50 per possible
    # edge, so a budget of 10^9 writes what a budget of 45 writes
    big = tmp_path / "big.txt"
    full = tmp_path / "full.txt"
    assert main(["generate", "10", "--edges", "1000000000", "-o", str(big)]) == 0
    assert main(["generate", "10", "--edges", "45", "-o", str(full)]) == 0
    assert big.read_text() == full.read_text()


def test_color_single_vertex(tmp_path):
    graph_path = write_graph(tmp_path, "one.txt", "# n=1\n")
    out_path = tmp_path / "one.coloring"
    assert main(["color", graph_path, "-o", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "# k=1 basis=0:1"
    assert lines[1] == "0 1"
    assert main(["verify", graph_path, str(out_path)]) == 0


def test_exit_code_on_malformed_input(tmp_path, capsys):
    path = write_graph(tmp_path, "bad.txt", "0 zero\n")
    assert main(["analyze", path]) == 2
    assert "line 1" in capsys.readouterr().err


def test_verify_refuses_k_above_vertex_count(tmp_path, capsys):
    graph_path = write_graph(tmp_path, "p5.txt", P5_TEXT)
    out_path = tmp_path / "p5.coloring"
    assert main(["color", graph_path, "-o", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    for k, code in ((10**12, 2), (6, 2), (5, 1)):
        lines[0] = f"# k={k} basis="
        out_path.write_text("\n".join(lines) + "\n")
        assert main(["verify", graph_path, str(out_path)]) == code
    err = capsys.readouterr().err
    assert "line 1: k=1000000000000 exceeds the graph's 5 vertices" in err


@pytest.mark.parametrize(
    "header, message",
    [
        ("# k=0 basis=", "line 1: k=0: a b-coloring has at least one color"),
        ("# k=" + "9" * 5000 + " basis=", "line 1: k=" + "9" * 5000 + " exceeds the graph's 5 vertices"),
    ],
    ids=["zero", "5000-digits"],
)
def test_verify_refuses_unusable_k(tmp_path, capsys, header, message):
    graph_path = write_graph(tmp_path, "p5.txt", P5_TEXT)
    coloring_path = write_graph(tmp_path, "p5.coloring", header + "\n0 1\n1 2\n2 1\n3 2\n4 1\n")
    assert main(["verify", graph_path, coloring_path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_over_long_declared_vertex_counts_name_their_line(tmp_path, capsys):
    digits = "1" * 5000
    edge_list = write_graph(tmp_path, "g.txt", f"0 1\n# n={digits}\n")
    assert main(["analyze", edge_list]) == 2
    expected = f"error: line 2: '# n=' declares {digits} vertices, above the limit 1000000\n"
    assert capsys.readouterr().err == expected
    dimacs = write_graph(tmp_path, "g.col", f"p edge {digits} 1\n")
    assert main(["analyze", dimacs]) == 2
    expected = f"error: line 1: problem line declares {digits} vertices, above the limit 1000000\n"
    assert capsys.readouterr().err == expected


def test_negative_dimacs_vertex_count_names_its_line(tmp_path, capsys):
    path = write_graph(tmp_path, "g.col", "p edge -3 0\n")
    assert main(["analyze", path]) == 2
    assert capsys.readouterr().err == "error: line 1: problem line declares -3 vertices, a negative count\n"


def assert_closed_stdout_exits_quietly(tmp_path, unbuffered: bool) -> None:
    # a 20k-vertex path's coloring is far larger than a pipe buffer, so the
    # writer is still writing when the reader closes the pipe
    path = write_graph(tmp_path, "path.txt", to_edge_list(path_graph(20_000)))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(Path(bchrom.__file__).parents[1])
    command = [sys.executable, "-m", "bchrom", "color", path]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"# k=3 ")
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_CLOSED_PIPE
    assert stderr == b""


def test_closed_stdout_exits_quietly(tmp_path):
    assert_closed_stdout_exits_quietly(tmp_path, unbuffered=False)


def test_closed_unbuffered_stdout_exits_quietly(tmp_path):
    # unbuffered, CPython's text layer drops the unwritten rest of a short
    # write without an error; the CLI writes through the byte layer instead
    assert_closed_stdout_exits_quietly(tmp_path, unbuffered=True)


class ShortWrites(io.RawIOBase):
    """A byte layer that takes at most three bytes per write."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.data += bytes(b[:3])
        return min(len(b), 3)


def test_stdout_writer_completes_short_writes_in_order(monkeypatch):
    raw = ShortWrites()
    stdout = io.TextIOWrapper(raw, encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    stdout.write("# ")  # still in the text layer, short enough for one write: it must come out first
    bchrom.cli._write_stdout("k 3\nstatus valid\n")
    assert raw.data.decode() == "# k 3\nstatus valid\n"


def test_stdout_writer_leaves_a_buffered_byte_layer_buffered(monkeypatch):
    raw = ShortWrites()
    stdout = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    for line in ("k 3", "proper true", "status valid"):
        bchrom.cli._print(line)
    assert raw.data == b""  # one line per write call would be one syscall per line
    stdout.flush()
    assert raw.data.decode() == "k 3\nproper true\nstatus valid\n"


def test_stdout_writer_takes_a_text_stream_without_a_byte_layer(monkeypatch):
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    bchrom.cli._write_stdout("k 3\n")
    assert stdout.getvalue() == "k 3\n"


@pytest.mark.parametrize("color", [0, 4])
@pytest.mark.parametrize("comment", ["", "# a comment line sends the file to the line read\n"], ids=["bulk", "lines"])
def test_verify_reports_a_color_outside_one_to_k_as_a_color_gap(tmp_path, capsys, color, comment):
    # P5's b-coloring 3 1 2 3 1 with vertex 0 recolored: a color, 0 as much as
    # 4, that is not in 1..3, and vertex 1 no longer sees color 3
    graph_path = write_graph(tmp_path, "p5.txt", P5_TEXT)
    text = f"# k=3 basis=1:1,2:2,3:3\n{comment}0 {color}\n1 1\n2 2\n3 3\n4 1\n"
    coloring_path = write_graph(tmp_path, "p5.coloring", text)
    assert (bchrom.graph._coloring_bulk(text, path_graph(5)) is None) == bool(comment)
    assert main(["verify", graph_path, coloring_path]) == 1
    assert capsys.readouterr().out == (
        "k 3\nproper true\ncolors-used 4\nstatus invalid\n"
        f"violation color-gap {color}\nviolation class-without-b-vertex 1\n"
    )
    assert main(["verify", graph_path, coloring_path, "--json"]) == 1
    assert record_from(capsys) == {
        "k": 3,
        "proper": True,
        "colors_used": 4,
        "valid": False,
        "basis": None,
        "violations": [{"kind": "color-gap", "witness": color}, {"kind": "class-without-b-vertex", "witness": 1}],
    }


def test_verify_refuses_unknown_label(tmp_path, capsys):
    graph_path = write_graph(tmp_path, "p5.txt", P5_TEXT)
    coloring_path = write_graph(tmp_path, "p5.coloring", "# k=3 basis=\n0 1\n7 2\n")
    assert main(["verify", graph_path, coloring_path]) == 2
    assert capsys.readouterr().err == "error: line 3: unknown vertex label 7\n"


def test_verify_names_the_label_of_an_uncolored_vertex(tmp_path, capsys):
    # label 20 is internal id 1; the message must use the label
    graph_path = write_graph(tmp_path, "sparse.txt", "10 20\n20 30\n")
    coloring_path = write_graph(tmp_path, "sparse.coloring", "# k=2 basis=\n10 1\n30 1\n")
    assert main(["verify", graph_path, coloring_path]) == 2
    assert capsys.readouterr().err == "error: coloring is partial: vertex 20 has no color\n"


def test_exit_code_on_missing_file(capsys):
    assert main(["analyze", "/no/such/file.txt"]) == 2
    capsys.readouterr()


def test_dimacs_input(tmp_path, capsys):
    path = write_graph(tmp_path, "p5.col", "p edge 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n")
    assert main(["analyze", path, "--chi-b", "--json"]) == 0
    record = record_from(capsys)
    assert record["n"] == 5
    assert record["chi_b"] == 3
    # good-set members are reported with the 1-based DIMACS labels
    assert record["good_set"] == [2, 3, 4]


def test_batch_mode(tmp_path, capsys):
    write_graph(tmp_path, "a_p5.txt", P5_TEXT)
    write_graph(tmp_path, "b_c9.txt", C9_TEXT)
    assert main(["analyze", "--batch", str(tmp_path), "--chi-b", "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert records[0]["file"] == "a_p5.txt" and records[0]["chi_b"] == 3
    assert records[1]["file"] == "b_c9.txt" and records[1]["chi_b"] == 3


def test_batch_mode_reports_file_errors(tmp_path, capsys):
    write_graph(tmp_path, "a_ok.txt", P5_TEXT)
    write_graph(tmp_path, "b_bad.txt", "0 0\n")
    assert main(["analyze", "--batch", str(tmp_path), "--json"]) == 2
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert "error" in lines[1]


def test_batch_mode_text_separates_files_and_reports_errors(tmp_path, capsys):
    write_graph(tmp_path, "a_ok.txt", P5_TEXT)
    write_graph(tmp_path, "b_bad.txt", "0 0\n")
    assert main(["analyze", "--batch", str(tmp_path)]) == 2
    blocks = capsys.readouterr().out.split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].splitlines()[:2] == ["file a_ok.txt", "n 5"]
    assert blocks[1] == "file b_bad.txt\nerror line 1: self-loop at vertex 0\n"


def test_analyze_without_a_graph_or_a_batch_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "--chi-b"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bchrom analyze [-h] (GRAPH | --batch DIR) ")
    assert "one of the arguments GRAPH --batch is required" in err


def test_analyze_help_shows_that_exactly_one_source_is_required(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "-h"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert usage.startswith("usage: bchrom analyze [-h] (GRAPH | --batch DIR) [--format {edgelist,dimacs}]")
    assert usage.endswith("[--oracle-limit ORACLE_LIMIT] [--json]")


def test_analyze_with_a_graph_and_a_batch_is_a_usage_error(tmp_path, capsys):
    path = write_graph(tmp_path, "p5.txt", P5_TEXT)
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", path, "--batch", str(tmp_path)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "not allowed with argument" in captured.err
    assert captured.out == ""


def test_batch_mode_exits_with_the_refusal_code(tmp_path, capsys):
    write_graph(tmp_path, "a_p5.txt", P5_TEXT)
    argv = ["--chi-b", "--oracle", "--oracle-limit", "3", "--json"]
    assert main(["analyze", str(tmp_path / "a_p5.txt"), *argv]) == 3
    capsys.readouterr()
    assert main(["analyze", "--batch", str(tmp_path), *argv]) == 3
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert lines == [{"file": "a_p5.txt", "error": "n = 5 exceeds the oracle limit 3"}]
    # a parse error (exit 2) read first does not lower the batch's code
    write_graph(tmp_path, "0_bad.txt", "0 0\n")
    assert main(["analyze", "--batch", str(tmp_path), *argv]) == 3
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert [line["file"] for line in lines] == ["0_bad.txt", "a_p5.txt"]
    assert lines[0]["error"].startswith("line 1: self-loop")


def test_color_no_good_set_instance_above_the_oracle_limit(tmp_path, capsys):
    path = write_graph(tmp_path, "tenc.txt", T_ENC_TEXT)
    out_path = str(tmp_path / "tenc.coloring")
    # without a good set the construction witnesses m - 1 = 3 colors at any n
    assert main(["color", path, "--oracle-limit", "5", "-o", out_path]) == 0
    assert open(out_path).read().startswith("# k=3 basis=")
    assert main(["verify", path, out_path]) == 0
    assert "status valid" in capsys.readouterr().out


def test_run_pipeline_no_chi_b_skips_coloring():
    record, result = run_pipeline(path_graph(5))
    assert record.chi_b is None
    assert result is None
    assert record.has_good_set is True


def test_run_pipeline_refuses_low_girth_coloring_unless_oracle_forced():
    c8 = cycle_graph(8)
    with pytest.raises(PreconditionError, match="girth 8 is below 9"):
        run_pipeline(c8, compute_chi_b=True, need_coloring=True)
    record, result = run_pipeline(c8, compute_chi_b=True, need_coloring=True, force_oracle=True)
    assert record.chi_b_method == "oracle"
    # the oracle's witness comes as a BResult: chi_b colors, the checker's basis, no events
    assert isinstance(result, BResult)
    assert result.chi_b == record.chi_b
    assert result.events == ()
    report = check_b_coloring(c8, result.coloring, record.chi_b)
    assert report.valid and result.basis == report.basis


@pytest.fixture
def girth_calls(monkeypatch):
    """Count girth() calls through every module binding that can reach it."""
    calls = []
    real = bchrom.graph.girth

    def counting(g):
        calls.append(g.n)
        return real(g)

    for module in (bchrom.cli, bchrom.graph):
        monkeypatch.setattr(module, "girth", counting)
    return calls


@pytest.mark.parametrize("text", [C9_TEXT, P5_TEXT], ids=["girth-9", "tree"])
def test_girth_computed_once_per_op(tmp_path, capsys, girth_calls, text):
    graph_path = write_graph(tmp_path, "g.txt", text)
    coloring_path = str(tmp_path / "g.coloring")
    assert main(["color", graph_path, "-o", coloring_path]) == 0
    assert len(girth_calls) == 1
    girth_calls.clear()
    assert main(["analyze", graph_path, "--chi-b"]) == 0
    assert "chi-b-method construction" in capsys.readouterr().out
    assert len(girth_calls) == 1
    girth_calls.clear()
    assert main(["verify", graph_path, coloring_path]) == 0
    assert girth_calls == []


def _broken_construction(*args, **kwargs):
    raise InvariantViolation("anchor lost its b-vertex property", step="completion", vertex=2)


def test_invariant_violation_exits_with_internal_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bchrom.cli, "b_coloring_with_good_set", _broken_construction)
    path = write_graph(tmp_path, "p5.txt", P5_TEXT)
    assert main(["color", path, "-o", str(tmp_path / "x")]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error: anchor lost its b-vertex property")
    assert "step=completion" in err and "vertex=2" in err
    assert main(["analyze", path, "--chi-b"]) == EXIT_INTERNAL
    assert "internal error:" in capsys.readouterr().err


def _monochromatic_greedy(g, pc, num_colors):
    return [1] * g.n


@pytest.mark.parametrize(
    "module, name, broken",
    [
        (bchrom.cli, "b_coloring_with_good_set", _broken_construction),  # a certificate fails
        (bchrom.coloring, "greedy_extend", _monochromatic_greedy),  # the final check rejects the coloring
        # leaves, not dense, yet certified: the construction trusts the set, and its completion certificate fails
        (bchrom.cli, "find_good_set", lambda g, profile, girth_value=None: _certified((7, 8, 9), g)),
    ],
    ids=["invariant", "invalid-coloring", "bad-good-set"],
)
def test_broken_construction_without_a_good_set_is_an_internal_error(
    tmp_path, capsys, monkeypatch, module, name, broken
):
    monkeypatch.setattr(module, name, broken)
    path = write_graph(tmp_path, "tenc.txt", T_ENC_TEXT)
    assert main(["analyze", path, "--chi-b"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert "chi-b" not in captured.out
    assert captured.err.startswith("internal error: ")
    out_path = tmp_path / "tenc.coloring"
    assert main(["color", path, "-o", str(out_path)]) == EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("internal error: ")
    assert not out_path.exists()


def patch_exact_search(monkeypatch, search):
    """Replace the exact search under every module binding of it."""
    monkeypatch.setattr(bchrom.cli, "find_b_coloring_exact", search)
    monkeypatch.setattr(bchrom.oracle, "find_b_coloring_exact", search)


@pytest.mark.parametrize("text, message", [(C5_TEXT, "internal error: no b-coloring at any k")], ids=["low-girth"])
def test_missing_exact_witness_is_an_internal_error(tmp_path, capsys, monkeypatch, text, message):
    patch_exact_search(monkeypatch, lambda *args, **kwargs: None)
    path = write_graph(tmp_path, "g.txt", text)
    assert main(["analyze", path, "--chi-b"]) == EXIT_INTERNAL
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, oracle_k", [(T_ENC_TEXT, 4), (C5_TEXT, 3)], ids=["no-good-set", "low-girth"])
def test_invalid_exact_witness_is_an_internal_error(tmp_path, capsys, monkeypatch, text, oracle_k):
    # a single color on every vertex: monochromatic edges, no basis.  The
    # forced oracle takes it at the first k it tries, m(G), and so does the
    # unforced one below girth 9.
    patch_exact_search(monkeypatch, lambda g, k, **kwargs: [1] * g.n)
    path = write_graph(tmp_path, "g.txt", text)
    message = "internal error: the exact search's coloring with {} colors failed the validity check"
    # at girth >= 9 only --oracle reaches the exact search
    for flags in [["--oracle"], []] if text == C5_TEXT else [["--oracle"]]:
        assert main(["analyze", path, "--chi-b", *flags]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert "chi-b" not in captured.out
        assert captured.err.startswith(message.format(oracle_k))
    out_path = tmp_path / "g.coloring"
    assert main(["color", path, "--oracle", "-o", str(out_path)]) == EXIT_INTERNAL
    assert capsys.readouterr().err.startswith(message.format(oracle_k))
    assert not out_path.exists()


@pytest.mark.parametrize(
    "g, searched",
    [(cycle_graph(5), [3]), (petersen_graph(), [4, 3]), (encircled_tree(), [])],
    ids=["c5", "petersen", "encircled-tree"],
)
def test_each_k_is_searched_once(monkeypatch, g, searched):
    seen = []
    search = bchrom.oracle.find_b_coloring_exact

    def recording(graph, k, **kwargs):
        seen.append(k)
        return search(graph, k, **kwargs)

    patch_exact_search(monkeypatch, recording)
    run_pipeline(g, compute_chi_b=True)
    assert seen == searched


def test_batch_mode_records_internal_error_and_continues(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bchrom.cli, "b_coloring_with_good_set", _broken_construction)
    write_graph(tmp_path, "a_p5.txt", P5_TEXT)
    write_graph(tmp_path, "b_c5.txt", C5_TEXT)  # girth 5: the oracle answers, no construction
    assert main(["analyze", "--batch", str(tmp_path), "--chi-b", "--json"]) == EXIT_INTERNAL
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert lines[0]["file"] == "a_p5.txt"
    assert lines[0]["error"].startswith("internal error: ") and "step=completion" in lines[0]["error"]
    assert lines[1]["file"] == "b_c5.txt" and lines[1]["chi_b_method"] == "oracle"


def test_input_files_are_capped_in_bytes(tmp_path, capsys, monkeypatch):
    graph = write_graph(tmp_path, "p5.txt", P5_TEXT)
    coloring = write_graph(tmp_path, "p5.coloring", "# k=3 basis=\n0 1\n1 2\n2 3\n3 1\n4 2\n")
    coloring_bytes = os.stat(coloring).st_size
    monkeypatch.setattr(bchrom.cli, "MAX_INPUT_BYTES", coloring_bytes)  # both files at or below the limit
    assert main(["verify", graph, coloring]) == 0
    capsys.readouterr()
    limit = len(P5_TEXT)
    monkeypatch.setattr(bchrom.cli, "MAX_INPUT_BYTES", limit)  # the graph at the limit, the coloring above
    assert main(["verify", graph, coloring]) == 2
    assert capsys.readouterr().err == f"error: {coloring} has {coloring_bytes} bytes, above the limit {limit}\n"
    monkeypatch.setattr(bchrom.cli, "MAX_INPUT_BYTES", limit - 1)
    message = f"{graph} has {limit} bytes, above the limit {limit - 1}"
    for argv in (["analyze", graph], ["color", graph], ["verify", graph, coloring]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["analyze", "--batch", str(tmp_path), "--json"]) == 2
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    coloring_message = f"{coloring} has {coloring_bytes} bytes, above the limit {limit - 1}"
    assert records[0] == {"file": "p5.coloring", "error": coloring_message}
    assert records[1] == {"file": "p5.txt", "error": message}


@pytest.mark.parametrize(
    ("argv", "errno_text"),
    [
        (["verify", "{g}", "{g}/c"], "Not a directory"),
        (["analyze", "--batch", "{g}"], "Not a directory"),
        (["color", "{g}", "-o", "{g}/out"], "Not a directory"),
        (["analyze", "{g}" + "x" * 300], "File name too long"),
    ],
    ids=["coloring-under-a-file", "batch-of-a-file", "output-under-a-file", "name-too-long"],
)
def test_an_os_error_on_a_path_is_an_input_error(tmp_path, capsys, argv, errno_text):
    # exit 1 means "this coloring is invalid": an unreadable or unwritable path is exit 2
    g = write_graph(tmp_path, "g.txt", P5_TEXT)
    assert main([arg.format(g=g) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno ") and errno_text in captured.err


def test_a_closed_pipe_in_batch_mode_exits_141(tmp_path, capsys, monkeypatch):
    # BrokenPipeError is an OSError, yet not an input error: it ends the batch
    # at once, though the stdout here would take the per-file error report
    batch = tmp_path / "batch"
    batch.mkdir()
    write_graph(batch, "a.txt", P5_TEXT)
    write_graph(batch, "b.txt", P5_TEXT)
    loaded = []
    load_graph = bchrom.cli.load_graph
    monkeypatch.setattr(bchrom.cli, "load_graph", lambda *args: loaded.append(args[0]) or load_graph(*args))
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
    monkeypatch.setattr(sys, "stdout", ClosedPipeStdout(fd, writes_that_raise=1))
    try:
        assert main(["analyze", "--batch", str(batch)]) == EXIT_CLOSED_PIPE
    finally:
        os.close(fd)
    assert loaded == [str(batch / "a.txt")]


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_an_endless_device_is_read_only_up_to_the_byte_limit(capsys):
    # a device reports size 0: without a bounded read, /dev/zero fills memory
    assert main(["analyze", "/dev/zero"]) == 2
    limit = bchrom.cli.MAX_INPUT_BYTES
    assert capsys.readouterr().err == f"error: /dev/zero has more than {limit} bytes, the limit\n"


def test_crlf_line_ends_read_as_lf(tmp_path, capsys):
    lf = write_graph(tmp_path, "lf.txt", C9_TEXT)
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(C9_TEXT.replace("\n", "\r\n").encode())
    assert main(["color", lf]) == 0
    expected = capsys.readouterr().out
    assert main(["color", str(crlf)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
@pytest.mark.parametrize("fed", [len(P5_TEXT), len(P5_TEXT) + 1, 4 * len(P5_TEXT)])
def test_a_fifo_is_read_only_up_to_the_byte_limit(tmp_path, capsys, monkeypatch, fed):
    monkeypatch.setattr(bchrom.cli, "MAX_INPUT_BYTES", len(P5_TEXT))
    fifo = tmp_path / "p5.fifo"
    os.mkfifo(fifo)
    text = (P5_TEXT * 4)[:fed]  # a whole P5 at the limit; above it, more edge lines than the limit allows

    def feed():
        with open(fifo, "w") as writer:  # the pipe buffer holds it all, so the writer never waits on the reader
            writer.write(text)

    writer = threading.Thread(target=feed, daemon=True)  # a writer left blocked must not hang the interpreter's exit
    writer.start()
    try:
        code = main(["analyze", str(fifo)])
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    captured = capsys.readouterr()
    if fed == len(P5_TEXT):
        assert code == 0 and "girth acyclic" in captured.out
    else:
        assert code == 2
        assert captured.err == f"error: {fifo} has more than {len(P5_TEXT)} bytes, the limit\n"


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector switched on or off for the test, and restored after it."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class ClosedPipeStdout(io.TextIOBase):
    """A stdout whose reader is gone: every write raises BrokenPipeError,
    or only the first ``writes_that_raise`` writes, the rest going nowhere."""

    def __init__(self, fd: int, writes_that_raise: float = float("inf")):
        self.fd = fd
        self.writes_that_raise = writes_that_raise

    def fileno(self):
        return self.fd

    def write(self, text):
        if self.writes_that_raise <= 0:
            return len(text)
        self.writes_that_raise -= 1
        raise BrokenPipeError


def _raise_unexpected(*args, **kwargs):
    raise RuntimeError("unexpected")


@pytest.mark.parametrize("exit_code", [0, 1, 2, 3, 4, EXIT_CLOSED_PIPE, None], ids=str)
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, collector, exit_code):
    p5 = write_graph(tmp_path, "p5.txt", P5_TEXT)
    argv = ["color", p5, "-o", str(tmp_path / "p5.coloring")]
    if exit_code == 1:
        argv = ["verify", p5, write_graph(tmp_path, "mono.coloring", "# k=2 basis=\n0 1\n1 1\n2 2\n3 1\n4 2\n")]
    elif exit_code == 2:
        argv = ["analyze", str(tmp_path / "missing.txt")]
    elif exit_code == 3:
        argv = ["color", write_graph(tmp_path, "c5.txt", C5_TEXT)]  # below girth 9 without --oracle
    elif exit_code == 4:
        monkeypatch.setattr(bchrom.cli, "b_coloring_with_good_set", _broken_construction)
    elif exit_code == EXIT_CLOSED_PIPE:
        fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
        monkeypatch.setattr(sys, "stdout", ClosedPipeStdout(fd))
        argv = ["analyze", p5]
    elif exit_code is None:  # an exception the command line does not report
        monkeypatch.setattr(bchrom.cli, "load_graph", _raise_unexpected)
    if exit_code is None:
        with pytest.raises(RuntimeError, match="^unexpected$"):
            main(argv)
    else:
        assert main(argv) == exit_code
    assert gc.isenabled() is collector
    if exit_code == EXIT_CLOSED_PIPE:
        os.close(fd)


def test_closed_pipe_exits_leave_no_open_descriptor(tmp_path, capsys, monkeypatch):
    p5 = write_graph(tmp_path, "p5.txt", P5_TEXT)
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
    monkeypatch.setattr(sys, "stdout", ClosedPipeStdout(fd))
    try:
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            assert main(["analyze", p5]) == EXIT_CLOSED_PIPE
        assert len(os.listdir("/proc/self/fd")) == before
    finally:
        os.close(fd)


@pytest.mark.parametrize("command", ["exact-search", "color", "verify-valid", "verify-invalid", "batch"])
def test_commands_leave_no_cyclic_garbage(tmp_path, capsys, command):
    # main pauses the collector, so whatever reference cycle a command made
    # would stay until the next collection
    batch = tmp_path / "batch"
    batch.mkdir()
    c5 = write_graph(batch, "c5.txt", C5_TEXT)  # girth 5: the exact search decides
    p5 = write_graph(batch, "p5.txt", P5_TEXT)
    write_graph(batch, "tenc.txt", T_ENC_TEXT)
    write_graph(batch, "bad.txt", "0 0\n")
    colored = str(tmp_path / "p5.coloring")
    assert main(["color", p5, "-o", colored]) == 0
    mono = write_graph(tmp_path, "mono.coloring", "# k=2 basis=\n0 1\n1 1\n2 2\n3 1\n4 2\n")
    argv = {
        "exact-search": ["analyze", c5, "--chi-b"],
        "color": ["color", p5, "-o", str(tmp_path / "again.coloring")],
        "verify-valid": ["verify", p5, colored],
        "verify-invalid": ["verify", p5, mono],
        "batch": ["analyze", "--batch", str(batch), "--chi-b", "--json"],
    }[command]
    gc.collect()
    main(argv)
    assert gc.collect() == 0
