import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bchrom
import bchrom.cli
import bchrom.graph
import bchrom.oracle
from bchrom import InvariantViolation, PreconditionError, check_b_coloring, run_pipeline, to_edge_list
from bchrom.cli import EXIT_CLOSED_PIPE, EXIT_INTERNAL, main

from helpers import cycle_graph, encircled_tree, path_graph, petersen_graph, star_of_stars, steal_chain_tree


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


def test_analyze_encircled_tree(tmp_path, capsys):
    path = write_graph(tmp_path, "tenc.txt", T_ENC_TEXT)
    assert main(["analyze", path, "--chi-b", "--json"]) == 0
    record = record_from(capsys)
    assert record["girth"] == "acyclic"
    assert record["m"] == 4
    assert record["has_good_set"] is False
    assert record["good_set"] is None
    assert record["chi_b"] == 3
    assert record["chi_b_method"] == "oracle"


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


def test_analyze_no_good_set_above_the_oracle_limit_uses_the_theorem(tmp_path, capsys):
    path = write_graph(tmp_path, "tenc.txt", T_ENC_TEXT)
    assert main(["analyze", path, "--chi-b", "--json", "--oracle-limit", "5"]) == 0
    record = record_from(capsys)
    assert record["has_good_set"] is False
    assert (record["chi_b"], record["chi_b_method"]) == (3, "nogoodset-theorem")


def test_analyze_low_girth_uses_oracle_within_limit(tmp_path, capsys):
    path = write_graph(tmp_path, "c5.txt", C5_TEXT)
    assert main(["analyze", path, "--chi-b", "--json"]) == 0
    record = record_from(capsys)
    assert record["chi_b"] == 3
    assert record["chi_b_method"] == "oracle"


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


def test_color_refuses_large_no_good_set_instance(tmp_path, capsys):
    path = write_graph(tmp_path, "tenc.txt", T_ENC_TEXT)
    # the value m-1 is known exactly, but a witness needs the oracle
    assert main(["color", path, "--oracle-limit", "5", "-o", str(tmp_path / "x")]) == 3
    assert "oracle limit" in capsys.readouterr().err


def test_run_pipeline_no_chi_b_skips_coloring():
    outcome = run_pipeline(path_graph(5))
    assert outcome.record.chi_b is None
    assert outcome.coloring is None
    assert outcome.record.has_good_set is True


def test_run_pipeline_refuses_low_girth_coloring_unless_oracle_forced():
    c8 = cycle_graph(8)
    with pytest.raises(PreconditionError, match="girth 8 is below 9"):
        run_pipeline(c8, compute_chi_b=True, need_coloring=True)
    outcome = run_pipeline(c8, compute_chi_b=True, need_coloring=True, force_oracle=True)
    assert check_b_coloring(c8, outcome.coloring, outcome.record.chi_b).valid


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


def patch_exact_search(monkeypatch, search):
    """Replace the exact search where run_pipeline and exact_b_chromatic look it up."""
    monkeypatch.setattr(bchrom.cli, "find_b_coloring_exact", search)
    monkeypatch.setattr(bchrom.oracle, "find_b_coloring_exact", search)


@pytest.mark.parametrize(
    "text, message",
    [
        (T_ENC_TEXT, "internal error: the exact search found no b-coloring with chi_b = 3 colors"),
        (C5_TEXT, "internal error: no b-coloring at any k"),
    ],
    ids=["no-good-set", "low-girth"],
)
def test_missing_exact_witness_is_an_internal_error(tmp_path, capsys, monkeypatch, text, message):
    patch_exact_search(monkeypatch, lambda *args, **kwargs: None)
    path = write_graph(tmp_path, "g.txt", text)
    assert main(["analyze", path, "--chi-b"]) == EXIT_INTERNAL
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, oracle_k", [(T_ENC_TEXT, 4), (C5_TEXT, 3)], ids=["no-good-set", "low-girth"])
def test_invalid_exact_witness_is_an_internal_error(tmp_path, capsys, monkeypatch, text, oracle_k):
    # a single color on every vertex: monochromatic edges, no basis.  The
    # forced oracle takes it at the first k it tries, m(G).
    patch_exact_search(monkeypatch, lambda g, k, **kwargs: dict.fromkeys(range(g.n), 1))
    path = write_graph(tmp_path, "g.txt", text)
    message = "internal error: the exact search's coloring with {} colors failed the validity check"
    assert main(["analyze", path, "--chi-b"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert "chi-b" not in captured.out
    assert captured.err.startswith(message.format(3))
    out_path = tmp_path / "g.coloring"
    assert main(["color", path, "--oracle", "-o", str(out_path)]) == EXIT_INTERNAL
    assert capsys.readouterr().err.startswith(message.format(oracle_k))
    assert not out_path.exists()


@pytest.mark.parametrize(
    "g, searched",
    [(cycle_graph(5), [3]), (petersen_graph(), [4, 3]), (encircled_tree(), [3])],
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
