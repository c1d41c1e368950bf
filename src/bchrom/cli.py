"""Command-line surface: analyze, color, verify, generate, and the pipeline
they share.  Every file format is read and written by ``bchrom.graph``.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 precondition/limit refusal, 4 internal error (an InvariantViolation: a
certificate of the construction failed, which is a bug, not a bad input),
141 stdout closed early by its reader (128 + SIGPIPE, as the shell reports
for a program killed by that signal).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .coloring import TraceEvent, b_coloring_with_good_set
from .errors import InvariantViolation, OracleLimitError, PreconditionError
from .goodset import density_profile, find_good_set
from .graph import (
    ACYCLIC,
    Graph,
    format_coloring_file,
    generate_girth_constrained,
    girth,
    parse_coloring_file,
    parse_dimacs,
    parse_edge_list,
    to_edge_list,
)
from .oracle import DEFAULT_ORACLE_LIMIT, check_b_coloring, exact_b_chromatic, find_b_coloring_exact

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_PIPE = 141

#: Exceptions the CLI reports as an exit code instead of a traceback.
#: ParseError, PreconditionError and UnicodeDecodeError are ValueErrors.
_REPORTED_ERRORS = (
    ValueError, OracleLimitError, InvariantViolation, FileNotFoundError, IsADirectoryError, PermissionError
)


def _exit_status(exc: BaseException) -> tuple[int, str]:
    """Exit code and message prefix for one of _REPORTED_ERRORS."""
    if isinstance(exc, InvariantViolation):
        return EXIT_INTERNAL, "internal error"
    if isinstance(exc, (PreconditionError, OracleLimitError)):
        return EXIT_REFUSED, "refused"
    return EXIT_INPUT, "error"


@dataclass
class AnalysisRecord:
    """One graph's analysis: structure, good-set status, and (optionally) chi_b.

    chi_b_method is one of construction, oracle, nogoodset-theorem (exact
    value from the no-good-set case, witness coloring out of reach) or
    bounds-only (girth below 9 and the graph is too big for the oracle).
    """

    n: int
    edges: int
    girth: int | float
    m: int
    dense_count: int
    has_good_set: bool | None
    good_set: list[int] | None
    chi_b: int | None = None
    chi_b_method: str | None = None
    chi_b_upper: int | None = None

    def girth_text(self) -> str:
        return "acyclic" if self.girth == ACYCLIC else str(self.girth)

    def to_lines(self) -> list[str]:
        lines = [
            f"n {self.n}",
            f"edges {self.edges}",
            f"girth {self.girth_text()}",
            f"m {self.m}",
            f"dense-count {self.dense_count}",
            f"has-good-set {'unknown' if self.has_good_set is None else str(self.has_good_set).lower()}",
        ]
        if self.good_set is not None:
            lines.append("good-set " + " ".join(str(v) for v in self.good_set))
        if self.chi_b_method is not None:
            if self.chi_b is not None:
                lines.append(f"chi-b {self.chi_b}")
            if self.chi_b_upper is not None:
                lines.append(f"chi-b-upper {self.chi_b_upper}")
            lines.append(f"chi-b-method {self.chi_b_method}")
        return lines

    def to_json_dict(self) -> dict:
        return {**asdict(self), "girth": "acyclic" if self.girth == ACYCLIC else self.girth}


@dataclass
class PipelineOutcome:
    record: AnalysisRecord
    coloring: dict[int, int] | None = None
    basis: dict[int, int] | None = None
    trace: tuple[TraceEvent, ...] = ()


def run_pipeline(
    g: Graph,
    *,
    compute_chi_b: bool = False,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
    force_oracle: bool = False,
    need_coloring: bool = False,
) -> PipelineOutcome:
    """Analyze a graph and, on request, compute chi_b with a witness.

    Dispatch: girth >= 9 (or forest) with a good set -> chi_b = m(G) by
    construction; without one -> chi_b = m(G) - 1, witnessed by the oracle
    when the graph is small enough.  Below girth 9 the oracle decides when
    it fits, otherwise only the bound chi_b <= m(G) is reported.  A coloring
    below girth 9 is refused unless the oracle is forced.
    """
    gv = girth(g)
    high_girth = gv >= 9
    if need_coloring and not force_oracle and not high_girth:
        raise PreconditionError(
            f"girth {gv} is below 9, outside the constructive theory; pass --oracle for exhaustive search"
        )
    profile = density_profile(g)
    characterizable = gv >= 8
    good = find_good_set(g, profile, girth_value=gv) if characterizable else None
    record = AnalysisRecord(
        n=g.n,
        edges=g.edge_count,
        girth=gv,
        m=profile.m,
        dense_count=len(profile.dense),
        has_good_set=(good is not None) if characterizable else None,
        good_set=[g.labels[v] for v in good.members] if good is not None else None,
    )
    outcome = PipelineOutcome(record=record)
    if not (compute_chi_b or need_coloring):
        return outcome

    theory = high_girth and not force_oracle
    if theory and good is not None:
        built = b_coloring_with_good_set(g, good, profile=profile, girth_value=gv)
        record.chi_b = built.chi_b
        record.chi_b_method = "construction"
        outcome.coloring = built.coloring
        outcome.basis = built.basis
        outcome.trace = built.trace
        return outcome

    if g.n > oracle_limit:
        if theory:
            record.chi_b = profile.m - 1
            record.chi_b_method = "nogoodset-theorem"
            if need_coloring:
                raise OracleLimitError(
                    f"chi_b = {record.chi_b} is exact, but a witness coloring needs the exact search "
                    f"(n = {g.n} exceeds the oracle limit {oracle_limit})"
                )
            return outcome
        if force_oracle or need_coloring:
            raise OracleLimitError(f"n = {g.n} exceeds the oracle limit {oracle_limit}")
        record.chi_b_method = "bounds-only"
        record.chi_b_upper = profile.m
        return outcome

    # the exact search witnesses m(G) - 1 when no good set exists, and
    # decides chi_b itself when forced or when the girth theory does not apply
    if theory:
        record.chi_b = profile.m - 1
        witness = find_b_coloring_exact(g, record.chi_b, limit=oracle_limit)
    else:
        record.chi_b, witness = exact_b_chromatic(g, limit=oracle_limit)
    record.chi_b_method = "oracle"
    if witness is None:
        raise InvariantViolation(f"the exact search found no b-coloring with chi_b = {record.chi_b} colors")
    basis = check_b_coloring(g, witness, record.chi_b).basis
    if basis is None:
        raise InvariantViolation(f"the exact search's coloring with {record.chi_b} colors failed the validity check")
    outcome.coloring = witness
    outcome.basis = basis
    return outcome


def load_graph(path: str, fmt: str | None = None) -> Graph:
    """Read a graph file; the format is inferred from the extension unless forced."""
    text = Path(path).read_text()
    if fmt is None:
        fmt = "dimacs" if path.endswith(".col") else "edgelist"
    return parse_dimacs(text) if fmt == "dimacs" else parse_edge_list(text)


def _write_stdout(text: str) -> None:
    """Write text to stdout, through its byte layer when that is unbuffered.

    Unbuffered (PYTHONUNBUFFERED), the text layer sits on a raw byte layer
    and drops what a short write to a closed pipe left over without an
    error, so the bytes go to the raw layer in a loop that checks each
    count: the write after a short one then raises BrokenPipeError.  A
    buffered byte layer completes each write or raises by itself, and a
    stream without one, such as io.StringIO, has no byte layer to reach:
    both take the text as print would, at print's cost.
    """
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        out.write(text)
        return
    out.flush()  # whatever the text layer still holds goes first; no syscall on a raw layer
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[raw.write(data):]


def _print(line: str = "") -> None:
    """``print(line)``, written through ``_write_stdout``."""
    _write_stdout(line + "\n")


def _write_output(content: str, path: str | None) -> None:
    if path is None or path == "-":
        _write_stdout(content)
    else:
        Path(path).write_text(content)


def _print_record(record: AnalysisRecord, as_json: bool, extra: dict | None = None) -> None:
    extra = extra or {}
    if as_json:
        _print(json.dumps({**extra, **record.to_json_dict()}))
    else:
        for key, value in extra.items():
            _print(f"{key} {value}")
        _print("\n".join(record.to_lines()))


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.batch is not None:
        worst = EXIT_OK
        paths = sorted(p for p in Path(args.batch).iterdir() if p.is_file())
        for index, path in enumerate(paths):
            try:
                g = load_graph(str(path), args.format)
                outcome = run_pipeline(
                    g,
                    compute_chi_b=args.chi_b,
                    oracle_limit=args.oracle_limit,
                    force_oracle=args.oracle,
                )
                if not args.json and index:
                    _print()
                _print_record(outcome.record, args.json, extra={"file": path.name})
            except _REPORTED_ERRORS as exc:
                code, prefix = _exit_status(exc)
                worst = max(worst, code)
                message = f"{prefix}: {exc}" if code == EXIT_INTERNAL else str(exc)
                if args.json:
                    _print(json.dumps({"file": path.name, "error": message}))
                else:
                    if index:
                        _print()
                    _print(f"file {path.name}")
                    _print(f"error {message}")
        return worst
    g = load_graph(args.input, args.format)
    outcome = run_pipeline(g, compute_chi_b=args.chi_b, oracle_limit=args.oracle_limit, force_oracle=args.oracle)
    _print_record(outcome.record, args.json)
    return EXIT_OK


def cmd_color(args: argparse.Namespace) -> int:
    g = load_graph(args.input, args.format)
    outcome = run_pipeline(
        g,
        compute_chi_b=True,
        need_coloring=True,
        oracle_limit=args.oracle_limit,
        force_oracle=args.oracle,
    )
    if args.trace:
        lines = []
        for event in outcome.trace:
            line = f"step={event.step} vertex={g.labels[event.vertex]} color={event.color}"
            if event.recolored_from is not None:
                line += f" recolored-from={event.recolored_from}"
            lines.append(line + "\n")
        _write_stdout("".join(lines))  # one write for the whole trace, whatever its length
    _write_output(format_coloring_file(g, outcome.coloring, outcome.record.chi_b, outcome.basis), args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = load_graph(args.graph, args.format)
    k, coloring = parse_coloring_file(Path(args.coloring).read_text(), g)
    report = check_b_coloring(g, coloring, k)
    # both reports name vertices by label; a violation's witness is a color or a vertex tuple
    basis = {c: g.labels[v] for c, v in report.basis.items()} if report.basis else None
    violations = [
        (v.kind, [g.labels[w] for w in v.witness] if isinstance(v.witness, tuple) else v.witness)
        for v in report.violations
    ]
    if args.json:
        payload = {
            "k": k,
            "proper": report.proper,
            "colors_used": report.colors_used,
            "valid": report.valid,
            "basis": basis,
            "violations": [{"kind": kind, "witness": witness} for kind, witness in violations],
        }
        _print(json.dumps(payload))
    else:
        _print(f"k {k}")
        _print(f"proper {str(report.proper).lower()}")
        _print(f"colors-used {report.colors_used}")
        _print(f"status {'valid' if report.valid else 'invalid'}")
        if basis:
            _print("basis " + ",".join(f"{label}:{c}" for c, label in sorted(basis.items())))
        for kind, witness in violations:
            text = " ".join(map(str, witness)) if isinstance(witness, list) else witness
            _print(f"violation {kind} {text}")
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_generate(args: argparse.Namespace) -> int:
    g = generate_girth_constrained(args.n, args.min_girth, args.edges, args.seed)
    _write_output(to_edge_list(g), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bchrom",
        description="Exact b-chromatic numbers and witness b-colorings for graphs of girth at least 9.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="report girth, m(G), good-set status, and optionally chi_b")
    analyze.add_argument("input", nargs="?", help="graph file (edge list or DIMACS .col)")
    analyze.add_argument("--batch", metavar="DIR", help="analyze every file in a directory instead")
    analyze.add_argument("--format", choices=["edgelist", "dimacs"])
    analyze.add_argument("--chi-b", action="store_true", dest="chi_b", help="also compute the b-chromatic number")
    analyze.add_argument("--oracle", action="store_true", help="force the exhaustive search even at girth >= 9")
    analyze.add_argument("--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT)
    analyze.add_argument("--json", action="store_true")
    analyze.set_defaults(func=cmd_analyze)

    color = sub.add_parser("color", help="write a witnessed b-coloring with chi_b colors")
    color.add_argument("input")
    color.add_argument("--output", "-o", help="destination file (default: stdout)")
    color.add_argument("--format", choices=["edgelist", "dimacs"])
    color.add_argument("--oracle", action="store_true", help="allow exhaustive search below girth 9")
    color.add_argument("--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT)
    color.add_argument("--trace", action="store_true", help="print one line per coloring decision")
    color.set_defaults(func=cmd_color)

    verify = sub.add_parser("verify", help="check a coloring file against its graph")
    verify.add_argument("graph")
    verify.add_argument("coloring")
    verify.add_argument("--format", choices=["edgelist", "dimacs"])
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    generate = sub.add_parser("generate", help="write a random graph of prescribed minimum girth")
    generate.add_argument("n", type=int)
    generate.add_argument("--min-girth", type=int, default=9)
    generate.add_argument("--edges", type=int, required=True, help="edge budget (the output may have fewer)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", "-o", help="destination file (default: stdout)")
    generate.set_defaults(func=cmd_generate)

    return parser


#: Built once: parse_args leaves the parser as it found it, so every call of
#: main shares it.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except _REPORTED_ERRORS as exc:
        code, prefix = _exit_status(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to the null device,
        # so the flush at interpreter exit neither fails nor prints
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
