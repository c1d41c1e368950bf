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
import gc
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .coloring import BResult, b_coloring_with_good_set
from .errors import InvariantViolation, OracleLimitError, ParseError, PreconditionError
from .goodset import density_profile, find_good_set
from .graph import (
    ACYCLIC,
    MAX_INPUT_BYTES,
    Graph,
    format_coloring_file,
    generate_girth_constrained,
    girth,
    parse_coloring_file,
    parse_dimacs,
    parse_edge_list,
    to_edge_list,
)
from .oracle import DEFAULT_ORACLE_LIMIT, MAX_ORACLE_LIMIT, check_b_coloring, exact_b_chromatic
from .oracle import find_b_coloring_exact  # noqa: F401  (unused: bench/tracing.py wraps this binding)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_PIPE = 141

#: Exceptions the CLI reports as an exit code instead of a traceback.
#: ParseError, PreconditionError and UnicodeDecodeError are ValueErrors.
#: An OSError is an input error, except a BrokenPipeError, which each
#: handler lets through to main's exit 141.
_REPORTED_ERRORS = (ValueError, OracleLimitError, InvariantViolation, OSError)


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

    chi_b_method is one of construction (girth >= 9: m(G) colors from a
    good set, or m(G) - 1 from ``find_good_set``'s set when none exists),
    oracle (the exhaustive search) or bounds-only (girth below 9 and the
    graph is too big for the oracle).
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
        """The fields by name, in field order; ``good_set`` is shared, not copied."""
        return {**vars(self), "girth": "acyclic" if self.girth == ACYCLIC else self.girth}


def run_pipeline(
    g: Graph,
    *,
    compute_chi_b: bool = False,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
    force_oracle: bool = False,
    need_coloring: bool = False,
) -> tuple[AnalysisRecord, BResult | None]:
    """Analyze a graph and, on request, compute chi_b with a witness.

    Dispatch: girth >= 9 (or forest) -> chi_b by construction from
    ``find_good_set``'s set, m(G) colors when a good set exists and m(G) - 1
    otherwise, at any n.  Below girth 9 the oracle decides when it fits,
    otherwise only the bound chi_b <= m(G) is reported.  A coloring below
    girth 9 is refused unless the oracle is forced.

    Returns the record and the witness: the construction's ``BResult``, or
    one holding the oracle's coloring, the basis its check found and an
    empty log; None when chi_b is not asked for or only bounded.
    """
    gv = girth(g)
    high_girth = gv >= 9
    if need_coloring and not force_oracle and not high_girth:
        raise PreconditionError(
            f"girth {gv} is below 9, outside the constructive theory; pass --oracle for exhaustive search"
        )
    profile = density_profile(g)
    good = find_good_set(g) if gv >= 8 else None
    has_good_set = len(good.members) == profile.m if good is not None else None
    record = AnalysisRecord(
        n=g.n,
        edges=g.edge_count,
        girth=gv,
        m=profile.m,
        dense_count=len(profile.dense),
        has_good_set=has_good_set,
        good_set=[g.labels[v] for v in good.members] if has_good_set else None,
    )
    if not (compute_chi_b or need_coloring):
        return record, None

    if high_girth and not force_oracle:
        built = b_coloring_with_good_set(g, good)
        record.chi_b = built.chi_b
        record.chi_b_method = "construction"
        return record, built

    if g.n > oracle_limit:
        if force_oracle or need_coloring:
            raise OracleLimitError(f"n = {g.n} exceeds the oracle limit {oracle_limit}")
        record.chi_b_method = "bounds-only"
        record.chi_b_upper = profile.m
        return record, None

    # the exact search decides chi_b when forced or when the girth theory does not apply
    record.chi_b, witness = exact_b_chromatic(g, limit=oracle_limit)
    record.chi_b_method = "oracle"
    basis = check_b_coloring(g, witness, record.chi_b).basis
    if basis is None:
        raise InvariantViolation(f"the exact search's coloring with {record.chi_b} colors failed the validity check")
    return record, BResult(record.chi_b, witness, basis)


def _read_input(path: str) -> str:
    """The text of an input file, decoded as ``Path.read_text`` decodes it;
    a ParseError when the file holds more than MAX_INPUT_BYTES bytes.

    A regular file is refused by its size before any byte is read.  A
    device or a FIFO reports size 0, and a file may grow after its size is
    taken, so whatever the file, at most MAX_INPUT_BYTES + 1 bytes are read.
    """
    with open(path, "rb") as file:
        size = os.fstat(file.fileno()).st_size
        if size > MAX_INPUT_BYTES:
            raise ParseError(f"{path} has {size} bytes, above the limit {MAX_INPUT_BYTES}")
        data = file.read(size + 1)  # a regular file ends within this read
        if len(data) > size:  # a device, a FIFO or a grown file: read on, up to one byte past the limit
            data += file.read(MAX_INPUT_BYTES - size)
    if len(data) > MAX_INPUT_BYTES:
        raise ParseError(f"{path} has more than {MAX_INPUT_BYTES} bytes, the limit")
    return io.TextIOWrapper(io.BytesIO(data)).read()


def load_graph(path: str, fmt: str | None = None) -> Graph:
    """Read a graph file; the format is inferred from the extension unless forced."""
    text = _read_input(path)
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


def _write_output(blocks: list[str], path: str | None) -> None:
    """Write the text blocks in order, to stdout or to a file."""
    if path is None or path == "-":
        for block in blocks:
            _write_stdout(block)
    else:
        with open(path, "w") as out:
            out.writelines(blocks)


def _print_record(record: AnalysisRecord | None, as_json: bool, extra: dict | None = None) -> None:
    """Print ``extra`` and then the record's fields, as one JSON object or as
    "key value" lines; ``extra`` alone when there is no record."""
    extra = extra or {}
    if as_json:
        _print(json.dumps({**extra, **record.to_json_dict()} if record else extra))
    else:
        for key, value in extra.items():
            _print(f"{key} {value}")
        if record:
            _print("\n".join(record.to_lines()))


def cmd_analyze(args: argparse.Namespace) -> int:
    def analyze(path: str) -> AnalysisRecord:
        g = load_graph(path, args.format)
        return run_pipeline(g, compute_chi_b=args.chi_b, oracle_limit=args.oracle_limit, force_oracle=args.oracle)[0]

    if args.batch is not None:
        worst = EXIT_OK
        paths = sorted(p for p in Path(args.batch).iterdir() if p.is_file())
        for index, path in enumerate(paths):
            if not args.json and index:
                _print()
            try:
                _print_record(analyze(str(path)), args.json, extra={"file": path.name})
            except BrokenPipeError:
                raise
            except _REPORTED_ERRORS as exc:
                code, prefix = _exit_status(exc)
                worst = max(worst, code)
                # the error is the line the file alone would print on stderr
                _print_record(None, args.json, {"file": path.name, "error": f"{prefix}: {exc}"})
        return worst
    _print_record(analyze(args.input), args.json)
    return EXIT_OK


def cmd_color(args: argparse.Namespace) -> int:
    g = load_graph(args.input, args.format)
    _, result = run_pipeline(
        g,
        compute_chi_b=True,
        need_coloring=True,
        oracle_limit=args.oracle_limit,
        force_oracle=args.oracle,
    )
    if args.trace:
        lines = []
        for step, vertex, color, recolored_from in result.trace:
            line = f"step={step} vertex={g.labels[vertex]} color={color}"
            if recolored_from is not None:
                line += f" recolored-from={recolored_from}"
            lines.append(line + "\n")
        _write_stdout("".join(lines))  # one write for the whole trace, whatever its length
    _write_output(format_coloring_file(g, result.coloring, result.chi_b, result.basis), args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = load_graph(args.graph, args.format)
    k, coloring = parse_coloring_file(_read_input(args.coloring), g)
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
    _write_output([to_edge_list(g)], args.output)
    return EXIT_OK


def count(text: str) -> int:
    """The argparse type of a count option: an int, refused when negative,
    so argparse exits 2 with a message that names the option."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def oracle_limit_count(text: str) -> int:
    """The argparse type of --oracle-limit: a count, refused above
    MAX_ORACLE_LIMIT, the deepest search the interpreter's stack allows."""
    value = count(text)
    if value > MAX_ORACLE_LIMIT:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_ORACLE_LIMIT}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bchrom",
        description="Exact b-chromatic numbers and witness b-colorings for graphs of girth at least 9.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # argparse draws no group around a positional argument, so the usage line
    # that shows exactly one of GRAPH and --batch is written out
    analyze = sub.add_parser(
        "analyze",
        help="report girth, m(G), good-set status, and optionally chi_b",
        usage="%(prog)s [-h] (GRAPH | --batch DIR) [--format {edgelist,dimacs}] [--chi-b] [--oracle]"
        " [--oracle-limit ORACLE_LIMIT] [--json]",
    )
    source = analyze.add_mutually_exclusive_group(required=True)
    source.add_argument("input", nargs="?", metavar="GRAPH", help="graph file (edge list or DIMACS .col)")
    source.add_argument("--batch", metavar="DIR", help="analyze every file in a directory instead")
    analyze.add_argument("--format", choices=["edgelist", "dimacs"])
    analyze.add_argument("--chi-b", action="store_true", dest="chi_b", help="also compute the b-chromatic number")
    analyze.add_argument("--oracle", action="store_true", help="force the exhaustive search even at girth >= 9")
    analyze.add_argument("--oracle-limit", type=oracle_limit_count, default=DEFAULT_ORACLE_LIMIT)
    analyze.add_argument("--json", action="store_true")
    analyze.set_defaults(func=cmd_analyze)

    color = sub.add_parser("color", help="write a witnessed b-coloring with chi_b colors")
    color.add_argument("input")
    color.add_argument("--output", "-o", help="destination file (default: stdout)")
    color.add_argument("--format", choices=["edgelist", "dimacs"])
    color.add_argument("--oracle", action="store_true", help="force the exhaustive search even at girth >= 9")
    color.add_argument("--oracle-limit", type=oracle_limit_count, default=DEFAULT_ORACLE_LIMIT)
    color.add_argument("--trace", action="store_true", help="print one line per coloring decision")
    color.set_defaults(func=cmd_color)

    verify = sub.add_parser("verify", help="check a coloring file against its graph")
    verify.add_argument("graph")
    verify.add_argument("coloring")
    verify.add_argument("--format", choices=["edgelist", "dimacs"])
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    generate = sub.add_parser("generate", help="write a random graph of prescribed minimum girth")
    generate.add_argument("n", type=count)
    generate.add_argument("--min-girth", type=int, default=9)
    generate.add_argument("--edges", type=count, required=True, help="edge budget (the output may have fewer)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", "-o", help="destination file (default: stdout)")
    generate.set_defaults(func=cmd_generate)

    return parser


#: Built once: parse_args leaves the parser as it found it, so every call of
#: main shares it.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is paused while the command runs and left
    as the caller had it on every exit.  Collection passes would rescan the
    young adjacency lists and tuples of a large graph many times over, while
    the commands make no reference cycles for a pass to free.
    """
    args = _PARSER.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to the null device,
        # so the flush at interpreter exit neither fails nor prints
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    except _REPORTED_ERRORS as exc:
        code, prefix = _exit_status(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    finally:
        if collecting:
            gc.enable()
