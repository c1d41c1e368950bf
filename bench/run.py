#!/usr/bin/env python3
"""Closed-loop benchmark of the bchrom command line, one workload per process.

    python3 bench/run.py --workload forest --seed 1 --seconds 20 --trace 0

Each op is one in-process call of bchrom.cli.main on one input file, with
stdout captured: one thread, one op at a time.  Times are reported at a
reference host speed, measured by a fixed probe between ops (speed.py).
Every output is checked by the benchmark's own code (check.py); a wrong
answer, an unexpected exit code or an exception counts as a failed op.  The
last stdout line is the result: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.  The line before it records the corpus and witness
fingerprints and the machine.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("forest", "linked-anchors", "oracle-small", "verify")
MIN_OPS = 100  # p90 needs at least ten samples beyond it
PROBE_EVERY_S = 0.25  # host speed probe interval in the timed loop
SETUP_REPS = 5
WARMUP_OPS = {"forest": 1, "linked-anchors": 1, "oracle-small": 8, "verify": 3}
TRACE_OPS = {"forest": 25, "oracle-small": 200}  # traced pass length; default: the whole corpus

# layers that must run at least once in a traced run of each workload
_COLOR_LAYERS = {
    "graph.girth", "density.profile", "cli.pipeline", "goodset.find", "goodset.check", "goodset.encircle",
    "coloring.construct", "coloring.classify", "coloring.passes", "coloring.complete", "coloring.greedy",
    "oracle.check", "cli.format_coloring",
}
_IO_LAYERS = {"cli.main", "cli.load", "graph.parse"}
EXPECTED_LAYERS = {
    "forest": _IO_LAYERS | _COLOR_LAYERS,
    "linked-anchors": _IO_LAYERS | _COLOR_LAYERS,
    "oracle-small": _IO_LAYERS | {
        "graph.girth", "density.profile", "cli.pipeline", "goodset.find", "goodset.encircle",
        "oracle.exact", "oracle.find_exact", "oracle.check",
    },
    "verify": _IO_LAYERS | {"cli.parse_coloring", "oracle.check"},
}


@dataclass
class Op:
    argv: list[str]
    inst: corpus.Instance
    expect: object  # what the check needs beyond the output itself

    def problem(self, workload: str, out: str, code: int) -> str | None:
        if workload == "verify":
            coloring_text, valid = self.expect
            return check.check_verify_output(self.inst.adjacency(), coloring_text, out, code, valid)
        if code != 0:
            return f"exit code {code}"
        adj = self.inst.adjacency()
        if workload == "oracle-small":
            return check.check_analyze_output(adj, out, self.expect)
        m, _ = check.density(adj)
        return check.check_color_output(adj, out, {m - 1, m})


class Session:
    """One benchmark process: corpus, witnesses, op list, checking."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.cli = None
        self.instances: list[corpus.Instance] = []
        self.corpus_sha256 = ""
        self.witness: dict[str, str] = {}
        self.inputs = work / "inputs"
        self.extra_files: dict[str, tuple[str, bool]] = {}  # verify: coloring files and verdicts
        self.op_starts: list[float] = []  # when the timed loop began each op
        self.seen: dict[int, tuple[str, int]] = {}  # op index -> checked (output digest, exit code)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.last_stderr = ""

    # --- program calls ---------------------------------------------------------

    def fresh_import(self) -> None:
        for name in [n for n in sys.modules if n == "bchrom" or n.startswith("bchrom.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("bchrom.cli")

    def call(self, argv: list[str]) -> tuple[str, int | None, str | None, float]:
        """One op: (stdout, exit code, exception, seconds); stderr is kept in last_stderr."""
        out, err = io.StringIO(), io.StringIO()
        exc = None
        code = None
        gc.collect()  # every op starts from the same heap, as a fresh process would
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as caught:  # an op that raises is a failed op
            exc = f"{type(caught).__name__}: {caught}"
        seconds = perf_counter() - start
        self.last_stderr = err.getvalue()
        return out.getvalue(), code, exc, seconds

    # --- set-up ----------------------------------------------------------------

    def prepare(self) -> None:
        """Untimed: build the corpus once, write the input files and make the
        witnesses that need the program.  Files are written here only, because
        creating files on a shared disk is slow and erratic, and it is the
        benchmark's cost, not the program's."""
        self.fresh_import()
        self.instances = corpus.build(self.workload, self.seed)
        texts = [inst.text() for inst in self.instances]
        self.corpus_sha256 = corpus.fingerprint(texts)
        self.inputs.mkdir()
        for inst, text in zip(self.instances, texts):
            path = self.inputs / f"{inst.name}.txt"
            path.write_text(text)
            if self.workload not in ("verify", "oracle-small"):
                continue
            argv = ["color", str(path)] + (["--oracle"] if self.workload == "oracle-small" else [])
            out, code, exc, _ = self.call(argv)
            adj = inst.adjacency()
            m, _ = check.density(adj)
            allowed = set(range(1, m + 1)) if self.workload == "oracle-small" else {m - 1, m}
            problem = check.check_color_output(adj, out, allowed) if code == 0 else f"exit {code} {exc}"
            if problem:
                raise SystemExit(f"set-up witness for {inst.name} is wrong: {problem}")
            self.witness[inst.name] = out
            if self.workload == "verify":
                self._corrupt(inst, adj, out)
        for name, (text, _) in self.extra_files.items():
            (self.inputs / f"{name}.col.txt").write_text(text)

    def _corrupt(self, inst: corpus.Instance, adj: check.Adjacency, witness: str) -> None:
        """Two broken copies of a valid witness; the verdicts come from check.py."""
        rng = random.Random(f"verify-corrupt:{self.seed}:{inst.name}")
        k, coloring, basis = check.parse_coloring(witness)
        header = witness.splitlines()[0]
        u, v = rng.choice(adj.edges)
        mono = dict(coloring)
        mono[u] = coloring[v]
        b = basis[rng.randint(1, k)]
        moved = dict(coloring)
        moved[b] = coloring[rng.choice(sorted(adj.nbrs[b]))]
        self.extra_files[f"{inst.name}.valid"] = (witness, True)
        for tag, colors in (("mono", mono), ("bvertex", moved)):
            text = header + "\n" + "".join(f"{x} {colors[x]}\n" for x in coloring)
            self.extra_files[f"{inst.name}.{tag}"] = (text, not check.coloring_problems(adj, colors, k))

    def setup(self) -> list[Op]:
        """Timed set-up: fresh import, corpus generation, op list."""
        self.fresh_import()
        instances = corpus.build(self.workload, self.seed)
        texts = [inst.text() for inst in instances]
        if corpus.fingerprint(texts) != self.corpus_sha256:
            raise SystemExit("corpus generation is not a pure function of the seed")
        ops = []
        for inst in instances:
            graph = str(self.inputs / f"{inst.name}.txt")
            if self.workload == "forest" or self.workload == "linked-anchors":
                ops.append(Op(["color", graph], inst, None))
            elif self.workload == "oracle-small":
                k = check.parse_coloring(self.witness[inst.name])[0]
                ops.append(Op(["analyze", "--chi-b", "--json", graph], inst, {"chi_b": k, "nogood": inst.kind == "nogood"}))
            else:
                for tag in ("valid", "mono", "bvertex"):
                    text, valid = self.extra_files[f"{inst.name}.{tag}"]
                    coloring = str(self.inputs / f"{inst.name}.{tag}.col.txt")
                    ops.append(Op(["verify", "--json", graph, coloring], inst, (text, valid)))
        return ops

    # --- checking --------------------------------------------------------------

    def record(self, index: int, op: Op, out: str, code: int | None, exc: str | None) -> None:
        """Check one op's answer.  A repeat of an input is accepted when its output
        is byte-identical to the one already checked for that input."""
        self.attempted += 1
        digest = hashlib.sha256(out.encode()).hexdigest()
        if exc is None and self.seen.get(index) == (digest, code):
            return
        try:
            problem = exc if exc is not None else op.problem(self.workload, out, code)
        except (ValueError, KeyError, TypeError, IndexError) as bad:
            problem = f"malformed output: {type(bad).__name__}: {bad}"
        if problem is None:
            self.seen.setdefault(index, (digest, code))
            return
        self.failed += 1
        if len(self.errors) < 5:
            stderr = f" (stderr: {self.last_stderr.strip()[:200]})" if self.last_stderr.strip() else ""
            self.errors.append(f"{op.argv[0]} {Path(op.argv[-1]).name}: {problem}{stderr}")

    def run(self, ops: list[Op], index: int) -> float:
        """Run and check ops[index]; returns its wall time."""
        out, code, exc, seconds = self.call(ops[index].argv)
        self.record(index, ops[index], out, code, exc)
        return seconds

    def output_sha256(self, ops: list[Op]) -> str | None:
        if len(self.seen) < len(ops):
            return None
        return corpus.fingerprint(self.seen[i][0] for i in range(len(ops)))


def timed_loop(session: Session, ops: list[Op], seconds: float, probe: speed.Probe) -> list[float]:
    """Closed loop over the op list until the time is up and at least MIN_OPS
    ran; returns the wall latencies.

    Runs stop only at the end of a pass, so every input of the corpus weighs
    the same in every run, whatever the speed of the machine.  The host speed
    is probed every PROBE_EVERY_S between ops (see speed.py).
    """
    latencies: list[float] = []
    began = last_probe = perf_counter()
    done = 0
    while True:
        session.op_starts.append(perf_counter())
        latencies.append(session.run(ops, done % len(ops)))
        done += 1
        now = perf_counter()
        finished = now - began >= seconds and done >= MIN_OPS and done % len(ops) == 0
        if finished or now - last_probe >= PROBE_EVERY_S:
            probe.measure()
            last_probe = perf_counter()
        if finished:
            return latencies


def traced_rounds(session: Session, ops: list[Op], seconds: float) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes over a fixed op list.

    Count metrics must be identical in every traced pass; the overhead ratio is
    traced op time over untraced op time on the same ops.
    """
    ops = ops[: TRACE_OPS.get(session.workload, len(ops))]
    tracer = tracing.Tracer()
    plain = traced = 0.0
    pass_counts = []
    began = perf_counter()
    while len(pass_counts) < 2 or perf_counter() - began < seconds:
        plain += sum(session.run(ops, index) for index in range(len(ops)))
        tracer.counts.clear()
        tracer.install()
        try:
            for index in range(len(ops)):
                tracer.op = len(pass_counts) * len(ops) + index
                traced += session.run(ops, index)
        finally:
            tracer.uninstall()
        pass_counts.append(tracer.counts.copy())
    problems = []
    for name in tracing.COUNT_METRICS + [f"{layer}_calls" for _, _, layer in tracing.BINDINGS]:
        values = {counts[name] for counts in pass_counts}
        if len(values) > 1:
            problems.append(f"count {name} differs between traced passes of one seed: {sorted(values)}")
    girth_calls = {counts["graph.girth_calls"] / len(ops) for counts in pass_counts}
    if girth_calls != {0 if session.workload == "verify" else 1}:
        print(f"note: graph.girth_calls is {sorted(girth_calls)} per op; girth should be derived once", file=sys.stderr)
    never = sorted(EXPECTED_LAYERS[session.workload] - tracer.layers_run())
    if never:
        problems.append(f"layers that never ran on {session.workload}: {', '.join(never)}")
    tracer.dump(session.work.parent / f"spans-{session.workload}-seed{session.seed}.jsonl")
    traced_ops = len(pass_counts) * len(ops)
    metrics = tracing.layer_metrics(tracer, traced_ops, pass_counts[0], len(ops), traced / plain)
    return metrics, problems


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still removes its input files (the finally below).
    # KeyboardInterrupt, unlike SystemExit, is not taken for a failed op.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    if not (ROOT / "src" / "bchrom" / "cli.py").is_file():
        print(f"error: no bchrom sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        session = Session(args.workload, args.seed, work)
        session.prepare()
        gc.collect()
        gc.freeze()  # the benchmark's own data is not the program's to collect
        probe = speed.Probe()
        probe.measure()
        setup_starts: list[float] = []
        setup_wall: list[float] = []
        for rep in range(SETUP_REPS):
            began = perf_counter()
            setup_starts.append(began)
            ops = session.setup()
            # warm up on the smallest inputs, so set-up cost does not depend on the draw
            by_size = sorted(range(len(ops)), key=lambda i: (ops[i].inst.n, len(ops[i].inst.edges), i))
            warm = by_size[: WARMUP_OPS[args.workload]]
            for index in warm:
                session.run(ops, index)
            setup_wall.append(perf_counter() - began)
            probe.measure()
        gc.freeze()
        problems: list[str] = []
        wall: list[float] = []
        setup: list[float] = []
        if args.trace:
            metrics, problems = traced_rounds(session, ops, args.seconds)
        else:
            wall = timed_loop(session, ops, args.seconds, probe)
            # every reported time is at reference speed (see speed.py)
            latencies = [t * probe.factor_at(start + t / 2) for start, t in zip(session.op_starts, wall)]
            setup = [t * probe.factor_at(start + t / 2) for start, t in zip(setup_starts, setup_wall)]
            metrics = {
                "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
                "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
                "latency_p90_s": {"value": statistics.quantiles(latencies, n=10)[8], "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            }
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "corpus_inputs": len(session.instances),
            "corpus_sha256": session.corpus_sha256,
            "corpus_redraws": sum(inst.facts.get("redraws", 0) for inst in session.instances),
            "witness_sha256": corpus.fingerprint(session.witness[i.name] for i in session.instances)
            if session.witness
            else None,
            "output_sha256": session.output_sha256(ops),
            "setup_reps_s": setup,
            "setup_reps_wall_s": setup_wall,
            "wall_ops_per_s": len(wall) / sum(wall) if wall else None,
            "wall_latency_p50_s": statistics.median(wall) if wall else None,
            "speed_factor": probe.run_factor(),
            "error_rate": session.failed / session.attempted,
            "errors": session.errors,
            "problems": problems,
            "machine": machine(),
        }
        result = {
            "correct": session.failed == 0 and not problems,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": metrics,
        }
        (runs / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({**record, **result, "wall_latencies_s": wall, "op_starts_s": session.op_starts, "probes": probe.samples}, indent=1) + "\n"
        )
        for line in session.errors + problems:
            print(line, file=sys.stderr)
        print(json.dumps(record))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
