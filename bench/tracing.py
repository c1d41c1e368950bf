"""Per-layer tracing from the benchmark's side of the module boundaries.

The traced run replaces module-level bindings of bchrom with wrappers that
record spans (layer, start, end, parent, op id) and counts, and restores them
afterwards.  A binding is wrapped where the call looks it up: cli.py calls
its own imported name `girth`, so `bchrom.cli.girth` is wrapped, while the
lazy import inside b_coloring_with_good_set resolves
`bchrom.oracle.check_b_coloring`.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (module, binding, layer).  Every binding must exist: a refactor that moves a
# function must update this table instead of silently zeroing a layer.
BINDINGS = [
    ("bchrom.cli", "main", "cli.main"),
    ("bchrom.cli", "load_graph", "cli.load"),
    ("bchrom.cli", "parse_edge_list", "graph.parse"),
    ("bchrom.cli", "parse_dimacs", "graph.parse"),
    ("bchrom.cli", "girth", "graph.girth"),
    ("bchrom.graph", "girth", "graph.girth"),
    ("bchrom.cli", "run_pipeline", "cli.pipeline"),
    ("bchrom.cli", "density_profile", "density.profile"),
    ("bchrom.oracle", "density_profile", "density.profile"),
    ("bchrom.cli", "find_good_set", "goodset.find"),
    ("bchrom.goodset", "check_good_set", "goodset.check"),
    ("bchrom.coloring", "check_good_set", "goodset.check"),
    ("bchrom.goodset", "find_encircled_vertex", "goodset.encircle"),
    ("bchrom.oracle", "find_encircled_vertex", "goodset.encircle"),
    ("bchrom.cli", "b_coloring_with_good_set", "coloring.construct"),
    ("bchrom.coloring", "classify_links", "coloring.classify"),
    ("bchrom.coloring", "color_links", "coloring.passes"),
    ("bchrom.coloring", "complete_b_vertices", "coloring.complete"),
    ("bchrom.coloring", "greedy_extend", "coloring.greedy"),
    ("bchrom.cli", "check_b_coloring", "oracle.check"),
    ("bchrom.oracle", "check_b_coloring", "oracle.check"),
    ("bchrom.cli", "exact_b_chromatic", "oracle.exact"),
    ("bchrom.cli", "find_b_coloring_exact", "oracle.find_exact"),
    ("bchrom.oracle", "find_b_coloring_exact", "oracle.find_exact"),
    ("bchrom.cli", "format_coloring_file", "cli.format_coloring"),
    ("bchrom.cli", "parse_coloring_file", "cli.parse_coloring"),
]

# Layers whose calls are only counted: the oracle's prune calls
# find_encircled_vertex once per candidate basis.
COUNT_ONLY = {"goodset.encircle"}

# per-layer metric -> layer whose mean self time per op it reports
TIME_METRICS = {
    "graph.parse_s": "graph.parse",
    "graph.girth_s": "graph.girth",
    "density.profile_s": "density.profile",
    "goodset.find_s": "goodset.find",
    "goodset.check_s": "goodset.check",
    "coloring.construct_s": "coloring.construct",
    "coloring.classify_s": "coloring.classify",
    "coloring.passes_s": "coloring.passes",
    "coloring.complete_s": "coloring.complete",
    "coloring.greedy_s": "coloring.greedy",
    "oracle.check_s": "oracle.check",
    "oracle.exact_s": "oracle.exact",
    "oracle.find_exact_s": "oracle.find_exact",
    "cli.load_s": "cli.load",
    "cli.pipeline_self_s": "cli.pipeline",
    "cli.format_coloring_s": "cli.format_coloring",
    "cli.parse_coloring_s": "cli.parse_coloring",
    "cli.main_self_s": "cli.main",
}

ASSIGN_STEPS = ("anchor", "step1", "step2", "step3-new", "step4", "completion", "greedy")

USEFUL = "oracle.find_exact_useful"  # raw count behind oracle.find_exact_useful_ratio

# Count metrics, reported as totals per op; they must repeat exactly.
COUNT_METRICS = [
    "graph.girth_calls",
    "graph.edges_in",
    "density.profile_calls",
    "goodset.check_calls",
    "goodset.encircle_calls",
    "coloring.link_vertices",
    "coloring.chained",
    "coloring.multi_anchored",
    *(f"coloring.assign.{step}" for step in ASSIGN_STEPS),
    "coloring.recolorings",
    "oracle.check_calls",
    "oracle.find_exact_calls",
    USEFUL,
]


def _count_parse(counts: Counter, graph) -> None:
    counts["graph.edges_in"] += sum(len(nbrs) for nbrs in graph.adj) // 2


def _count_links(counts: Counter, links) -> None:
    counts["coloring.link_vertices"] += len(links.vertices)
    counts["coloring.chained"] += len(links.chained)
    counts["coloring.multi_anchored"] += len(links.multi_anchored)


def _count_trace(counts: Counter, result) -> None:
    for event in result.trace:
        if event.recolored_from is None:
            counts[f"coloring.assign.{event.step}"] += 1
        else:
            counts["coloring.recolorings"] += 1


def _count_useful(counts: Counter, witness) -> None:
    counts[USEFUL] += witness is not None


RESULT_COUNTERS = {
    "graph.parse": _count_parse,
    "coloring.classify": _count_links,
    "coloring.construct": _count_trace,
    "oracle.find_exact": _count_useful,
}


class Tracer:
    """Spans and counts of one traced run; the wrappers are live from install() to uninstall()."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._originals: list[tuple[object, str, object]] = []

    def check_bindings(self) -> None:
        """Raise SystemExit naming every binding of the table that is missing."""
        missing = [
            f"{module}.{name}"
            for module, name, _ in BINDINGS
            if not callable(getattr(sys.modules.get(module), name, None))
        ]
        if missing:
            raise SystemExit(f"trace binding table is out of date; missing: {', '.join(missing)}")

    def _wrap(self, fn, layer: str):
        tracer = self
        counter = RESULT_COUNTERS.get(layer)
        calls = f"{layer}_calls"
        if layer in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[calls] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = [layer, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            tracer.counts[calls] += 1
            if counter is not None:
                counter(tracer.counts, result)
            return result

        return spanned

    def install(self) -> None:
        self.check_bindings()
        for module_name, name, layer in BINDINGS:
            module = sys.modules[module_name]
            original = getattr(module, name)
            self._originals.append((module, name, original))
            setattr(module, name, self._wrap(original, layer))

    def uninstall(self) -> None:
        while self._originals:
            module, name, original = self._originals.pop()
            setattr(module, name, original)

    def self_times(self) -> Counter:
        """Total self time per layer: span duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            totals[layer] += end - start - child[i]
        return totals

    def layers_run(self) -> set[str]:
        ran = {span[0] for span in self.spans}
        return ran | {calls[: -len("_calls")] for calls, value in self.counts.items() if value and calls.endswith("_calls")}

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for layer, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": layer, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer: Tracer, traced_ops: int, pass_counts: Counter, pass_ops: int, overhead: float) -> dict:
    times = tracer.self_times()
    metrics = {name: (times[layer] / traced_ops, "s/op") for name, layer in TIME_METRICS.items()}
    metrics.update({name: (pass_counts[name] / pass_ops, "count/op") for name in COUNT_METRICS if name != USEFUL})
    calls = pass_counts["oracle.find_exact_calls"]
    useful = pass_counts[USEFUL] / calls if calls else 0.0
    metrics["oracle.find_exact_useful_ratio"] = (useful, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
