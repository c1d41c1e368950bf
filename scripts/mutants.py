"""Mutation suite: each entry breaks the program on purpose, and the tests
named with it must then fail.

    python3 scripts/mutants.py

``src/``, ``tests/``, ``scripts/`` and ``pyproject.toml`` are copied to one
temporary directory.  The tests of every entry first run there unmutated,
and must pass; that run also sets the entry's time limit.  Then, for each
entry, its snippet is replaced in its file and ``pytest -x -q`` runs its
tests against the copy.  No subprocess writes bytecode there, so a stale
cache never hides a mutant.  A mutant is killed when a test fails or the run
passes its time limit (a mutant that makes a linear pass quadratic shows
only as time).  A snippet that does not occur exactly once in its file is an
error, not a pass, so the list has to keep in step with the code.

Equivalent mutants change no answer any test can see; their reason says
why.  They run and are reported, but are not counted; one that is killed is
an error, since its reason no longer holds.  Exit 0 when every other mutant
is killed, 1 when one survives, 2 on an error.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: A mutant's time limit: this many times its tests' unmutated run, and at least TIME_FLOOR_S.
TIME_FACTOR = 10
TIME_FLOOR_S = 10.0


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest arguments: files or node ids
    equivalent: str | None = None  # why no test can tell it apart by its answers


GRAPH = "src/bchrom/graph.py"
ORACLE = "src/bchrom/oracle.py"
COLORING = "src/bchrom/coloring.py"
GOODSET = "src/bchrom/goodset.py"
CLI = "src/bchrom/cli.py"

_GIRTH_BFS = """\
        dist[root] = 0
        touched = [root]
        for u in touched:  # BFS queue; grows while searching
            du = dist[u]
            if 2 * du + 1 >= best:
                break
            pu = parent[u]
            for v in adj[u]:
                if live[v]:
                    dv = dist[v]
                    if dv < 0:
                        dist[v] = du + 1
                        parent[v] = u
                        touched.append(v)
                    elif v != pu:
                        candidate = du + dv + 1
                        if candidate < best:
                            best = candidate
        for u in touched:
            dist[u] = -1
"""

_GIRTH_ROOT_DELETION = "        _peel(adj, degree, live, [root])\n"

MUTANTS = [
    # girth(): one peel, then one BFS per 2-core root, each root deleted after its BFS
    Mutant(
        "girth-bfs-after-root-deletion",
        GRAPH,
        _GIRTH_BFS + _GIRTH_ROOT_DELETION,
        _GIRTH_ROOT_DELETION + _GIRTH_BFS,
        ("tests/test_graph.py::test_girth_cycle_and_tree",),
    ),
    # the renumbered 2-core keeps each vertex's core degree, which the root deletions peel by
    Mutant(
        "girth-core-degrees-reset",
        GRAPH,
        "        degree = list(map(degree.__getitem__, roots))\n",
        "        degree = [2] * len(roots)\n",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "girth-cutoff-one-level-late",
        GRAPH,
        "            if 2 * du + 1 >= best:\n",
        "            if 2 * du >= best:\n",
        ("tests/test_graph.py",),
        equivalent="a later cutoff only lets a BFS run one level further; every candidate it adds is still "
        "a closed walk, no shorter than the girth, so only run time changes",
    ),
    Mutant(
        "girth-cutoff-one-level-early",
        GRAPH,
        "            if 2 * du + 1 >= best:\n",
        "            if 2 * du + 2 >= best:\n",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "peel-on-degree-zero",
        GRAPH,
        "                degree[v] -= 1\n                if degree[v] == 1:\n",
        "                degree[v] -= 1\n                if degree[v] == 0:\n",
        ("tests/test_graph.py::test_girth_of_a_long_ring_with_pendant_trees_is_linear",),
    ),
    # the bulk reads of an edge list and of a coloring file
    Mutant(
        "bulk-read-without-repeated-neighbor-check",
        GRAPH,
        "    return None if _repeated_neighbor(g.adj) else g\n",
        "    return g\n",
        ("tests/test_bulk_parse.py",),
    ),
    Mutant(
        "bulk-read-always-maps-labels",
        GRAPH,
        "    if not labels or labels[-1] == n - 1:",
        "    if not labels:",
        ("tests/test_bulk_parse.py",),
        equivalent="labels 0..n-1 map to themselves, so the map gives the identity the plain read gives",
    ),
    Mutant(
        "bulk-decode-accepts-leading-zeros",
        GRAPH,
        'json.loads(b"[%b]" % data[:-1].translate(_SEPARATORS_TO_COMMAS))',
        "list(map(int, data.split()))",
        ("tests/test_bulk_parse.py::test_plain_pairs_match_the_line_search",),
    ),
    Mutant(
        "bulk-coloring-read-accepts-labels-out-of-id-order",
        GRAPH,
        "numbers[0::2] != list(g.labels)",
        "sorted(numbers[0::2]) != list(g.labels)",
        ("tests/test_bulk_parse.py",),
    ),
    Mutant(
        "generate-attempt-clamp-doubled",
        GRAPH,
        "        attempts_left = 50 * max(budget, n)\n",
        "        attempts_left = 50 * max(min(edge_budget, n * (n - 1)), n)\n",
        ("tests/test_graph.py",),
        equivalent="the clamp only bounds attempts after every possible edge is placed or refused; "
        "the graphs come out the same, only run time changes",
    ),
    # the edge-budget cap, on the budget clamped to the edges n vertices can have
    Mutant(
        "generate-cap-on-the-raw-budget",
        GRAPH,
        "    if budget > MAX_EDGES:\n",
        "    if edge_budget > MAX_EDGES:\n",
        ("tests/test_cli.py::test_generate_with_an_edge_budget_above_every_possible_edge",),
    ),
    Mutant(
        "generate-without-the-edge-cap",
        GRAPH,
        "    if budget > MAX_EDGES:\n"
        '        raise ValueError(f"edge budget {edge_budget} is above the limit {MAX_EDGES}")\n',
        "",
        ("tests/test_graph.py::test_generator_refuses_an_edge_budget_above_the_limit",),
    ),
    # the girth gate computes the girth of a graph that stores none yet
    Mutant(
        "girth-gate-passes-an-unstored-girth",
        GRAPH,
        "    value = girth(g) if g._girth is None else g._girth\n",
        "    value = ACYCLIC if g._girth is None else g._girth\n",
        ("tests/test_goodset.py::test_has_good_set_requires_girth_eight",),
    ),
    # the generator's two-sided distance test stops when the balls' radii sum to the cap
    Mutant(
        "two-sided-distance-sum-reaches-cap-plus-one",
        GRAPH,
        "    for _ in range(cap):\n        if len(frontier) > len(other_frontier):\n",
        "    for _ in range(cap + 1):\n        if len(frontier) > len(other_frontier):\n",
        ("tests/test_graph.py::test_two_sided_distance_test_matches_the_one_sided_bfs",),
    ),
    Mutant(
        "generate-saturation-one-vertex-short",
        GRAPH,
        "        if len(ball) < n:\n",
        "        if len(ball) < n - 1:\n",
        ("tests/test_graph.py",),
    ),
    # the independent checker and the exact search
    Mutant(
        "checker-without-u-lt-v",
        ORACLE,
        "            if coloring[v] == c and u < v:\n",
        "            if coloring[v] == c:\n",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "exact-search-without-preset-basis-colors",
        ORACLE,
        "            for c, b in enumerate(basis, 1):\n                chosen[b] = c\n",
        "",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "starvation-counts-an-adjacent-member",
        ORACLE,
        "not nbr[b] >> c & 1 and ",
        "",
        ("tests/test_oracle.py::test_prune_soundness_small_sweep",),
    ),
    Mutant(
        "forward-check-one-repeat-too-many",
        ORACLE,
        "len(nbrs) - k + 1",
        "len(nbrs) - k + 2",
        ("tests/test_oracle.py::test_returned_colorings_always_validate",),
    ),
    # the bases in find_good_set's rank, so W0 is tried first at m(G)
    Mutant(
        "basis-rank-ascending-degree",
        ORACLE,
        "key=rank.__getitem__)",
        "key=lambda v: (len(adj[v]), v))",
        ("tests/test_oracle.py::test_the_witness_at_m_has_the_construction_basis_where_w0_is_good",),
    ),
    # the greedy fill: its one check before the batch, and the smallest free color it picks
    Mutant(
        "greedy-precheck-admits-degree-k",
        COLORING,
        "default=0) >= num_colors:\n",
        "default=0) > num_colors:\n",
        ("tests/test_coloring.py::test_greedy_names_the_lowest_too_connected_vertex",),
    ),
    Mutant(
        "smallest-free-skips-color-1",
        COLORING,
        "                color = 1\n                while color in used:\n",
        "                color = 2\n                while color in used:\n",
        ("tests/test_coloring.py::test_assign_smallest_free_each_by_neighbor_colors",),
    ),
    # completion's high-degree neighbors take the one color the premise leaves free
    Mutant(
        "completion-high-degree-color",
        COLORING,
        "        spare = 2 if own == 1 else 1\n",
        "        spare = 1\n",
        ("tests/test_coloring.py::test_batched_completion_matches_the_per_pair_reference",),
    ),
    # the certificates of coloring.py's module docstring, one each
    Mutant(
        "certificate-properness",
        COLORING,
        "        for u in self._adj[v]:\n"
        "            if colors[u] == color:\n"
        '                raise InvariantViolation(f"edge {u}-{v} is monochromatic", step=step, vertex=v)\n',
        "",
        ("tests/test_coloring.py",),
    ),
    Mutant(
        "certificate-anchor-slack",
        COLORING,
        "        if len(free) < len(missing):\n",
        "        if len(free) < len(missing) - 1:\n",
        ("tests/test_coloring.py",),
    ),
    Mutant(
        "certificate-single-recoloring",
        COLORING,
        "        self._recolored.add(v)\n",
        "",
        ("tests/test_coloring.py",),
    ),
    Mutant(
        "certificate-stable-fringe",
        COLORING,
        "    if not all(map(fringe.isdisjoint, map(adj.__getitem__, fringe))):\n",
        "    if False:\n",
        ("tests/test_coloring.py",),
    ),
    Mutant(
        "certificate-fringe-premise",
        COLORING,
        "    if crowded:\n",
        "    if False:\n",
        ("tests/test_coloring.py",),
    ),
    Mutant(
        "certificate-anchors-see-every-color",
        COLORING,
        "        if not (full_palette - {own} <= seen):\n",
        "        if False:\n",
        ("tests/test_coloring.py",),
    ),
    # the construction checks every set but the one find_good_set stored on its graph
    Mutant(
        "construction-trusts-any-good-set",
        COLORING,
        "    if anchors != g._good_set:\n",
        "    if False:\n",
        ("tests/test_coloring.py::test_construction_rejects_non_good_set",),
    ),
    Mutant(
        "construction-trusts-any-set-when-none-is-stored",
        COLORING,
        "    if anchors != g._good_set:\n",
        "    if g._good_set is not None and anchors != g._good_set:\n",
        ("tests/test_coloring.py::test_construction_rejects_non_good_set",),
    ),
    # the certificates of the link passes, one each
    Mutant(
        "certificate-distinct-second-anchors",
        COLORING,
        "        if len(set(forbidden)) != len(forbidden):\n            raise InvariantViolation(",
        "        if False:\n            raise InvariantViolation(",
        ("tests/test_coloring.py::test_link_passes_refuse_colliding_second_anchors",),
    ),
    Mutant(
        "certificate-feasible-derangement",
        COLORING,
        "        if not {colors[x] for x in star}.isdisjoint(forbidden):",
        "        if False:",
        ("tests/test_coloring.py::test_link_passes_refuse_an_infeasible_derangement",),
    ),
    # pass 2 gives each target the forbidden color after its own
    Mutant(
        "step2-rotation-unshifted",
        COLORING,
        "cycle[1:] + cycle[:1]",
        "cycle",
        ("tests/test_coloring.py::test_derangement_pass_golden",),
    ),
    Mutant(
        "certificate-pass-four-unencircled",
        COLORING,
        "        if option is None:\n",
        "        if False:\n",
        ("tests/test_coloring.py::test_link_passes_refuse_an_encircled_pass_four_vertex",),
    ),
    Mutant(
        "certificate-no-link-vertex-left",
        COLORING,
        "    if leftovers:\n",
        "    if False:\n",
        ("tests/test_coloring.py::test_link_passes_refuse_a_link_vertex_they_leave",),
    ),
    Mutant(
        "certificate-recolor-a-colored-vertex",
        COLORING,
        "        if not old:\n",
        "        if False:\n",
        ("tests/test_coloring.py::test_recolor_refuses_an_uncolored_vertex",),
    ),
    # m(G), the range of a hand-built set, and the two conditions of a good set
    Mutant(
        "density-profile-off-by-one",
        GOODSET,
        "    while m < n and degs[m] >= m:\n",
        "    while m < n and degs[m] > m:\n",
        ("tests/test_density.py",),
    ),
    Mutant(
        "good-set-range-admits-vertex-n",
        GOODSET,
        "w[-1] >= g.n):\n",
        "w[-1] > g.n):\n",
        ("tests/test_coloring.py::test_construction_refuses_a_member_past_the_last_vertex",),
    ),
    Mutant(
        "good-set-range-admits-negative",
        GOODSET,
        "    if w and (w[0] < 0 or w[-1] >= g.n):\n",
        "    if w and w[-1] >= g.n:\n",
        ("tests/test_coloring.py::test_construction_refuses_a_negative_member",),
    ),
    Mutant(
        "good-set-condition-a-encirclement",
        GOODSET,
        "    u = find_encircled_vertex(g, w, k)\n",
        "    u = None\n",
        ("tests/test_goodset.py",),
    ),
    Mutant(
        "good-set-condition-b-high-degree-cover",
        GOODSET,
        "        if x not in w_set and w_set.isdisjoint(g.adj[x]):\n",
        "        if False:\n",
        ("tests/test_goodset.py",),
    ),
    # find_good_set checks every set it stores and returns
    Mutant(
        "case-iii-set-unchecked",
        GOODSET,
        "            members, k = tuple(v for v in first if v != x), m - 1\n",
        "            g._good_set = GoodSet(tuple(v for v in first if v != x))\n            return g._good_set\n",
        ("tests/test_goodset.py::test_case_iii_set_is_checked",),
    ),
    # case (iii) only when M(G) has exactly m(G) members: a tree one leaf from a pivot has m(G) + 1
    Mutant(
        "near-pivot-case-iii",
        GOODSET,
        "        if len(profile.dense) == m:  # case (iii)\n",
        "        if len(profile.dense) <= m + 1:  # case (iii)\n",
        ("tests/test_trees.py::test_planted_pivoted_trees_and_near_misses",),
    ),
    # a DIMACS file has one problem line, and text-mode batch records are apart by one blank line
    Mutant(
        "dimacs-second-problem-line-accepted",
        GRAPH,
        "            if n is not None:\n                raise ParseError(\"duplicate problem line\", lineno)\n",
        "",
        ("tests/test_graph.py::test_dimacs_edge_count_must_match_the_edge_lines",),
    ),
    Mutant(
        "batch-text-drops-the-blank-line",
        CLI,
        "            if not args.json and index:\n                _print()\n",
        "",
        ("tests/test_cli.py::test_batch_mode_text_separates_two_records_by_one_blank_line",),
    ),
    # the CLI's exit codes
    Mutant(
        "internal-error-exits-1",
        CLI,
        '        return EXIT_INTERNAL, "internal error"\n',
        '        return EXIT_INVALID, "internal error"\n',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "refusal-exits-2",
        CLI,
        '        return EXIT_REFUSED, "refused"\n',
        '        return EXIT_INPUT, "refused"\n',
        ("tests/test_cli.py::test_color_refuses_low_girth_without_oracle",),
    ),
    Mutant(
        "os-error-on-a-path-not-reported",
        CLI,
        "_REPORTED_ERRORS = (ValueError, OracleLimitError, InvariantViolation, OSError)\n",
        "_REPORTED_ERRORS = (\n"
        "    ValueError, OracleLimitError, InvariantViolation, FileNotFoundError, IsADirectoryError, PermissionError\n"
        ")\n",
        ("tests/test_cli.py::test_an_os_error_on_a_path_is_an_input_error",),
    ),
    Mutant(
        "closed-pipe-exits-2",
        CLI,
        "    except BrokenPipeError:\n        # the reader is gone",
        "    except ZeroDivisionError:\n        # the reader is gone",
        ("tests/test_cli.py::test_closed_pipe_exits_leave_no_open_descriptor",),
    ),
    Mutant(
        "closed-pipe-in-batch-reported-as-input-error",
        CLI,
        "            except BrokenPipeError:\n                raise\n",
        "",
        ("tests/test_cli.py::test_a_closed_pipe_in_batch_mode_exits_141",),
    ),
    # the CLI's input limits
    Mutant(
        "input-byte-limit-refuses-a-file-at-the-limit",
        CLI,
        "        if size > MAX_INPUT_BYTES:\n",
        "        if size >= MAX_INPUT_BYTES:\n",
        ("tests/test_cli.py::test_input_files_are_capped_in_bytes",),
    ),
    Mutant(
        "oracle-limit-cap-off-by-one",
        CLI,
        "    if value > MAX_ORACLE_LIMIT:\n",
        "    if value > MAX_ORACLE_LIMIT + 1:\n",
        ("tests/test_cli.py::test_oracle_limits_above_the_recursion_cap_are_refused_naming_the_option",),
    ),
]


def copy_env(work: Path) -> dict[str, str]:
    """The environment of every subprocess on the copy in ``work``: it imports the copy, writes no bytecode."""
    return {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def run_tests(work: Path, tests: tuple[str, ...], timeout: float | None) -> tuple[int | None, float]:
    """pytest's exit code on ``tests`` in ``work`` (None past ``timeout``) and the seconds it took."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    start = time.perf_counter()
    try:
        code = subprocess.run(argv, cwd=work, env=copy_env(work), capture_output=True, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def main() -> int:
    errors = []
    for m in MUTANTS:
        found = (ROOT / m.path).read_text().count(m.snippet)
        if found != 1:
            errors.append(f"{m.name}: its snippet occurs {found} times in {m.path}, not once")
    if errors:
        print("\n".join(f"error: {e}" for e in errors))
        return 2

    with tempfile.TemporaryDirectory(prefix="bchrom-mutants-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "scripts", work / "scripts", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        imported = subprocess.run(
            [sys.executable, "-c", "import bchrom; print(bchrom.__file__)"],
            cwd=work, env=copy_env(work), capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(imported).is_relative_to(work):
            print(f"error: the tests would import bchrom from {imported}, not from the mutated copy")
            return 2

        limits: dict[tuple[str, ...], float] = {}
        for tests in dict.fromkeys(m.tests for m in MUTANTS):
            code, seconds = run_tests(work, tests, None)
            if code != 0:
                print(f"error: unmutated, {' '.join(tests)} exits {code}, not 0")
                return 2
            limits[tests] = max(TIME_FLOOR_S, TIME_FACTOR * seconds)

        killed = counted = 0
        for m in MUTANTS:
            target = work / m.path
            original = target.read_text()
            target.write_text(original.replace(m.snippet, m.replacement))
            try:
                code, seconds = run_tests(work, m.tests, limits[m.tests])
            finally:
                target.write_text(original)
            if code == 1 or code is None:
                outcome = "killed" if code == 1 else "killed (time limit)"
                if m.equivalent:
                    errors.append(f"{m.name} is listed as equivalent, yet its tests fail: {m.equivalent}")
                else:
                    killed += 1
            elif code == 0:
                outcome = "survived (equivalent)" if m.equivalent else "SURVIVED"
            else:
                outcome = f"error (pytest exit {code})"
                errors.append(f"{m.name}: pytest exits {code}, neither a test failure nor a pass")
            counted += not m.equivalent
            print(f"{outcome:22} {m.name} ({seconds:.1f} s)", flush=True)

    print(f"killed {killed}/{counted}")
    if errors:
        print("\n".join(f"error: {e}" for e in errors))
        return 2
    return 0 if killed == counted else 1


if __name__ == "__main__":
    sys.exit(main())
