"""Independent checks of the program's answers, written from the definitions.

Nothing here imports bchrom: the checker must not share code with the
layers it judges (the program's own check_b_coloring is one of them).
"""

from __future__ import annotations

import json
import re


class Adjacency:
    """Neighbour sets keyed by file label."""

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self.edges = edges
        self.nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            self.nbrs[u].add(v)
            self.nbrs[v].add(u)

    def degree(self, u: int) -> int:
        return len(self.nbrs[u])


def density(adj: Adjacency) -> tuple[int, set[int]]:
    """m(G), the largest k with at least k vertices of degree >= k - 1, and
    the dense vertices, those of degree >= m(G) - 1."""
    degs = sorted((adj.degree(u) for u in range(adj.n)), reverse=True)
    m = max(k for k in range(1, adj.n + 1) if degs[k - 1] >= k - 1)
    return m, {u for u in range(adj.n) if adj.degree(u) >= m - 1}


def no_good_set_witness(adj: Adjacency) -> int | None:
    """For girth >= 8 inputs: a vertex encircled by the dense set when that set
    has size exactly m(G) (then no good set exists), otherwise None.

    u is encircled by W when every v in W is adjacent to u or shares with u a
    neighbour w in W of degree exactly m(G) - 1.  Such a u is always adjacent
    to some member of W, so only neighbours of W are candidates.
    """
    m, dense = density(adj)
    if len(dense) != m:
        return None
    candidates = sorted({u for v in dense for u in adj.nbrs[v]} - dense)
    for u in candidates:
        witnesses = {w for w in adj.nbrs[u] & dense if adj.degree(w) == m - 1}
        if all(v in adj.nbrs[u] or adj.nbrs[v] & witnesses for v in dense):
            return u
    return None


_HEADER = re.compile(r"#\s*k=(\d+)\s+basis=(\S*)\s*$")


def parse_coloring(text: str) -> tuple[int, dict[int, int], dict[int, int]]:
    """(k, label -> color, color -> claimed b-vertex label) from a coloring file."""
    lines = text.splitlines()
    header = _HEADER.match(lines[0]) if lines else None
    if header is None:
        raise ValueError("coloring file lacks its '# k=... basis=...' header")
    k = int(header.group(1))
    basis = {}
    for item in filter(None, header.group(2).split(",")):
        label, color = item.split(":")
        basis[int(color)] = int(label)
    coloring: dict[int, int] = {}
    for line in lines[1:]:
        label, color = line.split()
        if int(label) in coloring:
            raise ValueError(f"vertex {label} colored twice")
        coloring[int(label)] = int(color)
    return k, coloring, basis


def b_vertex(adj: Adjacency, coloring: dict[int, int], u: int, k: int) -> bool:
    """u sees every color of 1..k other than its own."""
    if adj.degree(u) < k - 1:
        return False
    own = coloring[u]
    return len({c for c in (coloring[v] for v in adj.nbrs[u]) if c != own and 1 <= c <= k}) == k - 1


def coloring_problems(adj: Adjacency, coloring: dict[int, int], k: int) -> list[str]:
    """Every way the coloring fails to be a b-coloring with exactly k colors."""
    problems = []
    if set(coloring) != set(range(adj.n)):
        return ["coloring does not cover exactly the graph's vertices"]
    mono = [(u, v) for u, v in adj.edges if coloring[u] == coloring[v]]
    if mono:
        problems.append(f"{len(mono)} monochromatic edges, e.g. {mono[0]}")
    if set(coloring.values()) != set(range(1, k + 1)):
        problems.append(f"colors used are not exactly 1..{k}")
    with_b = {coloring[u] for u in range(adj.n) if b_vertex(adj, coloring, u, k)}
    lacking = sorted(set(range(1, k + 1)) - with_b)
    if lacking:
        problems.append(f"classes without a b-vertex: {lacking[:5]}")
    return problems


def check_color_output(adj: Adjacency, text: str, allowed_k: set[int]) -> str | None:
    """Check one `color` output; returns the problem, or None."""
    try:
        k, coloring, basis = parse_coloring(text)
    except ValueError as exc:
        return f"unreadable coloring: {exc}"
    if k not in allowed_k:
        return f"k={k} is not in {sorted(allowed_k)}"
    problems = coloring_problems(adj, coloring, k)
    if sorted(basis) != list(range(1, k + 1)):
        problems.append("header basis does not name one vertex per color")
    elif any(coloring.get(v) != c or not b_vertex(adj, coloring, v, k) for c, v in basis.items()):
        problems.append("header basis names a vertex that is not a b-vertex of its color")
    return "; ".join(problems) or None


def check_analyze_output(adj: Adjacency, text: str, expect: dict) -> str | None:
    """Check one `analyze --chi-b --json` record against re-derived facts and
    the chi_b of the independently checked witness made in set-up."""
    try:
        record = json.loads(text)
    except ValueError:
        return "output is not JSON"
    m, dense = density(adj)
    wrong = []
    for key, value in (("n", adj.n), ("edges", len(adj.edges)), ("m", m), ("dense_count", len(dense))):
        if record.get(key) != value:
            wrong.append(f"{key}={record.get(key)!r}, expected {value}")
    chi_b = record.get("chi_b")
    if not isinstance(chi_b, int) or not 1 <= chi_b <= m:
        wrong.append(f"chi_b={chi_b!r} is not in 1..m={m}")
    elif chi_b != expect["chi_b"]:
        wrong.append(f"chi_b={chi_b} but the checked witness has k={expect['chi_b']}")
    if expect["nogood"] and (record.get("has_good_set") is not False or chi_b != m - 1):
        wrong.append("a tree without a good set must report has_good_set false and chi_b = m - 1")
    return "; ".join(wrong) or None


def check_verify_output(adj: Adjacency, coloring_text: str, text: str, code: int, expect_valid: bool) -> str | None:
    """Check one `verify --json` answer: verdict, exit code, and evidence."""
    if code != (0 if expect_valid else 1):
        return f"exit code {code}, expected {0 if expect_valid else 1}"
    try:
        report = json.loads(text)
    except ValueError:
        return "output is not JSON"
    k, coloring, _ = parse_coloring(coloring_text)
    if report.get("valid") is not expect_valid or report.get("k") != k:
        return f"valid={report.get('valid')!r} k={report.get('k')!r}, expected valid={expect_valid} k={k}"
    if expect_valid:
        basis = report.get("basis") or {}
        if sorted(int(c) for c in basis) != list(range(1, k + 1)):
            return "reported basis does not name one vertex per color"
        if any(coloring[v] != int(c) or not b_vertex(adj, coloring, v, k) for c, v in basis.items()):
            return "reported basis names a vertex that is not a b-vertex of its color"
        return None
    violations = report.get("violations") or []
    if not violations:
        return "an invalid coloring was reported without violations"
    for violation in violations:
        if violation.get("kind") == "monochromatic-edge":
            u, v = violation["witness"]
            if v not in adj.nbrs[u] or coloring[u] != coloring[v]:
                return f"reported monochromatic edge {u}-{v} is not one"
    return None
