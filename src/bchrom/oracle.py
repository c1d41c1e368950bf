"""Ground truth at desk scale: validity checking and exact b-chromatic search.

The exact search is exponential (the problem is NP-hard in general), so it
refuses graphs above a configurable vertex cap instead of timing out
nondeterministically.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations

from .errors import InvariantViolation, OracleLimitError
from .goodset import density_profile, find_encircled_vertex
from .graph import Graph

DEFAULT_ORACLE_LIMIT = 14


@dataclass(frozen=True)
class Violation:
    kind: str  # monochromatic-edge | class-without-b-vertex | color-gap
    witness: tuple[int, int] | int


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of checking a coloring against the b-coloring definition.

    ``basis`` is present exactly when the coloring is proper, uses colors
    1..k exactly, and every class contains a b-vertex.
    """

    proper: bool
    colors_used: int
    basis: dict[int, int] | None
    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def check_b_coloring(g: Graph, coloring: Mapping[int, int], k: int) -> ValidityReport:
    """Validate a total coloring as a b-coloring with exactly k colors.

    One pass over the edges finds the monochromatic ones, and one sweep over
    the vertices in id order finds each class's b-vertex, so the check costs
    O(n + m).  The b-vertex reported for a class is its lowest-id one.
    """
    if k < 1:
        raise ValueError("k must be positive")
    try:
        colors = [coloring[u] for u in range(g.n)]
    except KeyError:
        missing = next(u for u in range(g.n) if u not in coloring)
        raise ValueError(f"coloring is partial: vertex {missing} has no color") from None
    violations = [
        Violation("monochromatic-edge", (u, v)) for u, v in g.edges() if colors[u] == colors[v]
    ]
    proper = not violations
    expected = set(range(1, k + 1))
    used = set(colors)
    for c in sorted(used - expected):
        violations.append(Violation("color-gap", c))
    for c in sorted(expected - used):
        violations.append(Violation("color-gap", c))
    # a vertex whose degree is below k - 1 cannot see the k - 1 other colors
    basis: dict[int, int] = {}
    for u, nbrs in enumerate(g.adj):
        c = colors[u]
        if c in basis or len(nbrs) < k - 1 or not 1 <= c <= k:
            continue
        seen = {colors[v] for v in nbrs}
        seen.add(c)
        if expected <= seen:
            basis[c] = u
            if len(basis) == k:
                break
    for c in sorted(used.intersection(expected).difference(basis)):
        violations.append(Violation("class-without-b-vertex", c))
    return ValidityReport(
        proper=proper,
        colors_used=len(used),
        basis=None if violations else dict(sorted(basis.items())),
        violations=tuple(violations),
    )


def _extend_basis(g: Graph, basis: tuple[int, ...], k: int) -> dict[int, int] | None:
    """Backtracking extension where basis[i] must become a b-vertex of color i+1."""
    color = {v: i + 1 for i, v in enumerate(basis)}
    full = set(range(1, k + 1))
    missing: list[set[int]] = []
    free: list[int] = []
    for i, b in enumerate(basis):
        seen = {color[u] for u in g.adj[b] if u in color}
        missing.append(full - {i + 1} - seen)
        free.append(sum(1 for u in g.adj[b] if u not in color))
        if len(missing[i]) > free[i]:
            return None
    index = {v: i for i, v in enumerate(basis)}
    basis_nbrs = {v: [index[u] for u in g.adj[v] if u in index] for v in range(g.n) if v not in color}
    rest = sorted(basis_nbrs, key=lambda v: (-len(basis_nbrs[v]), -len(g.adj[v]), v))

    def backtrack(pos: int) -> bool:
        if pos == len(rest):
            return all(not need for need in missing)
        v = rest[pos]
        blocked = {color[u] for u in g.adj[v] if u in color}
        for c in range(1, k + 1):
            if c in blocked:
                continue
            color[v] = c
            feasible = True
            dropped = []
            for i in basis_nbrs[v]:
                free[i] -= 1
                if c in missing[i]:
                    missing[i].discard(c)
                    dropped.append(i)
                if len(missing[i]) > free[i]:
                    feasible = False
            if feasible and backtrack(pos + 1):
                return True
            for i in basis_nbrs[v]:
                free[i] += 1
            for i in dropped:
                missing[i].add(c)
            del color[v]
        return False

    if backtrack(0):
        return dict(color)
    return None


def find_b_coloring_exact(g: Graph, k: int, *, limit: int = DEFAULT_ORACLE_LIMIT) -> dict[int, int] | None:
    """Exhaustive search for a b-coloring with exactly k colors.

    Iterates over candidate bases (k vertices of degree >= k - 1; the i-th
    smallest is pinned to color i + 1, which is lossless up to renaming
    colors) and backtracks over the remaining vertices with counting-based
    forward checking.

    A candidate basis that encircles an outside vertex, with k - 1 as the
    witness degree, is skipped at every k.  It can never be a basis: if u
    is outside a basis W and encircled by it, the b-vertex of u's color is
    not adjacent to u, so it shares with u a neighbor w in W of degree
    k - 1.  As a b-vertex, w needs k - 1 distinct colors on its k - 1
    neighbors, yet two of them, u and that b-vertex, carry u's color.  The
    prune therefore never changes the returned coloring.
    """
    if g.n > limit:
        raise OracleLimitError(f"graph has {g.n} vertices; the exact search is capped at {limit}")
    if k < 1:
        raise ValueError("k must be positive")
    eligible = [v for v in range(g.n) if len(g.adj[v]) >= k - 1]
    if len(eligible) < k:
        return None
    for basis in combinations(eligible, k):
        if find_encircled_vertex(g, basis, k) is not None:
            continue
        result = _extend_basis(g, basis, k)
        if result is not None:
            return result
    return None


def exact_b_chromatic(g: Graph, *, limit: int = DEFAULT_ORACLE_LIMIT) -> tuple[int, dict[int, int]]:
    """Largest k admitting a b-coloring, found by scanning down from m(G),
    with the witness the search found at k: the search is deterministic, so
    it equals what ``find_b_coloring_exact(g, k)`` returns."""
    if g.n == 0:
        raise ValueError("the b-chromatic number is undefined for the empty graph")
    profile = density_profile(g)
    for k in range(profile.m, 0, -1):
        witness = find_b_coloring_exact(g, k, limit=limit)
        if witness is not None:
            return k, witness
    raise InvariantViolation("no b-coloring at any k; impossible for a nonempty graph")
