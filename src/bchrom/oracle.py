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
from .goodset import density_profile
from .goodset import find_encircled_vertex  # noqa: F401  (unused: bench/tracing.py wraps this binding)
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


def find_b_coloring_exact(g: Graph, k: int, *, limit: int = DEFAULT_ORACLE_LIMIT) -> dict[int, int] | None:
    """Exhaustive search for a b-coloring with exactly k colors.

    Iterates over candidate bases (k vertices of degree >= k - 1, in
    ``combinations`` order; the i-th smallest is pinned to color i + 1,
    which is lossless up to renaming colors) and backtracks over the
    remaining vertices, sorted by (-basis neighbors, -degree, id), trying
    colors 1..k, with a counting forward check: a basis vertex b can afford
    deg(b) - (k - 1) neighbors whose color it already sees, and a branch
    that needs one more is cut.  Every leaf is then a b-coloring, as each
    basis vertex sees at least k - 1 distinct colors around it.  The
    witness is the first b-coloring in this order.

    A candidate basis that encircles an outside vertex, with k - 1 as the
    witness degree, is skipped at every k.  It can never be a basis: if u
    is outside a basis W and encircled by it, the b-vertex of u's color is
    not adjacent to u, so it shares with u a neighbor w in W of degree
    k - 1.  As a b-vertex, w needs k - 1 distinct colors on its k - 1
    neighbors, yet two of them, u and that b-vertex, carry u's color.

    The search runs on integer bitmasks, bit v standing for vertex v; each
    call builds the neighbor mask N(v) of every vertex once.  W encircles
    an outside u exactly when W lies inside N(u) together with N(w) for the
    members w of N(u) of degree k - 1.  A color class is kept as the mask
    of its members' neighbors, so one bit test tells whether a color is
    blocked at a vertex or already seen by a basis vertex, and the basis
    vertices that can afford no more repeats form one mask.  The bases, the
    vertex order, the color order and the prune are those of the set-based
    search the tests keep as a reference, and every cut removes only
    branches that hold no b-coloring, so both return the same witness.
    """
    if g.n > limit:
        raise OracleLimitError(f"graph has {g.n} vertices; the exact search is capped at {limit}")
    if k < 1:
        raise ValueError("k must be positive")
    n, adj = g.n, g.adj
    eligible = [v for v in range(n) if len(adj[v]) >= k - 1]
    if len(eligible) < k:
        return None
    nbr = [sum(1 << u for u in nbrs) for nbrs in adj]
    witnesses = sum(1 << v for v in range(n) if len(adj[v]) == k - 1)
    witness_nbrs = [[w for w in nbrs if witnesses >> w & 1] for nbrs in adj]
    # the sort key (-basis neighbors, -degree, id) as one integer, less n * n per basis neighbor
    rank = [(n - 1 - len(adj[v])) * n + v for v in range(n)]
    colors = range(k)
    near = [0] * k  # per color (0-based): the neighbors of its class
    slack = [len(nbrs) - k + 1 for nbrs in adj]  # repeats a basis vertex can still afford

    def encircles(w_mask: int) -> bool:  # some outside u, witness degree k - 1
        for u in range(n):
            if w_mask >> u & 1:
                continue
            cover = nbr[u]
            for w in witness_nbrs[u]:
                if w_mask >> w & 1:
                    cover |= nbr[w]
            if not w_mask & ~cover:
                return True
        return False

    # colors order[pos:]; tight: the basis vertices that can afford no repeat.
    # w_mask, order and chosen are those of the basis being extended, below.
    def extend(pos: int, tight: int) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        bit = 1 << v
        around = nbr[v]
        in_basis = around & w_mask
        for c in colors:
            seen = near[c]
            if seen & bit:
                continue
            repeats = in_basis & seen
            if repeats & tight:
                continue
            now_tight = tight
            left = repeats
            while left:
                low = left & -left
                b = low.bit_length() - 1
                slack[b] -= 1
                if not slack[b]:
                    now_tight |= low
                left ^= low
            near[c] = seen | around
            chosen[pos] = c + 1
            if extend(pos + 1, now_tight):
                return True
            near[c] = seen
            left = repeats
            while left:
                low = left & -left
                slack[low.bit_length() - 1] += 1
                left ^= low
        return False

    square = n * n
    for basis, bits in zip(combinations(eligible, k), combinations([1 << v for v in eligible], k)):
        w_mask = sum(bits)
        if encircles(w_mask):
            continue
        keys = sorted([rank[v] - (nbr[v] & w_mask).bit_count() * square for v in range(n) if not w_mask >> v & 1])
        order = [key % n for key in keys]
        chosen = [0] * len(order)
        near[:] = [nbr[b] for b in basis]
        if extend(0, w_mask & witnesses):
            coloring = dict(zip(basis, range(1, k + 1)))
            coloring.update(zip(order, chosen))
            return coloring
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
