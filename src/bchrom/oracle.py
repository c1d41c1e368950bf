"""Ground truth at desk scale: validity checking and exact b-chromatic search.

The exact search is exponential (the problem is NP-hard in general), so it
refuses graphs above a configurable vertex cap instead of timing out
nondeterministically.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

from .errors import InvariantViolation, OracleLimitError
from .goodset import density_profile
from .goodset import find_encircled_vertex  # noqa: F401  (unused: bench/tracing.py wraps this binding)
from .graph import Graph

DEFAULT_ORACLE_LIMIT = 14

#: Largest oracle limit accepted.  The backtracking search recurses once per
#: vertex outside the basis, and Python allows 1000 frames by default; 500
#: leaves room for the frames of its callers (the CLI, a test runner).
MAX_ORACLE_LIMIT = 500


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


def check_b_coloring(g: Graph, coloring: Sequence[int], k: int) -> ValidityReport:
    """Validate a coloring, n colors indexed by vertex id, as a b-coloring
    with exactly k colors.  Every entry is a color: one outside 1..k,
    0 among them, is a color-gap.

    One pass over the edges finds the monochromatic ones, and one sweep over
    the vertices in id order finds each class's b-vertex, so the check costs
    O(n + m).  The b-vertex reported for a class is its lowest-id one.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if len(coloring) != g.n:
        raise ValueError(f"coloring has {len(coloring)} entries for {g.n} vertices")
    violations: list[Violation] = []
    for u, nbrs in enumerate(g.adj):  # each edge once, as (u, v) with u < v, in sorted order
        c = coloring[u]
        for v in nbrs:
            if coloring[v] == c and u < v:
                violations.append(Violation("monochromatic-edge", (u, v)))
    proper = not violations
    expected = set(range(1, k + 1))
    used = set(coloring)
    for c in sorted(used - expected):
        violations.append(Violation("color-gap", c))
    for c in sorted(expected - used):
        violations.append(Violation("color-gap", c))
    basis: dict[int, int] = {}
    others = k - 1
    for u, nbrs in enumerate(g.adj):
        if len(nbrs) < others:  # too few neighbors to see the k - 1 other colors
            continue
        c = coloring[u]
        if c in basis or not 1 <= c <= k:
            continue
        seen = {coloring[v] for v in nbrs}
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


def find_b_coloring_exact(g: Graph, k: int, *, limit: int = DEFAULT_ORACLE_LIMIT) -> list[int] | None:
    """Exhaustive search for a b-coloring with exactly k colors, returned as
    the color of each vertex id.

    Iterates over candidate bases (k vertices of degree >= k - 1, in
    ``combinations`` order over those vertices ranked by (-degree, id), the
    rank ``find_good_set`` takes W0 in; the i-th member of a basis in that
    rank is pinned to color i + 1, which is lossless up to renaming colors)
    and backtracks over the remaining vertices, sorted by (-basis
    neighbors, -degree, id), trying colors 1..k, with a counting forward
    check: a basis vertex b can afford deg(b) - (k - 1) neighbors whose
    color it already sees, and a branch that needs one more is cut.  Every
    leaf is then a b-coloring, as each basis vertex sees at least k - 1
    distinct colors around it.  The witness is the first b-coloring in this
    order.

    Every basis is tried, so the order of the bases decides which witness
    is found, never whether one is.  Argument that it is the construction's
    basis where there is one: at k = m(G) the candidates are the dense
    vertices, so on a graph of girth >= 9 whose W0, its first m(G) dense
    vertices by (-degree, id), is good, the first basis tried is W0.  The
    construction builds an m(G)-b-coloring with basis W0, so W0 is not
    starved, renaming its colors pins W0's members as above, and the search
    exhausts W0 before any later basis: the witness has basis W0.

    One test skips a candidate basis W at every k: starvation, a property
    that no basis of a b-coloring has, so it does not change the witness.
    W is skipped when, for some members b and c that are not adjacent,
    every neighbor of b outside W is adjacent to c.  As a b-vertex, b needs
    a neighbor of c's color.  That neighbor is not in W, whose other
    members carry other colors, and not adjacent to c, as the coloring is
    proper; so b needs a neighbor outside W and N(c).  Any other basis that
    holds no b-coloring, one that encircles an outside vertex among them,
    is refuted by exhaustion.

    The search runs on integer bitmasks, bit v standing for vertex v; each
    call builds the neighbor mask N(v) of every vertex once.  Members b and
    c starve b exactly when W holds c and all of N(b) - N(c), so each call
    also builds, for every candidate member b and every c not adjacent to
    it, the mask of c and N(b) - N(c), keeping those of at most k - 1
    vertices, as no larger one fits beside b in a basis; W starves b when
    it holds one of b's masks.  A color class is kept as the mask of its
    members' neighbors, so one bit test tells whether a color is blocked
    at a vertex or already seen by a basis vertex, and the basis vertices
    that can afford no more repeats form one mask.  The bases, the vertex
    order and the color order are those of the set-based search the tests
    keep as a reference, and every cut in either search removes only
    branches that hold no b-coloring, so both return the same witness.
    """
    if limit > MAX_ORACLE_LIMIT:
        raise ValueError(f"oracle limit {limit} is above the largest allowed, {MAX_ORACLE_LIMIT}")
    if g.n > limit:
        raise OracleLimitError(f"graph has {g.n} vertices; the exact search is capped at {limit}")
    if k < 1:
        raise ValueError("k must be positive")
    n, adj = g.n, g.adj
    # the sort key (-degree, id) as one integer: the bases' rank, and, less n * n
    # per basis neighbor, the extension order (-basis neighbors, -degree, id)
    rank = [(n - 1 - len(adj[v])) * n + v for v in range(n)]
    eligible = sorted([v for v in range(n) if len(adj[v]) >= k - 1], key=rank.__getitem__)
    if len(eligible) < k:
        return None
    nbr = [sum(1 << u for u in nbrs) for nbrs in adj]
    witnesses = sum(1 << v for v in range(n) if len(adj[v]) == k - 1)
    colors = range(k)
    near = [0] * k  # per color (0-based): the neighbors of its class
    slack = [len(nbrs) - k + 1 for nbrs in adj]  # repeats a basis vertex can still afford
    # per candidate member b, the mask of {c} and N(b) - N(c) for each stranger c of b
    # (neither b nor adjacent to it) when that mask fits beside b in a basis
    starving: list[list[int]] = [[] for _ in range(n)]
    for b in eligible:
        for c in eligible:
            need = nbr[b] & ~nbr[c]
            if c != b and not nbr[b] >> c & 1 and need.bit_count() < k - 1:
                starving[b].append(need | 1 << c)

    def starved(basis: tuple[int, ...], w_mask: int) -> bool:  # some member b misses a stranger's color
        outside = ~w_mask
        for b in basis:
            for mask in starving[b]:
                if not mask & outside:
                    return True
        return False

    # colors order[pos:]; tight: the basis vertices that can afford no repeat.
    # w_mask, order and chosen (each vertex's color) are those of the basis being extended, below.
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
            chosen[v] = c + 1
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
    chosen = [0] * n  # the color of each vertex: the basis's preset, the others' by extend
    try:
        for basis, bits in zip(combinations(eligible, k), combinations([1 << v for v in eligible], k)):
            w_mask = sum(bits)
            if starved(basis, w_mask):
                continue
            keys = sorted([rank[v] - (nbr[v] & w_mask).bit_count() * square for v in range(n) if not w_mask >> v & 1])
            order = [key % n for key in keys]
            near[:] = [nbr[b] for b in basis]
            for c, b in enumerate(basis, 1):
                chosen[b] = c
            if extend(0, w_mask & witnesses):  # it colored every vertex outside the basis
                return chosen
        return None
    finally:
        del extend  # it refers to itself through its closure: a reference cycle only the collector frees


def exact_b_chromatic(g: Graph, *, limit: int = DEFAULT_ORACLE_LIMIT) -> tuple[int, list[int]]:
    """Largest k admitting a b-coloring, found by scanning down from m(G),
    with the witness the search found at k: the search is deterministic, so
    it equals what ``find_b_coloring_exact(g, k)`` returns.  m(G) is the one
    ``density_profile`` stored on ``g``, or computes and stores now."""
    if g.n == 0:
        raise ValueError("the b-chromatic number is undefined for the empty graph")
    for k in range(density_profile(g).m, 0, -1):
        witness = find_b_coloring_exact(g, k, limit=limit)
        if witness is not None:
            return k, witness
    raise InvariantViolation("no b-coloring at any k; impossible for a nonempty graph")
