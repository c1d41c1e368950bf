"""The degree invariant m(G), and good sets: encirclement tests,
verification, existence, and selection.

m(G) is the largest k such that at least k vertices have degree at least
k - 1; it upper-bounds the b-chromatic number.  A vertex is dense when its
degree is at least m(G) - 1, and M(G) is the set of dense vertices.

A set W of k vertices of degree >= k - 1 is *good* for k when (a) it
encircles no outside vertex, with witness degree k - 1, and (b) every
outside vertex of degree >= k has a neighbor in W.  At k = m(G) these are
m(G) dense vertices.  For graphs of girth at least 8 (forests included), no
good set for m(G) exists exactly when M(G) itself has size m(G) and
encircles some vertex.  ``find_good_set`` is constructive on both sides: the
first m(G) dense vertices by (-degree, id), or one swap from them, are good
for m(G); without such a set, M(G) less one vertex is good for m(G) - 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Set
from dataclasses import dataclass
from itertools import compress, repeat
from operator import ge

from .errors import InvariantViolation
from .graph import Graph, ensure_min_girth


@dataclass(frozen=True)
class DensityProfile:
    m: int
    dense: frozenset[int]


def density_profile(g: Graph) -> DensityProfile:
    """Compute m(G) and M(G); rejects the empty graph.  The first call
    computes them and stores them on ``g``; every later call returns them.

    A graph with no edges still has m = 1 (every vertex has degree 0 >= 0).
    Maximality guarantees fewer than m + 1 vertices have degree >= m.
    """
    if g._profile is not None:
        return g._profile
    n = g.n
    if n == 0:
        raise ValueError("m(G) is undefined for the empty graph")
    degs = sorted(g.degrees(), reverse=True)
    # k = 1 qualifies, and once degs[k - 1] >= k - 1 fails it fails for every larger k
    m = 1
    while m < n and degs[m] >= m:
        m += 1
    dense = frozenset(compress(range(n), map(ge, map(len, g.adj), repeat(m - 1))))
    g._profile = DensityProfile(m=m, dense=dense)
    return g._profile


@dataclass(frozen=True)
class GoodSet:
    """An ordered good set; members are strictly increasing by vertex id.

    The position of a vertex fixes its anchor color: members[i] is the
    designated b-vertex for color i + 1 in the constructive coloring.
    """

    members: tuple[int, ...]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.members, self.members[1:])):
            raise ValueError("good-set members must be strictly increasing")


@dataclass(frozen=True)
class GoodSetViolation:
    """Why a candidate set is not good: one of the four checkable reasons."""

    kind: str  # wrong-size | not-dense | encircles | uncovered-high-degree
    witness: int | None = None


def encirclement_cover(g: Graph, w_set: Set[int], u: int, m: int) -> set[int]:
    """N(u) together with N(w) for every w in W and N(u) of degree m - 1.

    W encircles u exactly when W is a subset of this set; a member of W
    outside it is adjacent to u through no witness.
    """
    adj = g.adj
    cover = set(adj[u])
    for w in adj[u]:
        if w in w_set and len(adj[w]) == m - 1:
            cover.update(adj[w])
    return cover


def find_encircled_vertex(g: Graph, members: Iterable[int], m: int) -> int | None:
    """Smallest vertex outside W that W encircles with witness degree m - 1, or None.

    m is m(G) for the good-set check.  The exact search does not call this
    and has no encirclement test of its own: ``find_b_coloring_exact``
    refutes a basis that encircles a vertex by exhaustion.  Only vertices
    in the encirclement cover of the first member can possibly be
    encircled, which keeps the scan local on sparse graphs.
    """
    w_sorted = sorted(set(members))
    if not w_sorted:
        raise ValueError("candidate set must be nonempty")
    v0 = w_sorted[0]
    w_set = set(w_sorted)
    candidates = encirclement_cover(g, w_set, v0, m) - w_set
    for u in sorted(candidates):
        if w_set <= encirclement_cover(g, w_set, u, m):
            return u
    return None


def check_good_set(g: Graph, members: Iterable[int], k: int) -> GoodSetViolation | None:
    """None if the set is good for k colors, otherwise the first violated condition.

    A ValueError refuses k < 1, and a member outside the vertex ids 0..n-1,
    before any adjacency list is read.
    """
    if k < 1:
        raise ValueError(f"a good set needs k >= 1 colors, not k = {k}")
    w = tuple(sorted(set(members)))
    if w and (w[0] < 0 or w[-1] >= g.n):
        raise ValueError(f"good-set member {w[0] if w[0] < 0 else w[-1]} is no vertex of this {g.n}-vertex graph")
    if len(w) != k:
        return GoodSetViolation("wrong-size")
    for v in w:
        if len(g.adj[v]) < k - 1:
            return GoodSetViolation("not-dense", v)
    u = find_encircled_vertex(g, w, k)
    if u is not None:
        return GoodSetViolation("encircles", u)
    w_set = set(w)
    for x in compress(range(g.n), map(ge, map(len, g.adj), repeat(k))):
        if x not in w_set and w_set.isdisjoint(g.adj[x]):
            return GoodSetViolation("uncovered-high-degree", x)
    return None


def find_good_set(g: Graph) -> GoodSet:
    """Return a good set for m(G) or, when none exists, for m(G) - 1 (girth >= 8 required).

    The set's size is its color count: m = m(G) exactly when a good set for
    m exists.  Rule: W0 is the first m dense vertices by (-degree, id).
    Return W0 if it is good.  Otherwise W0 encircles u; if |M| = m (M =
    M(G)), return M - x for the lowest-id member x not adjacent to u; else
    return the set one swap away.  Every returned set is checked in full,
    whatever ``density_profile`` says: W0 at m, then the swapped set at m,
    or M - x at m - 1.  A failed check raises InvariantViolation, naming u
    when it is not W0's.  The checked set is stored on ``g``, and every
    later call returns it; the construction does not check a set equal to
    it again.

    Argument.  The vertices H of degree >= m number at most m and sort
    first, so W0 holds H and (b) holds: W0 can fail only by encircling.
    Girth >= 8 makes every ball of radius 3 induce a tree.  Let W, m dense
    vertices holding H, encircle u.  u is not in H, so deg u <= m - 1 and
    some member is not adjacent to u; the lowest-id one, c0, has exactly one
    neighbor p0 in N(u), a member of degree m - 1, so p0 is not in H.  And
    |W & N(u)| >= 2, or p0's neighbors would be u and the m - 1 others.
    - (i) Some z in M - W is not u (take the lowest id): W - p0 + z is good.
      (b) holds, as p0 is not in H.  A vertex the new set encircles is
      within distance 2 of c0 and of some a in W & N(u) - p0, so on the
      path a-u-p0-c0 of the tree around u it is u or p0.  u is not: c0's
      only neighbor in N(u) left the set.  p0 is not: a is not adjacent to
      p0, and their only common neighbor, u, is outside the set.
    - (ii) Otherwise M - W = {u}.  With x the lowest-id vertex of
      W & N(u) - p0, W - x + u is good.  (b) holds, as x's neighbor u joins.
      A vertex y the new set encircles is within distance 2 of u and of c0,
      so y is in N(p0) and outside the set.  The members within distance 2
      of y are then only u, p0 and p0's member neighbors, so p0's m - 1
      neighbors are u and m - 2 members, and none is left for y.
    - (iii) Otherwise M = W, and no good set for m exists: its m members
      would be M, which encircles u.  W' = M - x is good for k = m - 1,
      where "dense" means degree >= m - 2 and a witness has degree m - 2.
      m >= 4, as 2 <= |W & N(u)| <= deg u <= m - 2 (u is not dense).
      Members have degree >= m - 1 >= k - 1.  x exists, because
      deg u <= m - 2 < m.  (b) holds: the vertices of degree >= k are M,
      so x is the only one outside W'; x is not in N(u), so it reaches u
      through a witness w, a neighbor of x in W'.  (a) holds: no member has
      degree m - 2, so W' encircles y only if y is adjacent to all of W'.
      Such a y has degree >= m - 1, so it is dense, and y = x.  But u has
      two member neighbors a and b, both in W', and then x-a-u-b is a
      4-cycle.
    """
    if g._good_set is not None:
        return g._good_set
    ensure_min_girth(g, 8)
    profile = density_profile(g)
    m = profile.m
    first = members = tuple(sorted(sorted(profile.dense, key=lambda v: (-len(g.adj[v]), v))[:m]))
    violation = check_good_set(g, first, m)
    if violation is not None:
        if violation.kind != "encircles":
            raise InvariantViolation(f"the first {m} dense vertices failed the good-set check as {violation.kind}")
        u = violation.witness
        if len(profile.dense) == m:  # case (iii)
            x = next(v for v in first if v not in g.adj[u])
            members, k = tuple(v for v in first if v != x), m - 1
        else:
            members, k = _swap(g, profile, first, u), m
        violation = check_good_set(g, members, k)
        if violation is not None:
            raise InvariantViolation(f"the set for {k} colors failed the good-set check as {violation.kind}", vertex=u)
    g._good_set = GoodSet(members)
    return g._good_set


def _swap(g: Graph, profile: DensityProfile, members: tuple[int, ...], u: int) -> tuple[int, ...]:
    """The one swap of ``find_good_set`` for a set W (of m dense vertices,
    every vertex of degree >= m among them) that encircles u."""
    adj = g.adj
    around_u = set(adj[u])
    w_set = set(members)
    c0 = next(v for v in members if v not in around_u)
    p0 = next(w for w in adj[c0] if w in around_u)
    z = min((v for v in profile.dense if v not in w_set and v != u), default=None)
    if z is not None:  # case (i)
        w_set.remove(p0)
        w_set.add(z)
    else:  # case (ii)
        w_set.remove(min(w for w in around_u & w_set if w != p0))
        w_set.add(u)
    return tuple(sorted(w_set))
