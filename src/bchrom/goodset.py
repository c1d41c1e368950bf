"""The degree invariant m(G), and good sets: encirclement tests,
verification, existence, and selection.

m(G) is the largest k such that at least k vertices have degree at least
k - 1; it upper-bounds the b-chromatic number.  A vertex is dense when its
degree is at least m(G) - 1, and M(G) is the set of dense vertices.

A set W of m(G) dense vertices is *good* when (a) it encircles no outside
vertex and (b) every outside vertex of degree >= m(G) has a neighbor in W.
For graphs of girth at least 8 (forests included), a good set fails to exist
exactly when M(G) itself has size m(G) and encircles some vertex.
``find_good_set`` makes the other half constructive: the first m(G) dense
vertices by (-degree, id), or one swap from them, are good.
"""

from __future__ import annotations

from collections.abc import Iterable, Set
from dataclasses import dataclass

from .errors import InvariantViolation
from .graph import Graph, ensure_min_girth


@dataclass(frozen=True)
class DensityProfile:
    m: int
    dense: frozenset[int]


def density_profile(g: Graph) -> DensityProfile:
    """Compute m(G) and M(G); rejects the empty graph.

    A graph with no edges still has m = 1 (every vertex has degree 0 >= 0).
    Maximality guarantees fewer than m + 1 vertices have degree >= m.
    """
    if g.n == 0:
        raise ValueError("m(G) is undefined for the empty graph")
    degs = sorted(g.degrees(), reverse=True)
    m = max(k for k in range(1, g.n + 1) if degs[k - 1] >= k - 1)
    dense = frozenset(u for u in range(g.n) if len(g.adj[u]) >= m - 1)
    return DensityProfile(m=m, dense=dense)


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

    m is m(G) for the good-set check.  The oracle does not call this: its
    prune, at witness degree k - 1, is mask arithmetic inside
    ``find_b_coloring_exact``.  Only vertices in the encirclement cover of
    the first member can possibly be encircled, which keeps the scan local
    on sparse graphs.
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


def check_good_set(g: Graph, members: Iterable[int], profile: DensityProfile) -> GoodSetViolation | None:
    """None if the set is good, otherwise the first violated condition."""
    w = tuple(sorted(set(members)))
    if len(w) != profile.m:
        return GoodSetViolation("wrong-size")
    for v in w:
        if v not in profile.dense:
            return GoodSetViolation("not-dense", v)
    u = find_encircled_vertex(g, w, profile.m)
    if u is not None:
        return GoodSetViolation("encircles", u)
    w_set = set(w)
    for x in range(g.n):
        if x in w_set or len(g.adj[x]) < profile.m:
            continue
        if w_set.isdisjoint(g.adj[x]):
            return GoodSetViolation("uncovered-high-degree", x)
    return None


def find_good_set(g: Graph, profile: DensityProfile, girth_value: int | float | None = None) -> GoodSet | None:
    """Return a good set, or None when none exists (girth >= 8 required).

    Rule: W0 is the first m = m(G) dense vertices by (-degree, id).  Return
    W0 if it is good, None if |M| = m (M = M(G)), and otherwise the set one
    swap away, checked once more (a failed check raises InvariantViolation).

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
    """
    ensure_min_girth(g, 8, girth_value)
    m = profile.m
    first = tuple(sorted(sorted(profile.dense, key=lambda v: (-len(g.adj[v]), v))[:m]))
    violation = check_good_set(g, first, profile)
    if violation is None:
        return GoodSet(first)
    if violation.kind != "encircles":
        raise InvariantViolation(f"the first {m} dense vertices failed the good-set check as {violation.kind}")
    if len(profile.dense) == m:
        return None
    members = _swap(g, profile, first, violation.witness)
    if check_good_set(g, members, profile) is not None:
        raise InvariantViolation("the swapped set failed the good-set check", vertex=violation.witness)
    return GoodSet(members)


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
