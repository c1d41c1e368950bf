"""Good sets: encirclement tests, verification, existence, and search.

A set W of m(G) dense vertices is *good* when (a) it encircles no outside
vertex and (b) every outside vertex of degree >= m(G) has a neighbor in W.
For graphs of girth at least 8 (forests included), a good set fails to exist
exactly when M(G) itself has size m(G) and encircles some vertex; that
characterization both decides existence and certifies the backtracking
search below.
"""

from __future__ import annotations

from collections.abc import Iterable, Set
from dataclasses import dataclass

from .density import DensityProfile
from .errors import InvariantViolation
from .graph import Graph, ensure_min_girth


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


def encircles(g: Graph, members: Iterable[int], u: int, m: int) -> bool:
    """True iff every v in W is adjacent to u or shares with u a common
    neighbor w in W of degree exactly m - 1.

    m is m(G) for the good-set check and the color count k for the oracle's
    prune.  Evaluates the pure definition for any W (the empty set encircles
    everything vacuously); size constraints belong to the good-set check.
    """
    w_set = set(members)
    g.check_vertex(u)
    if u in w_set:
        raise ValueError(f"vertex {u} is a member of the candidate set")
    return w_set <= encirclement_cover(g, w_set, u, m)


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

    m is as in ``encircles``.  Only vertices adjacent to the first member, or
    adjacent to one of its degree-(m-1) co-members, can possibly be
    encircled, which keeps the scan local on sparse graphs.
    """
    w_sorted = sorted(set(members))
    if not w_sorted:
        raise ValueError("candidate set must be nonempty")
    v0 = w_sorted[0]
    w_set = set(w_sorted)
    target = m - 1
    candidates = set(g.adj[v0])
    for w in g.adj[v0]:
        if w in w_set and len(g.adj[w]) == target:
            candidates.update(g.adj[w])
    candidates -= w_set
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

    Backtracking over the dense vertices in descending-degree order (ties by
    id): high-degree picks can never serve as encirclement witnesses, so they
    disqualify condition (a) fastest.  Condition (b) is pruned with a
    last-helper index; the full (a)/(b) check runs at the leaves.  When
    |M(G)| = m(G) the dense set is the only candidate, and one check decides
    existence: it is good, or it encircles a vertex and no good set exists.
    Otherwise the girth-8 characterization promises one, so exhaustion
    indicates a bug.
    """
    ensure_min_girth(g, 8, girth_value)
    m = profile.m
    if len(profile.dense) == m:
        members = tuple(sorted(profile.dense))
        violation = check_good_set(g, members, profile)
        if violation is None:
            return GoodSet(members)
        if violation.kind == "encircles":
            return None
        raise InvariantViolation("a dense set of size m(G) can fail to be good only by encircling a vertex")
    candidates = sorted(profile.dense, key=lambda v: (-len(g.adj[v]), v))
    position = {v: i for i, v in enumerate(candidates)}
    high = [x for x in range(g.n) if len(g.adj[x]) >= m]
    last_helper = {}
    for x in high:
        spots = [position[y] for y in (x, *g.adj[x]) if y in position]
        last_helper[x] = max(spots) if spots else -1
    chosen: list[int] = []
    chosen_set: set[int] = set()

    def coverable(index: int) -> bool:
        for x in high:
            if x in chosen_set or not chosen_set.isdisjoint(g.adj[x]):
                continue
            if last_helper[x] <= index:
                return False
        return True

    def search(start: int) -> GoodSet | None:
        if len(chosen) == m:
            members = tuple(sorted(chosen))
            if check_good_set(g, members, profile) is None:
                return GoodSet(members)
            return None
        needed = m - len(chosen)
        for i in range(start, len(candidates) - needed + 1):
            v = candidates[i]
            chosen.append(v)
            chosen_set.add(v)
            if coverable(i):
                found = search(i + 1)
                if found is not None:
                    return found
            chosen.pop()
            chosen_set.remove(v)
        return None

    result = search(0)
    if result is None:
        raise InvariantViolation("good-set search exhausted although the girth-8 characterization promises one")
    return result
