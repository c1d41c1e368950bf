"""Constructive b-coloring from a good set (girth >= 9).

Given a good set W = {v_1 < ... < v_k} for k colors, anchor v_i on color
i, then color the link vertices (interiors of short W-to-W paths) in four
ordered passes, make every anchor a b-vertex by finishing its
neighborhood, and extend greedily.
The construction re-checks the properties the correctness argument rests on:

* properness at every assignment and recoloring,
* as completion starts each anchor, it has at least as many uncolored
  neighbors as colors missing from its neighborhood,
* no vertex is ever recolored twice,
* the uncolored neighbors of W form a stable set before completion,
* every anchor sees all other colors after completion.

A violation raises InvariantViolation: on a girth->=9 input that is a bug.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import filterfalse
from typing import NamedTuple

from . import oracle
from .errors import InvariantViolation
from .goodset import GoodSet, check_good_set, encirclement_cover
from .graph import Graph, ensure_min_girth


@dataclass(frozen=True)
class LinkStructure:
    """Link vertices: interiors of length-2/3 paths between anchors.

    ``chained`` holds link vertices adjacent to another link vertex;
    ``multi_anchored`` those adjacent to at least two anchors.  Every link
    vertex falls in at least one of the two groups.  ``anchors_of`` maps
    each vertex of degree >= 2 outside W with a neighbor in W to its anchor
    neighbors, in id order; every link vertex is a key.
    """

    vertices: frozenset[int]
    chained: frozenset[int]
    multi_anchored: frozenset[int]
    anchors_of: dict[int, tuple[int, ...]]


class TraceEvent(NamedTuple):
    """One assignment or recoloring, as ``BResult.trace`` reports it."""

    step: str
    vertex: int
    color: int
    recolored_from: int | None = None


@dataclass(frozen=True)
class BResult:
    """A witnessed b-coloring: chi_b colors, one designated b-vertex each.

    ``coloring`` holds the color of each vertex id, 1..chi_b.  ``events`` is
    the construction's log of plain ``(step, vertex, color, recolored_from)``
    tuples in assignment order; ``trace`` builds its ``TraceEvent``s on read.
    ``run_pipeline`` returns one from either witness: the construction's, or
    the oracle's coloring with the basis ``check_b_coloring`` found and no
    events.
    """

    chi_b: int
    coloring: list[int]
    basis: dict[int, int]
    events: tuple[tuple[str, int, int, int | None], ...] = ()

    @property
    def trace(self) -> tuple[TraceEvent, ...]:
        return tuple(map(TraceEvent._make, self.events))


class PartialColoring:
    """Mutable coloring of a graph, one color per vertex id (0: uncolored),
    that logs every assignment and recoloring as a plain
    ``(step, vertex, color, recolored_from)`` tuple and refuses one that would
    give a vertex a neighbor's color.  Colors are positive."""

    def __init__(self, g: Graph):
        self._adj = g.adj
        self.colors: list[int] = [0] * g.n
        self.events: list[tuple[str, int, int, int | None]] = []
        self._recolored: set[int] = set()

    def _refuse_clash(self, v: int, color: int, step: str) -> None:
        colors = self.colors
        for u in self._adj[v]:
            if colors[u] == color:
                raise InvariantViolation(f"edge {u}-{v} is monochromatic", step=step, vertex=v)

    def assign(self, v: int, color: int, step: str) -> None:
        self.assign_each(((v, color),), step)

    def assign_each(self, pairs: Iterable[tuple[int, int]], step: str) -> None:
        """Assign each ``(vertex, color)`` pair in order, all at one step,
        refusing a second assignment or a neighbor's color as it reaches the
        pair; the pairs before a refused one stay assigned."""
        colors = self.colors
        adj = self._adj
        log = self.events.append
        for v, color in pairs:
            if colors[v]:
                raise InvariantViolation("vertex assigned twice", step=step, vertex=v)
            for u in adj[v]:
                if colors[u] == color:
                    raise InvariantViolation(f"edge {u}-{v} is monochromatic", step=step, vertex=v)
            colors[v] = color
            log((step, v, color, None))

    def assign_smallest_free_each(self, vertices: Iterable[int], step: str, num_colors: int) -> int | None:
        """Give each vertex in order, all at one step, the smallest color in
        1..num_colors that no neighbor has.  Stop at the first vertex left
        with no such color, assign it nothing and return it; None when every
        vertex was assigned.  A second assignment is refused as it is
        reached.  Picking a color no neighbor has is also the properness
        check of ``assign_each``: a vertex with one or two neighbors compares
        their colors directly, one with more collects them into a set."""
        colors = self.colors
        adj = self._adj
        log = self.events.append
        for v in vertices:
            if colors[v]:
                raise InvariantViolation("vertex assigned twice", step=step, vertex=v)
            nbrs = adj[v]
            degree = len(nbrs)
            if degree == 1:
                color = 2 if colors[nbrs[0]] == 1 else 1
            elif degree == 2:
                a = colors[nbrs[0]]
                b = colors[nbrs[1]]
                color = 1 if a != 1 and b != 1 else 2 if a != 2 and b != 2 else 3
            elif degree:
                used = set(map(colors.__getitem__, nbrs))
                color = 1
                while color in used:
                    color += 1
            else:
                color = 1
            if color > num_colors:
                return v
            colors[v] = color
            log((step, v, color, None))
        return None

    def recolor(self, v: int, color: int, step: str) -> None:
        old = self.colors[v]
        if not old:
            raise InvariantViolation("cannot recolor an uncolored vertex", step=step, vertex=v)
        if v in self._recolored:
            raise InvariantViolation("vertex recolored twice", step=step, vertex=v)
        self._refuse_clash(v, color, step)
        self._recolored.add(v)
        self.colors[v] = color
        self.events.append((step, v, color, old))


def classify_links(g: Graph, anchors: GoodSet) -> LinkStructure:
    """Scan all anchor-to-anchor paths of length 2 or 3 with free interiors.

    A neighbor of degree 1 is skipped: its one neighbor is its anchor, so it
    lies on no such path.
    """
    adj = g.adj
    w_set = frozenset(anchors.members)
    nbrs_in_w: dict[int, list[int]] = {}
    for v in anchors.members:  # increasing ids, so each list is in id order
        for x in adj[v]:
            if len(adj[x]) > 1 and x not in w_set:
                nbrs_in_w.setdefault(x, []).append(v)
    anchors_of = {x: tuple(near) for x, near in nbrs_in_w.items()}
    link: set[int] = set()
    for x, near_x in anchors_of.items():
        if len(near_x) >= 2:
            link.add(x)
        for y in adj[x]:
            near_y = anchors_of.get(y)  # None for anchors: they are no keys
            # sorted, nonempty tuples: the union has one anchor only if both are (a,)
            if near_y is not None and (len(near_x) >= 2 or near_y != near_x):
                link.add(x)
                link.add(y)
    chained = frozenset(x for x in link if not link.isdisjoint(adj[x]))
    multi = frozenset(x for x in link if len(anchors_of[x]) >= 2)
    return LinkStructure(vertices=frozenset(link), chained=chained, multi_anchored=multi, anchors_of=anchors_of)


def derange_assign(targets: Sequence[tuple[int, int]], palette: Sequence[int]) -> dict[int, int]:
    """Injective palette assignment where no target gets its forbidden color.

    targets is an ordered list of (vertex, forbidden color).  The forbidden
    colors must be distinct members of the palette and there must be at least
    as many palette colors as targets.  Construction: lay out the forbidden
    colors in target order, append the unused palette colors, and shift the
    sequence cyclically by one.
    """
    palette = list(palette)
    if len(palette) < 2:
        raise ValueError("palette must have at least two colors")
    if len(set(palette)) != len(palette):
        raise ValueError("palette colors must be distinct")
    if len(targets) > len(palette):
        raise ValueError("more targets than palette colors")
    forbidden = [f for _, f in targets]
    if len(set(forbidden)) != len(forbidden):
        raise ValueError("forbidden colors must be distinct")
    if any(f not in palette for f in forbidden):
        raise ValueError("every forbidden color must belong to the palette")
    taken = set(forbidden)
    sequence = forbidden + [c for c in palette if c not in taken]
    size = len(sequence)
    return {v: sequence[(j + 1) % size] for j, (v, _) in enumerate(targets)}


def color_links(g: Graph, anchors: GoodSet, links: LinkStructure) -> PartialColoring:
    """Anchor W and run the four link-coloring passes, each to exhaustion.

    The passes are sound for girth >= 9 only; b_coloring_with_good_set
    checks the girth before calling them.

    1. A link vertex x with a link neighbor x' takes the color of one of
       x' own anchors.
    2. Per anchor v_i, the doubly anchored neighbors x_1..x_q (q > 1) take
       the colors of their second anchors, deranged so x_j avoids the color
       of its own second anchor; vertices already colored keep their color
       and their palette entry is dropped.
    3. A still-uncolored doubly anchored x next to an anchor v_i that has a
       chained link neighbor y steals y's color; y moves to the color of
       another anchor of x.  This is the only recoloring, and it happens at
       most once per vertex.
    4. Any remaining doubly anchored x takes the color of an anchor that
       neither touches x nor shares with x a witness neighbor; condition (a)
       of the good set guarantees such an anchor exists.

    Why the checks hold, at k = m(G) - 1 too.  The argument uses girth >= 9
    and what any good set W for k = |W| has: members of degree >= k - 1,
    and conditions (a) and (b) of ``bchrom.goodset`` at k.  It never uses
    k = m(G).  Without a good set for m(G), ``find_good_set`` returns
    W' = M(G) - x0 for k = m(G) - 1 (its case (iii)), where a witness has
    degree k - 1 = m(G) - 2.  W' has (a) and (b) at that k, and its members
    are dense, of degree >= m(G) - 1 = k, so none of them is a witness.

    * Properness, checked at every assignment: girth alone.  Pass 1 gives x
      the color of an anchor b of x'; b next to x, or a chained neighbor of
      x with b's color, closes a cycle of length 5 or less.  A vertex that
      passes 2 to 4 color is not chained (pass 1 took those), so its only
      colored neighbors are anchors, and it gets the color of an anchor it
      is not adjacent to: in pass 2 the second anchor of another member of
      the star (x next to it closes a 4-cycle), in pass 3 the anchor whose
      color y took in pass 1 (x next to it closes a 5-cycle through y), in
      pass 4 one outside N(x).  The y that pass 3 recolors takes the color
      of x's other anchor, which y's neighbors lack, or a cycle shorter than
      9 runs through x and y.
    * Distinct second-anchor colors around v_i: girth alone.  Two
      neighbors of v_i with a common second anchor close a 4-cycle.
    * A feasible derangement: girth alone.  A colored member of the star
      has neither its own forbidden color (properness) nor another's (a
      cycle shorter than 9), so the palette is every forbidden color: at
      least two, and one for each target.
    * At most one recoloring per vertex: no girth and no k.  An x that
      pass 2 left uncolored is the only doubly anchored neighbor of each of
      its anchors, and the y it steals from has no anchor but v_i, or it
      would be a second one.  So only x ever takes y's color.
    * An anchor outside the encirclement cover of a pass-4 x: condition (a)
      at witness degree k - 1.  For W' no member has degree m(G) - 2, so the
      cover is N(x), and (a) says that x is not adjacent to all of W'.
    * No link vertex left over: every link vertex is chained, which pass 1
      colors, or doubly anchored, which passes 2 to 4 leave none of.
    """
    members = anchors.members
    m = len(members)
    anchor_color = {v: i + 1 for i, v in enumerate(members)}
    w_set = frozenset(members)
    link_set = links.vertices
    anchors_of = links.anchors_of
    pc = PartialColoring(g)
    colors = pc.colors
    for v in members:
        pc.assign(v, anchor_color[v], "anchor")

    # pass 1: chained link vertices copy an anchor color from across the chain
    chained = sorted(links.chained)
    for x in chained:
        x2 = next(y for y in g.adj[x] if y in link_set)
        pc.assign(x, anchor_color[anchors_of[x2][0]], "step1")

    # pass 2: deranged second-anchor colors around each anchor; each star
    # lists the anchor's doubly anchored neighbors in id order
    multi = sorted(links.multi_anchored)
    stars: dict[int, list[int]] = {}
    for x in multi:
        for v in anchors_of[x]:
            stars.setdefault(v, []).append(x)
    for v_i in members:
        star = stars.get(v_i, ())
        if len(star) <= 1:
            continue
        forbidden = [anchor_color[next(v for v in anchors_of[x] if v != v_i)] for x in star]
        if len(set(forbidden)) != len(forbidden):
            raise InvariantViolation("second-anchor colors collide around an anchor", step="step2", vertex=v_i)
        pinned = {colors[x] for x in star if colors[x]}
        palette = [c for c in forbidden if c not in pinned]
        targets = [(x, f) for x, f in zip(star, forbidden) if not colors[x]]
        if not targets:
            continue
        try:
            assignment = derange_assign(targets, palette)
        except ValueError as exc:
            raise InvariantViolation(f"derangement infeasible: {exc}", step="step2", vertex=v_i) from exc
        for x, _ in targets:
            pc.assign(x, assignment[x], "step2")

    # pass 3: steal a chained neighbor's color, then move that neighbor
    first_chained: dict[int, int] = {}  # anchor -> its lowest chained neighbor
    for y in chained:
        for v in anchors_of[y]:
            first_chained.setdefault(v, y)
    for x in multi:
        if colors[x]:
            continue
        v_i = next((v for v in anchors_of[x] if v in first_chained), None)
        if v_i is None:
            continue
        y = first_chained[v_i]
        pc.assign(x, colors[y], "step3-new")
        other = next(v for v in anchors_of[x] if v != v_i)
        pc.recolor(y, anchor_color[other], "step3-recolor")

    # pass 4: an unencircled vertex always has a safe anchor color left,
    # that of an anchor outside its encirclement cover
    for x in multi:
        if colors[x]:
            continue
        cover = encirclement_cover(g, w_set, x, m)
        option = next((v for v in members if v not in cover), None)
        if option is None:
            raise InvariantViolation("uncolored doubly anchored vertex is encircled", step="step4", vertex=x)
        pc.assign(x, anchor_color[option], "step4")

    leftovers = sorted(x for x in link_set if not colors[x])
    if leftovers:
        raise InvariantViolation("link vertex survived all four passes", step="step4", vertex=leftovers[0])
    return pc


def complete_b_vertices(g: Graph, anchors: GoodSet, pc: PartialColoring, links: LinkStructure) -> PartialColoring:
    """Hand each anchor its missing colors via distinct uncolored neighbors.

    ``pc`` has every anchor colored, and ``links`` is
    ``classify_links(g, anchors)``.

    The uncolored neighbors of W form a stable set and each has exactly one
    colored neighbor (its anchor), so the assignments never clash.  Leftover
    neighbors of degree >= |W|, the number of colors, are colored here as
    well: deferring them to the greedy pass could strand a high-degree
    vertex with no free color.

    Each anchor's slack (no fewer uncolored neighbors than missing colors)
    is checked as its turn starts, and that is the state the link passes
    left: an uncolored neighbor of an anchor has exactly one anchor
    neighbor, since a second would make it a link vertex, which the passes
    color.  So completing anchor j never changes anchor i's free neighbors
    or missing colors.

    Why the checks hold, at k = m(G) - 1 too: as in ``color_links``, the
    argument uses girth >= 9, members of degree >= k - 1 and conditions (a)
    and (b) at k, never k = m(G).  W' = M(G) - x0, the set ``find_good_set``
    returns for k = m(G) - 1, has all of them, and members of degree
    >= m(G) - 1 = k, so no witness (degree m(G) - 2).

    * A stable set of uncolored anchor neighbors: two adjacent ones next to
      anchors v != w lie on the path v-u-u'-w, so both are link vertices,
      colored; with v = w they close a triangle.  Girth alone.  The check
      scans only the uncolored keys of ``links.anchors_of`` and names the
      same u and neighbor as a scan of every uncolored anchor neighbor: an
      uncolored neighbor of degree 1 touches only its (colored) anchor, and
      one of degree >= 2 is a key.  So every uncolored neighbor adjacent to
      another one is a key, and so is that other one.
    * Slack: an anchor v of degree d has slack d - (k - 1) >= 0 for the
      colors it may see twice.  The link passes repeat a color around v
      only when pass 4 gives v's one doubly anchored neighbor the color of
      an anchor adjacent to v (any other repeat closes a cycle shorter than
      9 through v).  With d = k - 1, v is a witness and the cover excludes
      that anchor; with d >= k the one repeat fits.  Every member of W' has
      d >= k, so every anchor of W' has slack >= 1.
    * Every anchor sees every other color: by slack, each anchor takes its
      missing colors on its own uncolored neighbors, which no other anchor
      shares and which form a stable set.
    * A color for each leftover neighbor of degree >= k: its one colored
      neighbor is its anchor (the set is stable, and a member next to a
      link vertex would be a link vertex), so color 1 or 2 is free, k >= 3
      for W' (case (iii) has m(G) >= 4).  By (b), each vertex of degree >= k
      outside W is colored here or by the passes; for W' that is x0 alone.
    """
    members = anchors.members
    m = len(members)
    adj = g.adj
    colors = pc.colors
    fringe = set(filterfalse(colors.__getitem__, links.anchors_of))
    if not all(map(fringe.isdisjoint, map(adj.__getitem__, fringe))):
        u = min(u for u in fringe if not fringe.isdisjoint(adj[u]))
        clash = next(z for z in adj[u] if z in fringe)
        raise InvariantViolation(
            f"uncolored anchor neighbors {u} and {clash} are adjacent",
            step="completion",
            vertex=u,
        )
    full_palette = set(range(1, m + 1))
    for i, v in enumerate(members):
        own = i + 1
        neighborhood = adj[v]
        seen = set(map(colors.__getitem__, neighborhood))  # 0, for uncolored, is no palette color
        missing = sorted(full_palette - {own} - seen)
        free = list(filterfalse(colors.__getitem__, neighborhood))
        if len(free) < len(missing):
            raise InvariantViolation(
                f"anchor is missing {len(missing)} colors but has only {len(free)} uncolored neighbors",
                step="completion",
                vertex=v,
            )
        pc.assign_each(zip(free, missing), "completion")
        high = [u for u in free[len(missing):] if len(adj[u]) >= m]
        stuck = pc.assign_smallest_free_each(high, "completion", m)
        if stuck is not None:
            raise InvariantViolation("no color left for a high-degree neighbor", step="completion", vertex=stuck)
    for i, v in enumerate(members):
        own = i + 1
        seen = set(map(colors.__getitem__, adj[v]))
        if not (full_palette - {own} <= seen):
            raise InvariantViolation("anchor does not see every other color", step="completion", vertex=v)
    return pc


def greedy_extend(g: Graph, pc: PartialColoring, num_colors: int) -> list[int]:
    """Color the remaining vertices with the smallest free color, by id.

    Sound because every vertex of degree >= num_colors was colored earlier;
    the remaining ones see at most num_colors - 1 colors.  The lowest-id
    uncolored vertex of higher degree is refused before any vertex is
    colored.  Returns ``pc.colors`` itself, now total, not a copy.
    """
    colors = pc.colors
    adj = g.adj
    uncolored = list(filterfalse(colors.__getitem__, range(g.n)))
    if max(map(len, map(adj.__getitem__, uncolored)), default=0) >= num_colors:
        u = next(u for u in uncolored if len(adj[u]) >= num_colors)
        raise InvariantViolation("uncolored vertex too connected for greedy completion", step="greedy", vertex=u)
    pc.assign_smallest_free_each(uncolored, "greedy", num_colors)
    return colors


def b_coloring_with_good_set(g: Graph, anchors: GoodSet, *, girth_value: int | float | None = None) -> BResult:
    """Build a b-coloring with k = len(anchors.members) colors whose basis
    is the good set: m(G) colors, or m(G) - 1 from the set
    ``find_good_set`` returns when no good set for m(G) exists.

    A set that ``find_good_set`` certified on this same ``g`` is used as
    it is; any other set is checked first, and refused with a ValueError
    when it is not good for k.  The finished coloring is re-validated with
    the independent checker before being returned.
    """
    k = len(anchors.members)
    ensure_min_girth(g, 9, girth_value)
    if anchors.certified_on is not g:
        violation = check_good_set(g, anchors.members, k)
        if violation is not None:
            raise ValueError(f"anchors are not a good set: {violation.kind}")
    links = classify_links(g, anchors)
    pc = color_links(g, anchors, links)
    complete_b_vertices(g, anchors, pc, links)
    total = greedy_extend(g, pc, k)
    report = oracle.check_b_coloring(g, total, k)
    if report.basis is None:
        raise InvariantViolation("constructed coloring failed the validity check")
    basis = {i + 1: v for i, v in enumerate(anchors.members)}
    return BResult(chi_b=k, coloring=total, basis=basis, events=tuple(pc.events))
