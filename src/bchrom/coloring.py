"""Constructive b-coloring from a good set (girth >= 9).

Given a good set W = {v_1 < ... < v_k} for k colors, anchor v_i on color
i, then color the link vertices (interiors of short W-to-W paths) in four
ordered passes, make every anchor a b-vertex by finishing its
neighborhood, and extend greedily.
The construction re-checks the properties the correctness argument rests on.
Each check runs once: at a link pass's assignment or recoloring, or before
the batch it certifies, which is then colored without a check per vertex:

* properness at every assignment and recoloring of the link passes; each
  unchecked batch is proper by what is checked before it: the anchors take
  distinct colors on an uncolored graph, completion's batches rest on the
  stable set and the premise below, and the greedy fill picks a color no
  neighbor has, within the palette by its pre-check,
* as completion starts each anchor, it has at least as many uncolored
  neighbors as colors missing from its neighborhood,
* no vertex is ever recolored twice,
* the uncolored neighbors of W form a stable set before completion,
* before completion, each uncolored neighbor of W of degree >= 2 has one
  colored neighbor, its one anchor: the premise under which completion
  gives each anchor its missing colors, and its leftover neighbors of
  degree >= k a color, as one batch (``complete_b_vertices`` gives the
  argument),
* every anchor sees all other colors after completion,
* before the greedy fill, every uncolored vertex has fewer neighbors than
  there are colors.

A violation raises InvariantViolation: on a girth->=9 input that is a bug.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, filterfalse, repeat
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


#: One record of a construction log: a step, the vertices it colored, their
#: colors, and the color each had before (None for an assignment).
LogRecord = tuple[str, Sequence[int], Sequence[int], int | None]


class TraceEvent(NamedTuple):
    """One assignment or recoloring, as ``BResult.trace`` reports it."""

    step: str
    vertex: int
    color: int
    recolored_from: int | None = None


@dataclass(frozen=True)
class BResult:
    """A witnessed b-coloring: chi_b colors, one designated b-vertex each.

    ``coloring`` holds the color of each vertex id, 1..chi_b.  ``log`` is
    the construction's log, one record per batch (see ``PartialColoring``),
    and ``trace`` expands it on read into one ``TraceEvent`` per vertex of
    each record, in assignment order.  ``run_pipeline`` returns one from
    either witness: the construction's, or the oracle's coloring with the
    basis ``check_b_coloring`` found and an empty log.
    """

    chi_b: int
    coloring: list[int]
    basis: dict[int, int]
    log: tuple[LogRecord, ...] = ()

    @property
    def trace(self) -> tuple[TraceEvent, ...]:
        events = (zip(repeat(step), vertices, colors, repeat(old)) for step, vertices, colors, old in self.log)
        return tuple(map(TraceEvent._make, chain.from_iterable(events)))


class PartialColoring:
    """Mutable coloring of a graph, one color per vertex id (0: uncolored),
    that refuses an assignment or recoloring that would give a vertex a
    neighbor's color, except in a batch whose caller has certified it
    before the call (``assign_certified``, ``assign_smallest_free``).
    Colors are positive.

    Each call that returns appends one record to ``log``: its step, the
    vertices it colored, their colors at the end of the call, and None, or
    the old color of a recoloring."""

    def __init__(self, g: Graph):
        self._adj = g.adj
        self.colors: list[int] = [0] * g.n
        self.log: list[LogRecord] = []
        self._recolored: set[int] = set()

    def _record(self, step: str, vertices: Sequence[int]) -> None:
        """Log the vertices one call assigned, with the colors they have now."""
        self.log.append((step, tuple(vertices), tuple(map(self.colors.__getitem__, vertices)), None))

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
        pair."""
        colors = self.colors
        done: list[int] = []
        for v, color in pairs:
            if colors[v]:
                raise InvariantViolation("vertex assigned twice", step=step, vertex=v)
            self._refuse_clash(v, color, step)
            colors[v] = color
            done.append(v)
        self._record(step, done)

    def assign_certified(self, vertices: Sequence[int], colors: Sequence[int], step: str) -> None:
        """Give ``vertices[i]`` the color ``colors[i]``, all at one step,
        without the checks of ``assign_each``: the caller has shown that the
        vertices are distinct and uncolored, and that the batch leaves no
        edge monochromatic."""
        own = self.colors
        for v, color in zip(vertices, colors):  # faster in CPython than map over own.__setitem__
            own[v] = color
        self.log.append((step, tuple(vertices), tuple(colors), None))

    def assign_smallest_free(self, vertices: Sequence[int], step: str) -> None:
        """Give each vertex in order, all at one step, the smallest color
        that no neighbor has, and log them as one record.  The caller has
        shown that the vertices are distinct and uncolored, and that each has
        fewer neighbors than there are colors, so that color is one of them.
        A vertex with one or two neighbors compares their colors directly,
        one with more collects them into a set."""
        colors = self.colors
        adj = self._adj
        for v in vertices:
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
            colors[v] = color
        self._record(step, vertices)

    def recolor(self, v: int, color: int, step: str) -> None:
        old = self.colors[v]
        if not old:
            raise InvariantViolation("cannot recolor an uncolored vertex", step=step, vertex=v)
        if v in self._recolored:
            raise InvariantViolation("vertex recolored twice", step=step, vertex=v)
        self._refuse_clash(v, color, step)
        self._recolored.add(v)
        self.colors[v] = color
        self.log.append((step, (v,), (color,), old))


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


def color_links(g: Graph, anchors: GoodSet, links: LinkStructure) -> PartialColoring:
    """Anchor W and run the four link-coloring passes, each to exhaustion.

    The passes are sound for girth >= 9 only; b_coloring_with_good_set
    checks the girth before calling them.

    1. A link vertex x with a link neighbor x' takes the color of one of
       x' own anchors.
    2. Per anchor v_i with doubly anchored neighbors x_1..x_q (q > 1), x_j
       is forbidden the color of its second anchor.  List the forbidden
       colors of the uncolored members, then those of the members pass 1
       colored, which keep their color; each uncolored member takes the
       color after its own in that list, cyclically.
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
    * No colored member of a star holds a forbidden color of the star:
      girth alone.  Not its own (properness), nor another's (a cycle
      shorter than 9).  So each uncolored member takes the forbidden color
      of another member, one that no colored member holds.
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
    # distinct colors on an uncolored graph: no edge can clash, so no check
    pc.assign_certified(members, range(1, m + 1), "anchor")

    # pass 1: chained link vertices copy an anchor color from across the chain
    chained = sorted(links.chained)
    copies = []
    for x in chained:
        x2 = next(y for y in g.adj[x] if y in link_set)
        copies.append((x, anchor_color[anchors_of[x2][0]]))
    pc.assign_each(copies, "step1")

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
        if not {colors[x] for x in star}.isdisjoint(forbidden):  # an uncolored member holds 0, no color
            raise InvariantViolation("a colored neighbor holds a second-anchor color", step="step2", vertex=v_i)
        targets = [x for x in star if not colors[x]]
        if not targets:
            continue
        cycle = [f for x, f in zip(star, forbidden) if not colors[x]]
        cycle += [f for x, f in zip(star, forbidden) if colors[x]]
        pc.assign_each(zip(targets, cycle[1:] + cycle[:1]), "step2")

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
    colored neighbor (its anchor), so the assignments never clash.  Both are
    checked before any assignment: the stable set, and the premise that
    every uncolored anchor neighbor of degree >= 2 has one anchor and no
    other colored neighbor, which names the lowest vertex that breaks it.
    Each anchor's first |missing| uncolored neighbors then take its missing
    colors, without a check per vertex.  Its leftover neighbors of degree
    >= |W|, the number of colors, join the same batch, each with color 1, or
    2 when the anchor has color 1: deferring them to the greedy pass could
    strand a high-degree vertex with no free color.

    Why the batch needs no check of its own.  A target is uncolored, since
    its anchor's uncolored neighbors are read as its turn starts, and the
    targets are distinct, since an adjacency list has no repeats; so no
    vertex is assigned twice.  No target takes its anchor's color: a
    missing color is not it, and a leftover's 1 or 2 is chosen to differ.
    A target of degree 1 sees only its anchor.  A target of degree >= 2
    sees, by the premise, only its anchor among colored vertices, and none
    of its neighbors is colored later in completion: such a neighbor would
    be an uncolored anchor neighbor itself, which the stable set excludes.
    The premise also keeps every target to one anchor's batch.  The final
    ``check_b_coloring`` still checks every edge.

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
    * The premise: the passes color the anchors and the link vertices, and
      nothing else, and each link vertex is next to an anchor.  Let u be
      uncolored, next to anchor v, with another colored neighbor z.  If z
      is an anchor, v-u-z makes u a link vertex; if z is a link vertex next
      to anchor a, v-u-z-a makes u one when a != v, and v-u-z is a triangle
      when a = v.  Either way u would be colored.  Girth alone.  The check
      scans the same uncolored keys of ``links.anchors_of``, which are the
      uncolored anchor neighbors of degree >= 2.
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
    * A color for each leftover neighbor of degree >= k, fixed by the
      premise and the stable set, not looked up: its one colored neighbor
      is its anchor, and none of its neighbors is colored later in
      completion, so color 1, or 2 next to an anchor of color 1, is free;
      k >= 2, since at k = 1 a neighbor of the one anchor is encircled,
      which (a) excludes, and k >= 3 for W' (case (iii) has m(G) >= 4).
      By (b), each vertex of degree >= k outside W is colored here or by
      the passes; for W' that is x0 alone.
    * Of the sets ``find_good_set`` returns, only W' can leave such a
      leftover, x0.  At k = m(G), W0 and case (i)'s swapped set hold every
      vertex of degree >= m(G), so none is outside W.  Case (ii)'s set
      leaves one outside, x, next to u; u is an anchor of degree m(G) - 1
      = k - 1, so it has no slack: its neighbors need k - 1 distinct
      colors, so the missing colors reach every uncolored neighbor of u,
      x among them when the passes left it uncolored.
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
    colored_around = {u: sum(map(bool, map(colors.__getitem__, adj[u]))) for u in fringe}
    crowded = [u for u, count in colored_around.items() if count != 1]
    if crowded:
        u = min(crowded)
        raise InvariantViolation(
            f"uncolored anchor neighbor has {colored_around[u]} colored neighbors, not its one anchor alone",
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
        high = [u for u in free[len(missing):] if len(adj[u]) >= m]
        spare = 2 if own == 1 else 1
        pc.assign_certified(free[: len(missing)] + high, missing + [spare] * len(high), "completion")
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
    colored: that pre-check is the one check of the fill, which
    ``assign_smallest_free`` colors as one batch.  Returns ``pc.colors``
    itself, now total, not a copy.
    """
    colors = pc.colors
    adj = g.adj
    uncolored = list(filterfalse(colors.__getitem__, range(g.n)))
    if max(map(len, map(adj.__getitem__, uncolored)), default=0) >= num_colors:
        u = next(u for u in uncolored if len(adj[u]) >= num_colors)
        raise InvariantViolation("uncolored vertex too connected for greedy completion", step="greedy", vertex=u)
    pc.assign_smallest_free(uncolored, "greedy")
    return colors


def b_coloring_with_good_set(g: Graph, anchors: GoodSet) -> BResult:
    """Build a b-coloring with k = len(anchors.members) colors whose basis
    is the good set: m(G) colors, or m(G) - 1 from the set
    ``find_good_set`` returns when no good set for m(G) exists.

    A set equal to the one ``find_good_set`` stored on ``g`` is used as it
    is, whoever built it; any other set is checked first, and refused with
    a ValueError when it is not good for k.  The finished coloring is
    re-validated with the independent checker before being returned.
    """
    k = len(anchors.members)
    ensure_min_girth(g, 9)
    if anchors != g._good_set:
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
    return BResult(chi_b=k, coloring=total, basis=basis, log=tuple(pc.log))
