"""Independent reference implementations and instance builders for the tests.

Everything here re-derives expected values straight from the definitions
(quantifier-by-quantifier, brute force where needed) so the package code is
never used to check itself.  Three exceptions reuse package code on purpose.
The set-based exact search, the oracle's search before its bitmask kernel,
prunes through ``find_encircled_vertex`` of ``bchrom.goodset``, which the
kernel does not call; the unpruned search leaves out only that prune.  The
backtracking good-set search reuses ``check_good_set`` at its leaves: it is
the reference for the selection rule of ``find_good_set``, not for the
check.  The used-set greedy records through ``PartialColoring.assign``: it
is the reference for the one-scan color choice of ``greedy_extend``, not
for the record.  ``disagreement`` is no reference: it compares the
pipeline with the exact search, both package code, and with the pivot rule.
"""

from __future__ import annotations

import math
import random
import re
from collections import deque
from collections.abc import Iterator, Mapping, Sequence
from itertools import combinations

from bchrom import (
    ACYCLIC,
    AnalysisRecord,
    DEFAULT_ORACLE_LIMIT,
    DensityProfile,
    GoodSet,
    Graph,
    InvariantViolation,
    OracleLimitError,
    ValidityReport,
    Violation,
    check_b_coloring,
    check_good_set,
    exact_b_chromatic,
    run_pipeline,
)
from bchrom.coloring import PartialColoring
from bchrom.goodset import find_encircled_vertex
from bchrom.graph import ensure_min_girth

# ---------------------------------------------------------------- builders


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def star_of_stars() -> Graph:
    """Hub 0 adjacent to 1, 2, 3; one extra leaf on each spoke.  m = 3."""
    return Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])


def encircled_tree() -> Graph:
    """11-vertex tree whose dense set has size m = 4 and encircles vertex 0.

    0 touches 1 and 2; 3 hangs off 1, 4 hangs off 2; one extra leaf each on
    1 and 2, two extra leaves each on 3 and 4.  No good set, chi_b = 3.
    """
    edges = [(0, 1), (0, 2), (1, 3), (2, 4), (1, 5), (2, 6), (3, 7), (3, 8), (4, 9), (4, 10)]
    return Graph(11, edges)


def two_fan_tree() -> Graph:
    """Tree forcing the derangement pass: anchor 0 has two doubly anchored
    neighbors (4 via anchor 1, 5 via anchor 2).  m = 4.
    """
    edges = [
        (0, 4), (4, 1),          # 0-4-1
        (0, 5), (5, 2),          # 0-5-2
        (0, 3),                  # anchors 0 and 3 adjacent
        (1, 6), (1, 7),
        (2, 8), (2, 9),
        (3, 10), (3, 11),
    ]
    return Graph(12, edges)


def steal_chain_tree() -> Graph:
    """Tree forcing the color-steal pass: 3 is doubly anchored via 0 and 1,
    and anchor 0 also starts the chain 0-4-5-2.  m = 3.
    """
    edges = [
        (0, 3), (1, 3),
        (0, 4), (4, 5), (5, 2),
        (0, 6),
        (1, 7), (1, 8),
        (2, 9), (2, 10),
    ]
    return Graph(11, edges)


def fallback_pick_tree() -> Graph:
    """Tree forcing the final link pass: 3 is doubly anchored via 0 and 1
    and no anchor has a chained link neighbor.  m = 3.
    """
    edges = [
        (0, 3), (1, 3),
        (0, 4), (0, 5),
        (1, 6), (1, 7),
        (2, 8), (2, 9), (2, 10),
    ]
    return Graph(11, edges)


def high_degree_leftover_forest() -> Graph:
    """Forest where anchor 0 has a degree-m neighbor (7) that the missing
    colors do not reach; the completion pass must color it anyway.  m = 4.
    """
    edges = [
        (0, 4), (0, 5), (0, 6), (0, 7),
        (7, 8), (7, 9), (7, 10),
        (1, 11), (1, 12), (1, 13),
        (2, 14), (2, 15), (2, 16),
        (3, 17), (3, 18), (3, 19),
    ]
    return Graph(20, edges)


def greedy_trap_forest() -> Graph:
    """Forest where deferring the high-degree neighbor 23 of anchor 3 to the
    greedy pass would strand it: its other neighbors pick up colors 1..3
    first and the anchor holds color 4.  m = 4.
    """
    edges = [
        (0, 4), (0, 5), (0, 6),
        (1, 7), (1, 8), (1, 9),
        (2, 10), (2, 11), (2, 12),
        (3, 13), (3, 14), (3, 15), (3, 23),
        (16, 21),            # w feeding z2
        (17, 22),            # w1 on z3
        (18, 19), (19, 22),  # w2a - w2 - z3
        (20, 23),            # z1
        (21, 23),            # z2
        (22, 23),            # z3
    ]
    return Graph(24, edges)


def planted_encircling_forest(
    m: int, witnesses: int, u_dense: bool, extra_stars: int, rng: random.Random
) -> Graph:
    """Forest with m(G) = m whose members 0..m-1, each of degree m - 1,
    encircle u = m.

    ``witnesses`` members (2 <= witnesses <= m - 1) are adjacent to u, and
    each other member hangs off one of them; leaves pad every member to
    degree m - 1, and u too when ``u_dense``.  Each of ``extra_stars`` stars
    adds one more dense vertex, a center with m - 1 leaves.  No vertex has
    degree >= m, so m(G) = m, and the members are the first m dense vertices
    by id: the set ``find_good_set`` tries first, which encircles u.
    """
    u = m
    edges = [(w, u) for w in range(witnesses)]
    for v in range(witnesses, m):
        open_witnesses = [w for w in range(witnesses) if sum(w in e for e in edges) < m - 1]
        edges.append((rng.choice(open_witnesses), v))
    n = m + 1
    for v in [*range(m), *([u] if u_dense else [])]:
        while sum(v in e for e in edges) < m - 1:
            edges.append((v, n))
            n += 1
    for _ in range(extra_stars):
        edges.extend((n, n + i) for i in range(1, m))
        n += m
    return Graph(n, edges)


def relabeled(g: Graph, rng: random.Random) -> Graph:
    """g with its vertex ids shuffled by ``rng``."""
    ids = list(range(g.n))
    rng.shuffle(ids)
    return Graph(g.n, [(ids[a], ids[b]) for a, b in g.edges()])


def random_tree(n: int, rng: random.Random) -> Graph:
    if n <= 1:
        return Graph(n, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return tree_from_prufer(seq)


def tree_from_prufer(seq: list[int]) -> Graph:
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return Graph(n, edges)


def free_trees(n: int) -> Iterator[Graph]:
    """Every tree with n >= 0 vertices, once up to isomorphism.

    Wright, Richmond, Odlyzko & McKay, "Constant time generation of free
    trees", SIAM J. Comput. 15 (1986).  A rooted tree is written as its
    level sequence: the depth of each vertex in preorder, the subtrees of
    every vertex in non-increasing order of their own sequences.  Beyer and
    Hedetniemi's successor steps through these sequences in decreasing
    order.  A free tree is kept once, rooted at a centre: the first subtree
    of the root is lower than the rest of the tree or, when both are as
    high (two centres), not larger, and not greater when as large.  A
    sequence that fails this is left by changing its first subtree, which
    skips every later sequence with the same first subtree, and a rest
    lower than the new first subtree; where a jump lands is checked like
    any other sequence.  The walk starts at the path rooted at its centre
    and ends at the star.
    """
    if n <= 2:
        yield Graph(n, [(0, 1)] if n == 2 else [])
        return
    levels: list[int] | None = [*range(n // 2 + 1), *range(1, (n + 1) // 2)]
    while levels is not None:
        first_end = _second_child(levels)
        first = [depth - 1 for depth in levels[1:first_end]]
        rest = [0, *levels[first_end:]]
        if (max(first), len(first), first) <= (max(rest), len(rest), rest):
            yield _tree_of_levels(levels)
            levels = _next_rooted_tree(levels, max((i for i, depth in enumerate(levels) if depth > 1), default=0))
        else:
            last = first_end - 1
            jumped = _next_rooted_tree(levels, last)
            if levels[last] > 2:  # end on a path as deep as the new first subtree reaches
                height = max(jumped[1 : _second_child(jumped)])
                jumped[n - height :] = range(1, height + 1)
            levels = jumped


def _second_child(levels: list[int]) -> int:
    """Position of the root's second child in a level sequence; its length
    when the root has one child."""
    return levels.index(1, 2) if 1 in levels[2:] else len(levels)


def _next_rooted_tree(levels: list[int], p: int) -> list[int] | None:
    """Beyer and Hedetniemi's successor of a level sequence, changed from
    position ``p``: with q the parent of ``p`` (the last position before it
    one level up), everything from ``p`` on becomes copies of the block from
    q to ``p`` - 1, so ``p`` becomes a sibling of q.  The walk passes the
    last position deeper than 1 as ``p``, and 0 for the star, which has no
    successor: None."""
    if p == 0:
        return None
    q = max(i for i in range(p) if levels[i] == levels[p] - 1)  # p's parent
    result = levels[:p]
    for i in range(p, len(levels)):
        result.append(result[i - (p - q)])
    return result


def _tree_of_levels(levels: list[int]) -> Graph:
    """The tree of a level sequence: each vertex's parent is the last vertex
    before it one level up."""
    last_at = [0] * len(levels)
    edges = []
    for v, depth in enumerate(levels[1:], start=1):
        edges.append((last_at[depth - 1], v))
        last_at[depth] = v
    return Graph(len(levels), edges)


def chorded_trees(n: int, rank: int) -> Iterator[Graph]:
    """Every tree with n vertices plus each set of ``rank`` <= 2 chords
    whose graph has girth >= 9; rank 0 gives the trees themselves.

    A connected graph of cycle rank r is a spanning tree plus r chords, so
    this is every connected graph of girth >= 9, n vertices and rank r, up
    to isomorphism.  Each chord set is taken once per tree; isomorphic
    graphs from different trees are all kept.

    One chord closes one cycle, one longer than its ends' tree distance, so
    a chord joins two vertices at distance >= 8.  Two chords (a, b) and
    (c, d) close those two cycles and, when the tree paths a-b and c-d share
    L >= 1 edges, a third of length d(a, b) + d(c, d) - 2L + 2; the graph
    has rank 2, so it has no other cycle.  Of the three sums d(a, b) +
    d(c, d), d(a, c) + d(b, d) and d(a, d) + d(b, c), the two largest are
    equal in a tree; with L >= 1 the first is one of them and the smallest
    is the first less 2L, and with L = 0 the first is the smallest.  So the
    pair is kept exactly when the last two sums are both at least 7.
    """
    for tree in free_trees(n):
        dist = []
        for root in range(n):
            row = [-1] * n
            row[root] = 0
            queue = [root]
            for u in queue:  # grows while searching
                for v in tree.adj[u]:
                    if row[v] < 0:
                        row[v] = row[u] + 1
                        queue.append(v)
            dist.append(row)
        chords = [(u, v) for u, v in combinations(range(n), 2) if dist[u][v] >= 8]
        for chosen in combinations(chords, rank):
            if rank > 1:
                (a, b), (c, d) = chosen
                if dist[a][c] + dist[b][d] < 7 or dist[a][d] + dist[b][c] < 7:
                    continue
            yield Graph(n, [*tree.edges(), *chosen])


def pivoted(g: Graph, m: int) -> bool:
    """Irving & Manlove's pivot rule for the tree ``g`` with m = m(g):
    chi_b is m - 1 when g is pivoted and m otherwise (Discrete Appl.
    Math. 91, 1999).  g is pivoted when it has exactly m dense vertices
    (degree >= m - 1) and some vertex v that is not dense, where every dense
    vertex is adjacent to v or to a dense vertex adjacent to v, and every
    dense vertex adjacent to v and to another dense vertex has degree m - 1.

    In a tree, the dense neighbors of v and their dense neighbors, v not
    among them, are all distinct, so v reaches the sum over its dense
    neighbors w of 1 + (dense neighbors of w) dense vertices.  One pass
    counts every vertex's dense neighbors and one more tries every v:
    O(n + sum of degrees).
    """
    adj = g.adj
    dense = [len(nbrs) >= m - 1 for nbrs in adj]
    if sum(dense) != m:
        return False
    dense_nbrs = [sum(map(dense.__getitem__, nbrs)) for nbrs in adj]
    for v in range(g.n):
        if dense[v]:
            continue
        near = [w for w in adj[v] if dense[w]]
        if sum(1 + dense_nbrs[w] for w in near) == m and all(len(adj[w]) == m - 1 for w in near if dense_nbrs[w]):
            return True
    return False


def m_by_degrees(g: Graph) -> int:
    """m(G) from its definition, the largest k with at least k vertices of
    degree >= k - 1: with the degrees sorted in decreasing order, k such
    vertices exist exactly when the k-th degree is at least k - 1.
    O(n log n), for graphs too large for ``naive_m``."""
    degrees = sorted(map(len, g.adj), reverse=True)
    return max((k for k in range(1, g.n + 1) if degrees[k - 1] >= k - 1), default=0)


def disagreement(g: Graph, limit: int) -> tuple[str | None, AnalysisRecord]:
    """What is wrong with the pipeline's answer on ``g``, or None, and the
    pipeline's record.  The record's m must be m(G) by its definition, and
    that m, not the record's, is the one the other checks use.  The
    pipeline's witness, when it gives one, must pass ``check_b_coloring``
    with chi_b colors, and chi_b must be at most m.  At girth >= 9 the
    construction must answer, with a witness, m - 1 or m.  With at most
    ``limit`` vertices, chi_b must equal the exact search's value, whose
    witness must pass the checker too.  On a tree chi_b must be
    m - [pivoted]."""
    record, result = run_pipeline(g, compute_chi_b=True)
    chi_b, m = record.chi_b, m_by_degrees(g)
    if record.m != m:
        return f"m {record.m} in the record, {m} by its definition", record
    if chi_b is None:
        return f"no chi_b, by {record.chi_b_method}", record
    if result is not None and (result.chi_b != chi_b or not check_b_coloring(g, result.coloring, chi_b).valid):
        return f"the witness ({result.chi_b} colors) is not a b-coloring with {chi_b} colors", record
    if chi_b > m:
        return f"chi_b {chi_b} is above m = {m}", record
    if record.girth >= 9 and (record.chi_b_method != "construction" or result is None or chi_b < m - 1):
        return f"chi_b {chi_b} by {record.chi_b_method} at girth {record.girth_text()}, m = {m}", record
    if g.n <= limit:
        expected, exact_witness = exact_b_chromatic(g, limit=limit)
        if chi_b != expected:
            return f"chi_b {chi_b} by {record.chi_b_method}, {expected} by the exact search", record
        if not check_b_coloring(g, exact_witness, expected).valid:
            return f"the exact search's witness with {expected} colors is not a b-coloring", record
    if record.girth == ACYCLIC and g.edge_count == g.n - 1 and chi_b != m - pivoted(g, m):
        return f"chi_b {chi_b} on a tree that is {'' if chi_b == m else 'not '}pivoted, m = {m}", record
    return None, record


def with_tree_and_ring(g: Graph, tree_n: int, ring: int, rng: random.Random) -> Graph:
    """g with a random tree of ``tree_n`` vertices and a cycle of ``ring``
    vertices (none when 0), each joined by one edge to a random leaf of g.

    With d the largest degree of g, each tree vertex hangs off a random
    earlier one of degree below d - 2, so tree vertices have degree at most
    d - 1 once joined (for d = 3, ``tree_n`` is at most 2).  Ring vertices
    have degree at most 3, and so do the leaves of g once joined: for
    d >= 4, no vertex reaches degree d that did not have it in g.  A ring
    of 9 or more vertices keeps the girth at least 9.
    """
    leaves = [v for v in range(g.n) if len(g.adj[v]) == 1]
    edges = list(g.edges())
    n = g.n
    if tree_n:
        cap = max(map(len, g.adj)) - 2
        assert cap > 1 or tree_n <= 2, f"a tree of {tree_n} vertices under degree cap {cap}"
        degree = [0] * tree_n
        open_ends = [0]  # tree vertices below the cap
        for v in range(1, tree_n):
            i = rng.randrange(len(open_ends))
            parent = open_ends[i]
            edges.append((n + parent, n + v))
            degree[parent] += 1
            degree[v] = 1
            if degree[parent] == cap:
                open_ends[i] = open_ends[-1]
                open_ends.pop()
            if cap > 1:
                open_ends.append(v)
        edges.append((rng.choice(leaves), n + rng.randrange(tree_n)))
        n += tree_n
    if ring:
        edges.extend((n + i, n + (i + 1) % ring) for i in range(ring))
        edges.append((rng.choice(leaves), n + rng.randrange(ring)))
        n += ring
    return Graph(n, edges)


def random_simple_graph(n: int, edge_prob: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob]
    return Graph(n, edges)


# ------------------------------------------------------- naive reference

def brute_force_girth(g: Graph) -> int | float:
    """Shortest cycle length by enumerating simple paths from the smallest cycle vertex."""
    best = math.inf

    def extend(start: int, u: int, visited: set[int], length: int) -> None:
        nonlocal best
        if length + 1 >= best:
            return
        for v in g.adj[u]:
            if v == start and length >= 2:
                best = min(best, length + 1)
            elif v > start and v not in visited:
                visited.add(v)
                extend(start, v, visited, length + 1)
                visited.remove(v)

    for start in range(g.n):
        extend(start, start, {start}, 0)
    return best


def all_roots_girth(g: Graph) -> int | float:
    """Itai-Rodeh girth: early-exit BFS from every vertex of degree >= 2.

    The first non-tree edge met closes a candidate cycle of length
    dist(u) + dist(v) + 1; the minimum over all roots is exact.  Quadratic on
    forests, but polynomial, so it serves where brute_force_girth is too slow.
    """
    best: int | float = math.inf
    adj = g.adj
    for start in range(g.n):
        if len(adj[start]) < 2:
            continue
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if 2 * du + 1 >= best:
                break
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    best = min(best, du + dist[v] + 1)
        if best == 3:
            break
    return best


def fstring_format_coloring_file(
    g: Graph, coloring: Sequence[int] | Mapping[int, int], k: int, basis: dict[int, int]
) -> list[str]:
    """Reference coloring file, one f-string per line: the header block, then
    blocks of at most 2^16 "label color" lines."""
    labels = g.labels
    basis_text = ",".join(f"{labels[v]}:{c}" for c, v in sorted(basis.items()))
    blocks = [f"# k={k} basis={basis_text}\n"]
    for start in range(0, g.n, 2**16):
        stop = min(start + 2**16, g.n)
        blocks.append("".join([f"{labels[u]} {coloring[u]}\n" for u in range(start, stop)]))
    return blocks


def naive_check_b_coloring(g: Graph, coloring: Mapping[int, int], k: int) -> ValidityReport:
    """Reference checker, O(k·n): one scan of every vertex per color finds
    that class's lowest-id b-vertex."""
    if k < 1:
        raise ValueError("k must be positive")
    for u in range(g.n):
        if u not in coloring:
            raise ValueError(f"coloring is partial: vertex {u} has no color")
    violations: list[Violation] = []
    proper = True
    for u, v in g.edges():
        if coloring[u] == coloring[v]:
            violations.append(Violation("monochromatic-edge", (u, v)))
            proper = False
    expected = set(range(1, k + 1))
    used = {coloring[u] for u in range(g.n)}
    for c in sorted(used - expected):
        violations.append(Violation("color-gap", c))
    for c in sorted(expected - used):
        violations.append(Violation("color-gap", c))
    basis: dict[int, int] = {}
    for c in range(1, k + 1):
        found = None
        for u in range(g.n):
            if coloring[u] != c:
                continue
            seen = {coloring[v] for v in g.adj[u]}
            if expected - {c} <= seen:
                found = u
                break
        if found is not None:
            basis[c] = found
        elif c in used:
            violations.append(Violation("class-without-b-vertex", c))
    report_basis = basis if (proper and not violations and len(basis) == k) else None
    return ValidityReport(
        proper=proper,
        colors_used=len(used),
        basis=report_basis,
        violations=tuple(violations),
    )


def used_set_greedy_extend(g: Graph, pc: PartialColoring, num_colors: int) -> list[int]:
    """Greedy extension by id: collect the neighbors' colors into a set, take
    the smallest color outside it, then assign, which scans the neighbors
    again to refuse a clash."""
    for u in range(g.n):
        if pc.colors[u]:
            continue
        if len(g.adj[u]) >= num_colors:
            raise InvariantViolation("uncolored vertex too connected for greedy completion", step="greedy", vertex=u)
        used = {pc.colors[z] for z in g.adj[u] if pc.colors[z]}
        color = next(c for c in range(1, num_colors + 1) if c not in used)
        pc.assign(u, color, "greedy")
    return list(pc.colors)


# ------------------------------------------------ reference exact search


def set_based_extend_basis(g: Graph, basis: tuple[int, ...], k: int) -> dict[int, int] | None:
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


def set_based_find_b_coloring_exact(g: Graph, k: int, *, limit: int = DEFAULT_ORACLE_LIMIT) -> dict[int, int] | None:
    """The exact search on Python sets that the bitmask kernel replaced: the
    same bases in the same order, the same encirclement prune and the same
    extension order, so it must return the kernel's witness.  The kernel
    also skips starved bases (see ``starved_basis``), which hold no
    b-coloring, so skipping them cannot change the first one found."""
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
        result = set_based_extend_basis(g, basis, k)
        if result is not None:
            return result
    return None


def starved_basis(g: Graph, basis: tuple[int, ...]) -> bool:
    """Definition check of the kernel's starvation test: some member b has
    no neighbor outside the basis that is also outside N(c), for a member c
    neither b nor adjacent to b.  Such a b sees no vertex that could carry
    c's color."""
    members = set(basis)
    for b in basis:
        outside = set(g.adj[b]) - members
        for c in basis:
            if c != b and c not in g.adj[b] and not outside - set(g.adj[c]):
                return True
    return False


def find_b_coloring_unpruned(g: Graph, k: int) -> dict[int, int] | None:
    """The set-based exact search without its encirclement prune: every
    candidate basis is extended, so it shows what the prune may skip."""
    if k > g.n:
        return None
    eligible = [v for v in range(g.n) if len(g.adj[v]) >= k - 1]
    for basis in combinations(eligible, k):
        result = set_based_extend_basis(g, basis, k)
        if result is not None:
            return result
    return None


def exact_b_chromatic_unpruned(g: Graph) -> int:
    """Largest k at which the unpruned search finds a b-coloring."""
    return next(k for k in range(naive_m(g), 0, -1) if find_b_coloring_unpruned(g, k) is not None)


def naive_m(g: Graph) -> int:
    """Definition check: largest k with at least k vertices of degree >= k - 1."""
    best = 0
    for k in range(1, g.n + 1):
        if sum(1 for u in range(g.n) if len(g.adj[u]) >= k - 1) >= k:
            best = k
    return best


def naive_encircles(g: Graph, members, u: int, m: int) -> bool:
    """Literal quantifier translation of the encirclement definition."""
    members = set(members)
    for v in members:
        if u in g.adj[v]:
            continue
        if not any(
            w in members and v in g.adj[w] and u in g.adj[w] and len(g.adj[w]) == m - 1
            for w in range(g.n)
        ):
            return False
    return True


def naive_is_good_set(g: Graph, members, m: int, dense) -> bool:
    members = set(members)
    if len(members) != m or not members <= set(dense):
        return False
    for u in range(g.n):
        if u not in members and naive_encircles(g, members, u, m):
            return False
    for x in range(g.n):
        if x in members or len(g.adj[x]) < m:
            continue
        if not any(w in g.adj[x] for w in members):
            return False
    return True


def naive_has_good_set(g: Graph, m: int, dense) -> bool:
    """Exhaustive enumeration of every m-subset of the dense vertices."""
    return any(naive_is_good_set(g, subset, m, dense) for subset in combinations(sorted(dense), m))


# ------------------------------------------------- reference good-set search


def backtracking_good_set(g: Graph, profile: DensityProfile, girth_value: int | float | None = None) -> GoodSet | None:
    """The good-set search that ``find_good_set`` replaced, kept as a reference.

    Return a good set, or None when none exists (girth >= 8 required).

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
        violation = check_good_set(g, members, profile.m)
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
            if check_good_set(g, members, profile.m) is None:
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


def naive_link_vertices(g: Graph, members) -> set[int]:
    """Quartic scan for interiors of length-2/3 anchor-to-anchor paths."""
    w = set(members)
    found = set()
    for w1 in w:
        for x in g.adj[w1]:
            if x in w:
                continue
            for w2 in g.adj[x]:
                if w2 in w and w2 != w1:
                    found.add(x)
            for y in g.adj[x]:
                if y in w or y == w1:
                    continue
                for w2 in g.adj[y]:
                    if w2 in w and w2 != w1:
                        found.add(x)
                        found.add(y)
    return found


def full_fringe_clash(g: Graph, members, colors: Sequence[int]) -> tuple[int, int] | None:
    """Reference for the completion's stable-set check, which scans only the
    link structure's keys: a scan of every uncolored neighbor of the
    anchors, giving the lowest-id one adjacent to another one and its first
    such neighbor in adjacency order; None when they form a stable set."""
    fringe = {u for v in members for u in g.adj[v] if not colors[u]}
    for u in sorted(fringe):
        for z in g.adj[u]:
            if z in fringe:
                return u, z
    return None


def chromatic_number(g: Graph) -> int:
    """Small brute-force chromatic number (for sanity bounds only)."""
    if g.n == 0:
        return 0
    order = sorted(range(g.n), key=lambda v: -len(g.adj[v]))
    color: dict[int, int] = {}

    def feasible(k: int, pos: int) -> bool:
        if pos == g.n:
            return True
        v = order[pos]
        used = {color[u] for u in g.adj[v] if u in color}
        for c in range(1, k + 1):
            if c in used:
                continue
            color[v] = c
            if feasible(k, pos + 1):
                del color[v]
                return True
            del color[v]
        return False

    for k in range(1, g.n + 1):
        color.clear()
        if feasible(k, 0):
            return k
    raise AssertionError("unreachable")


def proper_coloring_ok(g: Graph, coloring: dict[int, int]) -> bool:
    return all(coloring[u] != coloring[v] for u, v in g.edges())


def by_vertex_id(coloring: Mapping[int, int] | None, n: int) -> list[int] | None:
    """A reference search's mapping witness as the list of colors by vertex
    id that the library's search returns; None stays None."""
    return None if coloring is None else [coloring[u] for u in range(n)]


# ------------------------------------------------ reference plain-text read


#: Start of a line that is not two unsigned decimals without leading zeros
#: separated by one space or one tab.
_NOT_A_PLAIN_PAIR = re.compile(r"^(?!(?:0|[1-9][0-9]*)[ \t](?:0|[1-9][0-9]*)$)", re.MULTILINE)


def regex_plain_pairs(text: str, start: int = 0) -> list[int] | None:
    """What ``_plain_pairs`` of ``bchrom.graph`` returns, by a line search
    alone: the integers of ``text[start:]`` when every line is two unsigned
    ASCII decimals without leading zeros, separated by one space or one tab
    and ended by "\\n", else None; None too for a token with more digits
    than int() converts."""
    if not text.endswith("\n") or _NOT_A_PLAIN_PAIR.search(text, start, len(text) - 1) is not None:
        return None
    try:
        return [int(token) for token in text[start:].split()]
    except ValueError:
        return None
