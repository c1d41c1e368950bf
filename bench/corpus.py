"""Seeded input corpora for the benchmark workloads.

Everything here is built from the benchmark's own random generator and
never imports bchrom, so a change to the program cannot change its inputs.
Each instance carries its edge list in file labels, a random permutation of
0..n-1.  The correctness check re-derives what it needs from the edges
(see check.py).
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field

from check import Adjacency, no_good_set_witness


@dataclass
class Instance:
    name: str
    n: int
    edges: list[tuple[int, int]]
    kind: str  # forest | linked | dense | nogood
    facts: dict = field(default_factory=dict)  # forest: how many draws lacked a good set

    def text(self) -> str:
        """Edge-list file text; the '# n=' header appears only when needed."""
        touched = {x for edge in self.edges for x in edge}
        head = f"# n={self.n}\n" if len(touched) < self.n else ""
        return head + "".join(f"{u} {v}\n" for u, v in self.edges)

    def adjacency(self) -> Adjacency:
        return Adjacency(self.n, self.edges)


def fingerprint(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(hashlib.sha256(text.encode()).digest())
    return digest.hexdigest()


def _relabel(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Random labels and random edge order, so no input is sorted by structure."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return out


def prufer_tree(rng: random.Random, n: int, offset: int = 0) -> list[tuple[int, int]]:
    """Uniform random labelled tree on offset..offset+n-1 (Pruefer decoding)."""
    if n < 2:
        return []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf + offset, x + offset))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves) + offset, heapq.heappop(leaves) + offset))
    return edges


# Size classes: (inputs per pass, total vertices, component shares).  Sizes
# are fixed and only the structure is random, because girth() runs a full BFS
# per vertex and op cost grows with the square of the component sizes.  Each
# latency quantile falls inside one class, away from its edges (p50 among the
# single trees of 800, p90 among the two-tree forests of 1400), so a quantile
# is the middle of many like ops rather than one op on the jump between two
# sizes.  The three largest trees are the "few thousand vertices" tail.
FOREST_CLASSES = [
    (15, 300, (0.5, 0.3, 0.2)),
    (18, 800, (1.0,)),
    (14, 1400, (0.8, 0.2)),
    (3, 2500, (1.0,)),
]


def forest_schedule() -> list[tuple[int, tuple[float, ...], int]]:
    """(total vertices, component shares, isolated vertices) per input; every
    third input of a class also has 1% isolated vertices (the '# n=' header)."""
    return [
        (total, shares, total // 100 if j % 3 == 1 else 0)
        for count, total, shares in FOREST_CLASSES
        for j in range(count)
    ]


def forest_instance(rng: random.Random, index: int, total: int, shares, isolated: int) -> Instance:
    """Random trees (plus isolated vertices) that have a good set.

    A tree without a good set makes `color` refuse above the oracle limit; such
    draws (rare for random trees) are redrawn, because this workload measures
    the constructive path, and the no-good-set case is the oracle-small
    workload's.  The number of redraws is kept in the facts.
    """
    redraws = 0
    while True:
        edges: list[tuple[int, int]] = []
        offset = 0
        for share in shares:
            size = int(round((total - isolated) * share))
            edges += prufer_tree(rng, size, offset)
            offset += size
        n = offset + isolated
        inst = Instance(f"forest-{index:02d}", n, _relabel(rng, n, edges), "forest", {"redraws": redraws})
        if no_good_set_witness(inst.adjacency()) is None:
            return inst
        redraws += 1


def _hub_graph(rng: random.Random, hubs: int, target_edges: int, max_degree: int) -> list[set[int]]:
    """Random graph of girth >= 5 on the hubs: an edge is kept only if its ends
    are at distance >= 4, so every cycle it closes has length >= 5."""
    adj: list[set[int]] = [set() for _ in range(hubs)]
    edges = 0
    attempts = 40 * target_edges
    while edges < target_edges and attempts:
        attempts -= 1
        a, b = rng.randrange(hubs), rng.randrange(hubs)
        if a == b or len(adj[a]) >= max_degree or len(adj[b]) >= max_degree:
            continue
        if _distance_at_most(adj, a, b, 3):
            continue
        adj[a].add(b)
        adj[b].add(a)
        edges += 1
    return adj


def _distance_at_most(adj: list[set[int]], a: int, b: int, cap: int) -> bool:
    """dist(a, b) <= cap, for cap 2 or 3, by meeting in the radius-1 balls."""
    ball_a, ball_b = adj[a] | {a}, adj[b] | {b}
    if cap == 2:
        return not ball_a.isdisjoint(ball_b)
    return any(x in ball_b or not adj[x].isdisjoint(ball_b) for x in ball_a)


def linked_row(t: float) -> tuple[int, int, int, int]:
    """(m, hubs, hub-graph edges, subdivided triangles) at t in [0, 1]:
    m from 50 to 150 and n from about 5k to 25k.

    All hubs get degree exactly m - 1, so m(G) = m and every hub is dense;
    the hubs beyond m are the decoys the good-set search must choose among.
    """
    m = round(50 + 100 * t)
    hubs = max(m + 2, round(5000 * 5**t / (m - 1)))
    return m, hubs, round(3.5 * hubs), 2 + round(2 * t)


def linked_schedule(count: int) -> list[tuple[int, int, int, int]]:
    """Rows for linked-anchors, denser at the small end to keep a run short."""
    return [linked_row((j / (count - 1)) ** 2) for j in range(count)]


# verify: (inputs, t) size classes, small, middle and large linked graphs.
# verify's cost grows with n, and each latency quantile falls inside one
# class (p50 among the middle graphs, p90 among the large ones).
VERIFY_CLASSES = [(3, 0.0), (4, 0.5), (3, 1.0)]


def verify_schedule() -> list[tuple[int, int, int, int]]:
    return [linked_row(t) for count, t in VERIFY_CLASSES for _ in range(count)]


def linked_instance(rng: random.Random, name: str, m: int, hubs: int, hub_edges: int, triangles: int) -> Instance:
    """Girth-9 graph whose anchors are joined by many short paths.

    Hub-graph edges become paths of length 2 or 3 (girth >= 10).  Each extra
    triangle joins three hubs pairwise at hub distance >= 3 by paths of
    length 3: it is a 9-cycle, and any other cycle through one of its paths
    uses an old path of length >= 6, so the girth is exactly 9.  Hubs are
    padded with leaves to degree m - 1.
    """
    hub_adj = _hub_graph(rng, hubs, hub_edges, max_degree=m // 3)
    paths = [(a, b, rng.choice((2, 3))) for a in range(hubs) for b in hub_adj[a] if a < b]
    used: set[int] = set()
    made = 0
    for _ in range(200 * triangles):
        if made == triangles:
            break
        tri = rng.sample(range(hubs), 3)
        if used & set(tri) or any(len(hub_adj[x]) + 2 > m - 1 for x in tri):
            continue
        if any(_distance_at_most(hub_adj, x, y, 2) for x, y in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2]))):
            continue
        for x, y in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
            hub_adj[x].add(y)
            hub_adj[y].add(x)
            paths.append((x, y, 3))
        used |= set(tri)
        made += 1
    if made < triangles:
        raise AssertionError(f"{name}: placed only {made} of {triangles} girth-9 triangles")
    edges: list[tuple[int, int]] = []
    n = hubs
    degree = [0] * hubs
    for a, b, length in paths:
        chain = [a] + list(range(n, n + length - 1)) + [b]
        n += length - 1
        edges += list(zip(chain, chain[1:]))
        degree[a] += 1
        degree[b] += 1
    for h in range(hubs):
        for _ in range(m - 1 - degree[h]):
            edges.append((h, n))
            n += 1
    return Instance(name, n, _relabel(rng, n, edges), "linked")


DENSITY_LEVELS = 25


def dense_instance(rng: random.Random, index: int) -> Instance:
    """Uniform random graph with n in 12..14 and edge density 0.4..0.6: girth
    below 9, the oracle decides.

    n and the edge count cycle over a fixed grid, so every seed draws the same
    mix of sizes and densities and only the structure is random: the exact
    search's cost climbs steeply with density, and a density drawn per graph
    would move a corpus's total cost by a quarter from seed to seed.
    """
    n = 12 + index % 3
    density = 0.4 + 0.2 * ((index // 3) % DENSITY_LEVELS + 0.5) / DENSITY_LEVELS
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pairs, round(density * len(pairs)))
    return Instance(f"dense-{index:04d}", n, _relabel(rng, n, edges), "dense")


def nogood_instance(rng: random.Random, index: int) -> Instance:
    """Tree with m = 4 whose dense set encircles a vertex u, padded to 12..14.

    Either u has two neighbours w1, w2 of degree 3, each also holding one
    dense vertex, or u has one such neighbour w holding two dense vertices
    and one dense neighbour x of its own.  The dense set is then exactly the
    four W vertices and encircles u, so no good set exists and chi_b = 3.
    """
    target = 12 + index % 3
    edges: list[tuple[int, int]] = []
    n = 1  # vertex 0 is u

    def new(attach: int) -> int:
        nonlocal n
        edges.append((attach, n))
        n += 1
        return n - 1

    if rng.random() < 0.5:
        w1, w2 = new(0), new(0)
        v1, v2 = new(w1), new(w2)
        new(w1), new(w2)
        witnesses = {w1, w2}
        members = [w1, w2, v1, v2]
    else:
        w = new(0)
        x = new(0)
        v1, v2 = new(w), new(w)
        new(x), new(x)
        witnesses = {w}
        members = [w, x, v1, v2]
    for v in members:
        if v not in witnesses:
            while sum(1 for e in edges if v in e) < 3:
                new(v)
    degree = [0] * target
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    while n < target:
        # grow only where no new dense vertex (degree >= 3) or a witness change can appear
        spots = [v for v in range(1, n) if v not in witnesses and (degree[v] <= 1 or v in members)]
        spot = rng.choice(spots)
        degree[spot] += 1
        degree[n] += 1
        new(spot)
    inst = Instance(f"nogood-{index:04d}", n, _relabel(rng, n, edges), "nogood")
    if no_good_set_witness(inst.adjacency()) is None:
        raise AssertionError(f"{inst.name}: construction lost its encircled vertex")
    return inst


LINKED_INPUTS = 20
ORACLE_INPUTS = 1500


def build(workload: str, seed: int) -> list[Instance]:
    """The corpus of a workload, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "forest":
        insts = [forest_instance(rng, i, *row) for i, row in enumerate(forest_schedule())]
    elif workload in ("linked-anchors", "verify"):
        rows = linked_schedule(LINKED_INPUTS) if workload == "linked-anchors" else verify_schedule()
        insts = [linked_instance(rng, f"linked-{i:02d}", *row) for i, row in enumerate(rows)]
    elif workload == "oracle-small":
        # every fourth input is a no-good-set tree, the rest dense random graphs
        insts = [nogood_instance(rng, i) if i % 4 == 3 else dense_instance(rng, i - i // 4) for i in range(ORACLE_INPUTS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(insts)
    return insts

