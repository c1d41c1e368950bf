"""Immutable simple graphs, their text formats, girth, generation.

The text formats are the edge list, DIMACS ".col" and the coloring file
("# k=... basis=..." then "label color" lines).  Vertices are dense 0-based
ids internally; the arbitrary nonnegative integer labels found in input
files are kept on the side so output can be written in the caller's
vocabulary.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections.abc import Iterable, Sequence

from .errors import ParseError, PreconditionError

#: Girth value reported for forests.  Compares greater than any finite bound,
#: so ``girth(g) >= k`` reads naturally.
ACYCLIC = math.inf

#: Largest vertex count a "# n=" header or a "p edge" line may declare, and
#: most distinct labels an edge list may name.  A one-line file must not be
#: able to allocate an unbounded graph.
MAX_VERTICES = 10**6

#: Largest edge budget ``generate_girth_constrained`` takes, once clamped to
#: the n(n - 1)/2 edges n vertices can have: 2 * MAX_VERTICES, the 2n edges
#: of README's timings at the vertex limit.  A plain edge list of
#: MAX_VERTICES vertices and this many edges is about 28 MB, within
#: MAX_INPUT_BYTES, which holds about 2.4 * 10^6 such lines: a budget far
#: above it asks for a graph no reader loads, and can exhaust memory building it.
MAX_EDGES = 2 * MAX_VERTICES

#: Largest input file, in bytes, the command line reads: 32 MiB, about twice
#: a plain edge list of MAX_VERTICES vertices and as many edges.  A larger
#: regular file is refused before it is read; of a device or a FIFO, at most
#: one byte more than this is read.
MAX_INPUT_BYTES = 32 * 2**20

#: The one integer grammar of every reader: an optional "-", then ASCII decimal digits.
_INTEGER = re.compile(r"-?[0-9]+")

_N_HEADER = re.compile(r"#\s*n\s*=\s*([0-9]+)\s*$")

#: The only header line the bulk edge-list read accepts; see ``parse_edge_list``.
_PLAIN_N_HEADER = re.compile(r"#[ \t]*n[ \t]*=[ \t]*([0-9]+)[ \t]*\n")

#: Most "label color" lines in one text block of ``format_coloring_file``.
_COLORING_BLOCK_LINES = 2**16

_COLORING_HEADER = re.compile(r"#\s*k=([0-9]+)\s+basis=(\S*)\s*$")

#: The only header line the bulk coloring read accepts; see ``parse_coloring_file``.
_PLAIN_COLORING_HEADER = re.compile(r"#[ \t]*k=([0-9]+)[ \t]+basis=\S*[ \t]*\n")

#: Reads the tab of a plain line as its space.
_TAB_TO_SPACE = bytes.maketrans(b"\t", b" ")

#: Maps the space or tab and the newline of a plain line to the commas of a JSON list.
_SEPARATORS_TO_COMMAS = bytes.maketrans(b" \t\n", b",,,")


class Graph:
    """Simple undirected graph: ``n`` vertices, sorted adjacency, labels.

    A graph exposes ``n``, ``adj`` (one strictly increasing tuple of
    neighbor ids per vertex) and ``labels`` (the input label of each id),
    and is immutable afterwards.

    It also keeps three facts derived from it, each stored on first use by
    the one function that derives it, and None until then: ``_girth``
    (``girth``), ``_profile`` (``density_profile``) and ``_good_set``
    (``find_good_set``, which stores only a set it has checked).  Equality
    ignores them.  Sharing a graph between threads stays safe: each fact is
    a pure function of ``n``, ``adj`` and ``labels``, so threads that race
    to store one store equal values.  A stored fact refers to no graph, so
    no reference cycle runs through one.

    The public constructor validates: an edge out of range, a self-loop, a
    duplicate edge (named as (u, v) with u < v, for the lowest such u, and
    found on the sorted adjacency lists) and repeated labels are each a
    ValueError.  The parsers build through ``_trusted``, which skips these
    checks: the line loops make them on their input, and the bulk edge-list
    read looks for a repeated neighbor on the adjacency ``_trusted`` built.
    """

    __slots__ = ("n", "adj", "labels", "_girth", "_profile", "_good_set")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], labels: Sequence[int] | None = None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        edges = list(edges)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
        adj = _sorted_adjacency(n, edges)
        repeated = _repeated_neighbor(adj)
        if repeated is not None:
            raise ValueError("duplicate edge ({}, {})".format(*repeated))
        label_tuple = tuple(range(n) if labels is None else labels)
        if len(label_tuple) != n:
            raise ValueError("labels must cover every vertex")
        if len(set(label_tuple)) != n:
            raise ValueError("labels must be distinct")
        self._fill(n, adj, label_tuple)

    @classmethod
    def _trusted(cls, n: int, edges: Iterable[tuple[int, int]], labels: Iterable[int]) -> Graph:
        """Build from input the caller has checked, or checks on the result:
        ids in range, no self-loop, no duplicate edge, one distinct label per
        vertex."""
        g = cls.__new__(cls)
        g._fill(n, _sorted_adjacency(n, edges), tuple(labels))
        return g

    def _fill(self, n: int, adj: tuple[tuple[int, ...], ...], labels: tuple[int, ...]) -> None:
        """Set every slot: the graph, and no stored fact yet."""
        self.n, self.adj, self.labels = n, adj, labels
        self._girth = self._profile = self._good_set = None

    def degrees(self) -> list[int]:
        return list(map(len, self.adj))

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    def edges(self) -> Iterable[tuple[int, int]]:
        """Yield each edge once, as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield u, v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj and self.labels == other.labels

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _plain_pairs(text: str, start: int = 0) -> list[int] | None:
    """The integers of ``text[start:]`` when it is made only of lines of two
    unsigned ASCII decimals without leading zeros, separated by one space or
    one tab, each line ended by "\\n"; None for any other text, or for a
    token with more digits than int() converts.

    The shape is one byte test: with the digits deleted and tabs read as
    spaces, the text must read " \\n" once per line.  Such a text, with its
    blanks and newlines turned to commas, is a JSON list of its integers
    exactly when no digit run is empty or has a leading zero, so one
    ``json.loads`` decodes it, and JSON's refusal is None too.
    """
    if not text.endswith("\n"):
        return None
    data = text[start:].encode("utf-8", "surrogatepass")  # a lone surrogate fails the test, as any non-ASCII
    if data.translate(_TAB_TO_SPACE, b"0123456789") != b" \n" * data.count(b"\n"):
        return None
    try:
        return json.loads(b"[%b]" % data[:-1].translate(_SEPARATORS_TO_COMMAS))
    except ValueError:  # an empty digit run, a leading zero, or more digits than int() converts
        return None


def _integer(token: str) -> int:
    """int(token) for a token of the ``_INTEGER`` grammar; any other token is
    a ValueError, among them the "+3", "1_0" and "\u0663" (Arabic-Indic 3)
    that int() alone reads."""
    if _INTEGER.fullmatch(token) is None:
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _declared_count(token: str) -> int | float:
    """A count read from a header, as ``_integer(token)``; ASCII digits more
    than int() converts (4300 in CPython) read as math.inf, above every limit
    a count is checked against.  Any other non-integer is a ValueError."""
    try:
        return _integer(token)
    except ValueError:
        if token.isascii() and token.isdigit():
            return math.inf
        raise


def _sorted_adjacency(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    for nbrs in neighbors:
        nbrs.sort()
    return tuple(map(tuple, neighbors))


def _repeated_neighbor(adj: Sequence[Sequence[int]]) -> tuple[int, int] | None:
    """(u, v) for the lowest u whose sorted neighbor list names v twice, and
    the lowest such v; None when no list repeats a neighbor.

    An edge listed twice, in either direction, puts each end twice in the
    other's list, and a self-loop puts u twice in its own list, so this one
    test on the sorted adjacency finds every repeated edge and self-loop.
    """
    lists = [nbrs for nbrs in adj if len(nbrs) > 1]  # a shorter list repeats nothing
    if sum(map(len, map(frozenset, lists))) == sum(map(len, lists)):
        return None
    for u, nbrs in enumerate(adj):
        for v, w in zip(nbrs, nbrs[1:]):
            if v == w:
                return u, v
    return None


def _add_edge(edges: set[tuple[int, int]], u: int, v: int, lineno: int) -> None:
    """Add edge {u, v} as (min, max); a self-loop or a repeat is a ParseError."""
    if u == v:
        raise ParseError(f"self-loop at vertex {u}", lineno)
    key = (min(u, v), max(u, v))
    if key in edges:
        raise ParseError(f"duplicate edge {u} {v}", lineno)
    edges.add(key)


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" lines into a canonical Graph.

    Lines starting with '#' are comments, except a "# n=<count>" header which
    declares the total vertex count (the only way to express isolated
    vertices); it may declare at most MAX_VERTICES, and the file may name at
    most MAX_VERTICES distinct labels.  Self-loops and duplicate edges are
    rejected outright so that corpus bugs surface instead of being silently
    normalized away.  Labels and counts are ASCII decimals, leading zeros
    allowed (``_INTEGER``); every reader refuses the other forms int() reads.

    A text made only of "u v" lines (unsigned ASCII decimals without leading
    zeros, separated by one space or one tab, each line ended by "\\n"),
    after at most one plain "# n=<count>" line, is read in bulk: one JSON
    decode, then the adjacency is built straight from the integers and a
    repeated edge or self-loop is found on it.  Any other text, and any
    anomaly the bulk read meets, goes to the line-by-line parser, so an
    error always names its line.
    """
    g = _edge_list_bulk(text)
    return g if g is not None else _edge_list_lines(text)


def _edge_list_bulk(text: str) -> Graph | None:
    """The bulk read of ``parse_edge_list``; None leaves the text to the line loop."""
    header = _PLAIN_N_HEADER.match(text)
    declared = _declared_count(header.group(1)) if header else 0
    if declared > MAX_VERTICES:  # the line loop names the header's line
        return None
    ends = _plain_pairs(text, header.end() if header else 0)
    if ends is None:
        return None
    labels = sorted({*ends, *range(declared)})
    n = len(labels)
    if n > MAX_VERTICES:  # the line loop names an earlier error, else refuses the count
        return None
    if not labels or labels[-1] == n - 1:  # the labels are 0..n-1: each is its own id
        ids = iter(ends)
    else:
        ids = map(dict(zip(labels, range(n))).__getitem__, ends)
    g = Graph._trusted(n, zip(ids, ids), labels)
    # a repeated line, an edge given both ways or a self-loop: the line loop names it
    return None if _repeated_neighbor(g.adj) else g


def _edge_list_lines(text: str) -> Graph:
    """The line-by-line read of ``parse_edge_list``: accepts every valid text
    and names the line of the first error."""
    declared_n: int | None = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            header = _N_HEADER.match(line)
            if header:
                if declared_n is not None:
                    raise ParseError("duplicate '# n=' header", lineno)
                declared_n = _declared_count(header.group(1))
                if declared_n > MAX_VERTICES:
                    raise ParseError(
                        f"'# n=' declares {header.group(1)} vertices, above the limit {MAX_VERTICES}", lineno
                    )
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = _integer(parts[0]), _integer(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex label in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError("vertex labels must be nonnegative", lineno)
        _add_edge(edges, u, v, lineno)
    label_set = {lab for edge in edges for lab in edge}
    if declared_n is not None:
        label_set.update(range(declared_n))
    if len(label_set) > MAX_VERTICES:
        raise ParseError(f"the edge list names {len(label_set)} distinct vertices, above the limit {MAX_VERTICES}")
    labels = sorted(label_set)
    index = {lab: i for i, lab in enumerate(labels)}
    return Graph._trusted(len(labels), [(index[a], index[b]) for a, b in edges], labels)


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS ".col" instance ("p edge n m" / "e u v", 1-based labels).

    The problem line may declare 0 to MAX_VERTICES vertices, and must
    declare as many edges as the file has "e" lines.
    """
    n: int | None = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError("problem line must read 'p edge <n> <m>'", lineno)
            try:
                n = _declared_count(parts[2])
            except ValueError:
                raise ParseError("non-integer vertex count", lineno) from None
            if n < 0:
                raise ParseError(f"problem line declares {parts[2]} vertices, a negative count", lineno)
            if n > MAX_VERTICES:
                raise ParseError(f"problem line declares {parts[2]} vertices, above the limit {MAX_VERTICES}", lineno)
            try:
                m = _declared_count(parts[3])
            except ValueError:
                raise ParseError("non-integer edge count", lineno) from None
            if m < 0:
                raise ParseError(f"problem line declares {parts[3]} edges, a negative count", lineno)
            m_token, problem_line = parts[3], lineno
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", lineno)
            if len(parts) != 3:
                raise ParseError("edge line must read 'e <u> <v>'", lineno)
            try:
                u, v = _integer(parts[1]), _integer(parts[2])
            except ValueError:
                raise ParseError("non-integer endpoint", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint outside 1..{n}", lineno)
            _add_edge(edges, u, v, lineno)
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise ParseError("missing 'p edge' problem line")
    # the problem line, which set n, also set m, m_token and problem_line
    if len(edges) != m:
        raise ParseError(f"problem line declares {m_token} edges, the file has {len(edges)}", problem_line)
    return Graph._trusted(n, [(u - 1, v - 1) for u, v in edges], range(1, n + 1))


def to_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format; parsing the result reproduces ``g``.

    Isolated vertices require a "# n=" header and therefore dense 0-based
    labels; exotic labelings without isolated vertices round-trip fine.
    """
    lines = []
    if any(len(nbrs) == 0 for nbrs in g.adj):
        if g.labels != tuple(range(g.n)):
            raise ValueError("isolated vertices need contiguous 0-based labels to serialize")
        lines.append(f"# n={g.n}")
    for u, v in g.edges():
        lines.append(f"{g.labels[u]} {g.labels[v]}")
    return "\n".join(lines) + "\n" if lines else ""


def format_coloring_file(g: Graph, coloring: Sequence[int], k: int, basis: dict[int, int]) -> list[str]:
    """The coloring file of a k-coloring, as text blocks to write in order: a
    "# k=<k> basis=<label:color,...>" header, then one "label color" line per
    vertex in id order, at most ``_COLORING_BLOCK_LINES`` lines a block, so
    a large file is never held as one string.  ``coloring`` gives the color
    of each vertex id.  A block is one ``%`` format over its labels and
    colors, interleaved in one tuple."""
    labels = g.labels
    basis_text = ",".join(f"{labels[v]}:{c}" for c, v in sorted(basis.items()))
    blocks = [f"# k={k} basis={basis_text}\n"]
    for start in range(0, g.n, _COLORING_BLOCK_LINES):
        stop = min(start + _COLORING_BLOCK_LINES, g.n)
        fields = [0] * (2 * (stop - start))
        fields[0::2] = labels[start:stop]
        fields[1::2] = coloring[start:stop]
        blocks.append(("%s %s\n" * (stop - start)) % tuple(fields))
    return blocks


def parse_coloring_file(text: str, g: Graph) -> tuple[int, list[int]]:
    """Read a coloring file back as (k, the color of each vertex id).

    A b-coloring has k >= 1 nonempty classes, so a header with k = 0 or k
    above the vertex count can never be valid and is refused as a parse
    error, and so is a file that leaves a vertex uncolored (named by its
    label), a label the graph lacks, and a vertex colored twice.  Any
    integer is a color, 0 too; the checker judges it.

    A file that is a plain header line followed by one "label color" line
    per vertex in id order, as ``format_coloring_file`` writes it, is read
    in bulk when its lines are unsigned ASCII decimals without leading
    zeros, separated by one space or one tab and each ended by "\\n".  Any
    other file goes to the line-by-line reader, so an error always names
    its line.
    """
    parsed = _coloring_bulk(text, g)
    return parsed if parsed is not None else _coloring_lines(text, g)


def _coloring_bulk(text: str, g: Graph) -> tuple[int, list[int]] | None:
    """The bulk read of ``parse_coloring_file``; None leaves the text to the line loop."""
    header = _PLAIN_COLORING_HEADER.match(text)
    if header is None:
        return None
    k = _declared_count(header.group(1))
    numbers = _plain_pairs(text, header.end())
    # the labels in id order: n lines that color each vertex once
    if numbers is None or not 1 <= k <= g.n or numbers[0::2] != list(g.labels):
        return None
    return k, numbers[1::2]


def _coloring_lines(text: str, g: Graph) -> tuple[int, list[int]]:
    """The line-by-line read of ``parse_coloring_file``: accepts every valid
    file and names the line of the first error."""
    vertex_of = dict(zip(g.labels, range(g.n)))
    k: int | None = None
    coloring: list[int | None] = [None] * g.n  # None: not colored yet
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            header = _COLORING_HEADER.match(line)
            if header:
                if k is not None:
                    raise ParseError("duplicate coloring header", lineno)
                k = _declared_count(header.group(1))
                if k < 1:
                    raise ParseError(f"k={header.group(1)}: a b-coloring has at least one color", lineno)
                if k > g.n:
                    raise ParseError(f"k={header.group(1)} exceeds the graph's {g.n} vertices", lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'vertex color', got {line!r}", lineno)
        try:
            label, color = _integer(parts[0]), _integer(parts[1])
        except ValueError:
            raise ParseError(f"non-integer token in {line!r}", lineno) from None
        vertex = vertex_of.get(label)
        if vertex is None:
            raise ParseError(f"unknown vertex label {label}", lineno)
        if coloring[vertex] is not None:
            raise ParseError(f"vertex {label} colored twice", lineno)
        coloring[vertex] = color
    if k is None:
        raise ParseError("missing '# k=... basis=...' header")
    if None in coloring:
        raise ParseError(f"coloring is partial: vertex {g.labels[coloring.index(None)]} has no color")
    return k, coloring


def _peel(adj: Sequence[Sequence[int]], degree: list[int], live: list[bool], queue: list[int]) -> None:
    """Delete the vertices of ``queue``, and then every live vertex whose
    live degree drops to 1; ``queue`` grows."""
    for u in queue:
        live[u] = False
        for v in adj[u]:
            if live[v]:
                degree[v] -= 1
                if degree[v] == 1:
                    queue.append(v)


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or ACYCLIC for forests.  The first call
    computes it and stores it on ``g``; every later call returns it.

    1. Peel vertices of degree <= 1 until only the 2-core is left.  Every
       cycle lies in the 2-core, so a forest stops here.
    2. Take each 2-core vertex as a root, by core degree (highest first,
       ties by id), skipping roots deleted since.  BFS from the root over
       the live vertices: a non-tree edge closes a candidate cycle of
       length dist(u) + dist(v) + 1 (Itai & Rodeh 1978).  The BFS stops
       once it can no longer beat the best cycle so far.  Then delete the
       root and peel again whatever drops to one live neighbor.  When the
       peel removed any vertex, the BFS runs on the 2-core alone: its
       vertices renumbered 0, 1, ... in root order, each keeping only its
       2-core neighbors, so no BFS rescans a peeled vertex.  A graph the
       peel leaves whole is searched as it is.

    Why deleting the root is sound.  Let H be the live graph and r the root.
    If r lies on a shortest cycle of H, its BFS finds that cycle's length,
    unless best is already no longer.  Otherwise some shortest cycle of H
    avoids r, so deleting r keeps girth(H).  No BFS candidate is shorter
    than girth(H), since its two tree paths and its edge hold a cycle of H
    no longer than it, and peeling removes only vertices that lie on no
    cycle.  So min(best, girth(H)) = girth(G) holds at every step, and
    best = girth(G) once H is empty.

    Cost: O(n + m) on forests, since each vertex is deleted once and its
    deletion scans its adjacency list once.  Each BFS is bounded by the
    best cycle so far, in a graph that shrinks root by root.
    ``dist``/``parent`` are allocated once; after each root only the
    ``dist`` entries that BFS touched are reset, and ``parent`` is written
    when a vertex is reached, before any read.
    """
    if g._girth is not None:
        return g._girth
    adj = g.adj
    n = g.n
    degree = [len(nbrs) for nbrs in adj]
    live = [True] * n
    leaves = [u for u in range(n) if degree[u] <= 1]
    _peel(adj, degree, live, leaves)
    if len(leaves) == n:
        g._girth = ACYCLIC
        return ACYCLIC

    roots: Sequence[int] = sorted([u for u in range(n) if live[u]], key=degree.__getitem__, reverse=True)
    if leaves:  # the 2-core alone, renumbered in root order
        core_id = [-1] * n
        for i, u in enumerate(roots):
            core_id[u] = i
        adj = tuple([tuple([core_id[v] for v in adj[u] if live[v]]) for u in roots])
        degree = list(map(degree.__getitem__, roots))
        n = len(roots)
        live = [True] * n
        roots = range(n)

    best: int | float = ACYCLIC
    dist = [-1] * n
    parent = [-1] * n
    for root in roots:
        if best == 3:
            break
        if not live[root]:
            continue
        dist[root] = 0
        touched = [root]
        for u in touched:  # BFS queue; grows while searching
            du = dist[u]
            if 2 * du + 1 >= best:
                break
            pu = parent[u]
            for v in adj[u]:
                if live[v]:
                    dv = dist[v]
                    if dv < 0:
                        dist[v] = du + 1
                        parent[v] = u
                        touched.append(v)
                    elif v != pu:
                        candidate = du + dv + 1
                        if candidate < best:
                            best = candidate
        for u in touched:
            dist[u] = -1
        _peel(adj, degree, live, [root])
    g._girth = best
    return best


def ensure_min_girth(g: Graph, bound: int) -> None:
    """Raise PreconditionError unless the graph is acyclic or has girth >= bound.

    Reads the girth stored on ``g``, and calls ``girth`` only when none is
    stored yet, so a pipeline that has computed it makes no second call.
    """
    value = girth(g) if g._girth is None else g._girth
    if value < bound:
        raise PreconditionError(f"requires girth >= {bound} (or a forest); this graph has girth {value}")


def _within_distance(adj: list[set[int]], source: int, target: int, cap: int) -> bool:
    """True if ``source`` != ``target`` are within distance ``cap`` >= 1.

    One ball grows around each end, a level at a time, the one with the
    smaller frontier next, until their radii sum to ``cap``.  On a shortest
    path of length d <= cap, the vertex at distance a from source is at
    distance d - a from target, so the step that brings the radii's sum to
    d reaches a vertex of the other ball."""
    ball, other = {source}, {target}
    frontier, other_frontier = [source], [target]
    for _ in range(cap):
        if len(frontier) > len(other_frontier):
            ball, other, frontier, other_frontier = other, ball, other_frontier, frontier
        grown = []
        for u in frontier:
            for v in adj[u]:
                if v not in ball:  # the balls stay disjoint until they meet, so only a new vertex can be in the other
                    if v in other:
                        return True
                    ball.add(v)
                    grown.append(v)
        if not grown:  # source's or target's component is exhausted, and holds no path between them
            return False
        frontier = grown
    return False


def _saturated(adj: list[set[int]], cap: int) -> bool:
    """True when every vertex's ball of radius ``cap`` holds every vertex:
    then every two vertices are within distance ``cap``, and no edge can be
    added without closing a cycle shorter than ``cap`` + 2."""
    n = len(adj)
    for source in range(n):
        ball = {source}
        frontier = ball
        for _ in range(cap):
            frontier = {v for u in frontier for v in adj[u] if v not in ball}
            if not frontier:  # the ball has stopped growing
                break
            ball |= frontier
        if len(ball) < n:
            return False
    return True


def generate_girth_constrained(n: int, min_girth: int, edge_budget: int, seed: int) -> Graph:
    """Random graph whose girth is at least ``min_girth`` (possibly acyclic).

    Uniform random edge proposals; a proposal is kept only if the endpoints
    are currently at distance >= min_girth - 1, so every cycle it closes has
    length >= min_girth.  Deterministic for a fixed seed.  Stops at
    ``edge_budget`` accepted edges or when the attempt budget runs out, so
    the result may have fewer edges than asked for.  The attempt budget is
    50 proposals per edge asked for, at most n(n - 1)/2 of them, or per
    vertex if there are more vertices.  After every n proposals refused in
    a row, it also stops if the graph is saturated, every two vertices
    within distance min_girth - 2: every later proposal would be refused,
    so the graph is the one the whole attempt budget gives.  At most
    MAX_VERTICES vertices and an edge budget, clamped to n(n - 1)/2, of at
    most MAX_EDGES, each refused before any vertex is allocated; a negative
    vertex count or edge budget is a ValueError.
    """
    if min_girth < 3:
        raise ValueError("min_girth must be at least 3")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} is above the limit {MAX_VERTICES}")
    if edge_budget < 0:
        raise ValueError("edge budget must be nonnegative")
    budget = min(edge_budget, n * (n - 1) // 2)  # no more edges than n vertices can have
    if budget > MAX_EDGES:
        raise ValueError(f"edge budget {edge_budget} is above the limit {MAX_EDGES}")
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    edges: list[tuple[int, int]] = []
    if n >= 2:
        cap = min_girth - 2  # reject when dist(u, v) <= cap
        attempts_left = 50 * max(budget, n)
        refused = 0  # proposals refused since the last edge was kept
        while len(edges) < edge_budget and attempts_left > 0:
            attempts_left -= 1
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v or v in adj[u] or _within_distance(adj, u, v, cap):
                refused += 1
                if refused % n == 0 and _saturated(adj, cap):
                    break
                continue
            refused = 0
            adj[u].add(v)
            adj[v].add(u)
            edges.append((u, v))
    return Graph(n, edges)
