"""Simple undirected graphs on 0..n-1 with bitmask vertex sets.

A vertex set is a plain int used as a bitmask, so flood fills, cut scans
and dominating-set scans are single word operations for n <= 64. Graphs
are immutable values. Rows are checked where they enter the package: a
direct Graph(n, adj) call checks the vertex cap, the row count, stray bits,
loops and symmetry; from_edges checks each pair, and formats.parse_graph6
its own encoding. The constructors that derive a graph from graphs already
checked build their rows correctly by construction, so they skip the row
checks and the dataclass __init__ through _bare_graph, which checks
nothing. A join or a 1-sum of graphs within the vertex cap can outgrow
it, so join and one_sum (and suspension, a join) go through _trusted,
which checks the cap first. The others cannot outgrow a checked graph and
read no cap: induced and the deletions built on it, contract_vertex,
contract_edges and delete_edge have at most the vertices of their input,
and the generator's classes at most generator_limit() <= max_vertices().
from_edges and parse_graph6 check the cap before they build any row, and
then call _bare_graph, so they read SEP_MAX_N once per graph. The
structure is built on components(): bipartition() layers each component,
contract_edges() makes them the quotient's vertices and blocks() splits
them at every vertex. suspension() is the join with the one-vertex graph
_K1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .limits import max_vertices

Mask = int
Edge = tuple[int, int]


class GraphError(ValueError):
    """Invalid graph construction or operation input."""


def full_mask(n: int) -> Mask:
    return (1 << n) - 1


def bit(v: int) -> Mask:
    return 1 << v


def iter_bits(mask: Mask) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: adj[i] is the open-neighborhood bitmask of i."""

    n: int
    adj: tuple[Mask, ...]

    def __post_init__(self) -> None:
        _check_cap(self.n)
        if len(self.adj) != self.n:
            raise GraphError("adjacency row count does not match n")
        full = full_mask(self.n)
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise GraphError(f"adjacency row {i} has bits >= n")
            if row >> i & 1:
                raise GraphError(f"loop at vertex {i}")
        adj = self.adj
        for i, row in enumerate(adj):
            while row:
                low = row & -row
                j = low.bit_length() - 1
                if not adj[j] >> i & 1:
                    raise GraphError(f"asymmetric edge ({i},{j})")
                row ^= low

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph({self.n}, {sorted(edges(self))})"


def _check_cap(n: int) -> None:
    cap = max_vertices()
    if not 1 <= n <= cap:
        raise GraphError(f"vertex count {n} outside [1, {cap}]")


_setattr = object.__setattr__


def _trusted(n: int, adj: tuple[Mask, ...]) -> Graph:
    """Graph(n, adj) for rows that are valid by construction: only the
    vertex cap is checked, then _bare_graph builds it."""
    _check_cap(n)
    return _bare_graph(n, adj)


def _bare_graph(n: int, adj: tuple[Mask, ...]) -> Graph:
    """Graph(n, adj) with no check at all, for callers that have checked
    the cap themselves (from_edges, formats.parse_graph6), so SEP_MAX_N is
    read once per graph, or whose result cannot outgrow a checked graph
    (induced, contract_vertex, contract_edges, delete_edge and the
    generator's classes), so it is not read at all. The frozen
    dataclass's __init__ and __post_init__ are skipped and the fields set
    as that __init__ sets them; writing g.__dict__ instead would give
    every Graph a dict of its own, about 150 bytes more each."""
    g = object.__new__(Graph)
    _setattr(g, "n", n)
    _setattr(g, "adj", adj)
    return g


# The one-vertex graph that suspension() joins with. It is built without
# the cap check, which reads SEP_MAX_N: a bad value there must fail the
# call that reads it, not the import.
_K1 = _bare_graph(1, (0,))


def from_edges(n: int, edge_list: Iterable[Edge]) -> Graph:
    """Build a graph from (possibly repeated) unordered vertex pairs."""
    _check_cap(n)
    rows = [0] * n
    for i, j in edge_list:
        if i == j:
            raise GraphError(f"loop edge ({i},{j})")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"edge ({i},{j}) out of range for n={n}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return _bare_graph(n, tuple(rows))


def edges(g: Graph) -> list[Edge]:
    """All edges as sorted (i, j) pairs with i < j."""
    out = []
    for i in range(g.n):
        for j in iter_bits(g.adj[i] >> (i + 1)):
            out.append((i, i + 1 + j))
    return out


def edge_count(g: Graph) -> int:
    return sum(row.bit_count() for row in g.adj) // 2


def has_edge(g: Graph, i: int, j: int) -> bool:
    return bool(g.adj[i] >> j & 1)


def closed_neighborhood(g: Graph, v: int) -> Mask:
    return g.adj[v] | bit(v)


def reach(adj: tuple[Mask, ...] | list[Mask], start: Mask, allowed: Mask) -> Mask:
    """Vertices reachable from the start mask while staying inside allowed."""
    seen = start & allowed
    frontier = seen
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & allowed & ~seen
        seen |= frontier
    return seen


def components(adj: tuple[Mask, ...] | list[Mask], s: Mask | None = None) -> list[Mask]:
    """Components of the rows adj induced on s (default: every vertex) as
    bitmasks, ordered by smallest member."""
    out = []
    remaining = full_mask(len(adj)) if s is None else s
    while remaining:
        comp = reach(adj, remaining & -remaining, remaining)
        out.append(comp)
        remaining ^= comp
    return out


def is_connected(g: Graph) -> bool:
    return reach(g.adj, 1, full_mask(g.n)) == full_mask(g.n)


def bipartition(g: Graph) -> tuple[Mask, Mask] | None:
    """Proper 2-coloring (part0, part1) or None; each component's smallest
    vertex lands in part0, so vertex 0 is always in the first part."""
    parts = [0, 0]
    for comp in components(g.adj):
        layer = seen = comp & -comp
        color = 0
        while layer:
            parts[color] |= layer
            grow = 0
            for v in iter_bits(layer):
                grow |= g.adj[v]
            layer = grow & ~seen
            seen |= layer
            color ^= 1
    if any(row & parts[parts[1] >> v & 1] for v, row in enumerate(g.adj)):
        return None
    return parts[0], parts[1]


def induced_rows(adj: tuple[Mask, ...], s: Mask) -> tuple[Mask, ...]:
    """Rows of adj induced on the nonempty set s, relabeled in ascending
    order: a vertex w of s becomes the number of vertices of s below it."""
    rows = []
    left = s
    while left:
        low = left & -left
        nbrs = adj[low.bit_length() - 1] & s
        row = 0
        while nbrs:
            w = nbrs & -nbrs
            row |= 1 << (s & (w - 1)).bit_count()
            nbrs ^= w
        rows.append(row)
        left ^= low
    return tuple(rows)


def induced(g: Graph, s: Mask) -> Graph:
    """Induced subgraph on s, relabeled 0..|s|-1 in ascending vertex order."""
    if s == 0:
        raise GraphError("induced subgraph on the empty set is not defined")
    if s & ~full_mask(g.n):
        raise GraphError("vertex set has bits outside the graph")
    return _bare_graph(s.bit_count(), induced_rows(g.adj, s))


def contract_edges(g: Graph, contract: Iterable[Edge]) -> Graph:
    """Contract the given edges and simplify (no loops, no multi-edges).

    New vertices are the components of (V, contract), numbered by ascending
    smallest original vertex, which keeps results deterministic.
    """
    rows = [0] * g.n
    for i, j in contract:
        if not (0 <= i < g.n and 0 <= j < g.n) or not has_edge(g, i, j):
            raise GraphError(f"({i},{j}) is not an edge of the graph")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    parts = components(rows)
    quotient = []
    for p in parts:
        out = 0
        for v in iter_bits(p):
            out |= g.adj[v]
        quotient.append(sum(1 << k for k, q in enumerate(parts) if q & out & ~p))
    return _bare_graph(len(parts), tuple(quotient))


def delete_vertex(g: Graph, v: int) -> Graph:
    if g.n < 2:
        raise GraphError("cannot delete the last vertex")
    _check_vertex(g, v)
    return induced(g, full_mask(g.n) ^ bit(v))


def delete_closed_neighborhood(g: Graph, v: int) -> Graph:
    _check_vertex(g, v)
    rest = full_mask(g.n) ^ closed_neighborhood(g, v)
    if rest == 0:
        raise GraphError(f"closed neighborhood of {v} covers the graph")
    return induced(g, rest)


def contract_vertex(g: Graph, v: int) -> Graph:
    """Remove v and add a clique on its former neighbors."""
    if g.n < 2:
        raise GraphError("cannot contract the last vertex")
    _check_vertex(g, v)
    nbrs = g.adj[v]
    rows = [row | nbrs & ~bit(w) if nbrs >> w & 1 else row for w, row in enumerate(g.adj)]
    return _bare_graph(g.n - 1, induced_rows(rows, full_mask(g.n) ^ bit(v)))


def delete_edge(g: Graph, i: int, j: int) -> Graph:
    if not has_edge(g, i, j):
        raise GraphError(f"({i},{j}) is not an edge of the graph")
    rows = list(g.adj)
    rows[i] &= ~bit(j)
    rows[j] &= ~bit(i)
    return _bare_graph(g.n, tuple(rows))


def complement_rows(adj: tuple[Mask, ...] | list[Mask]) -> tuple[Mask, ...]:
    full = full_mask(len(adj))
    return tuple(full ^ row ^ (1 << v) for v, row in enumerate(adj))


def suspension(g: Graph) -> Graph:
    """Add one apex vertex (index n) adjacent to every existing vertex."""
    return join(g, _K1)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all cross edges; g2 relabeled after g1."""
    n = g1.n + g2.n
    right = full_mask(n) ^ full_mask(g1.n)
    rows = [g1.adj[v] | right for v in range(g1.n)]
    rows += [(g2.adj[v] << g1.n) | full_mask(g1.n) for v in range(g2.n)]
    return _trusted(n, tuple(rows))


def one_sum(g1: Graph, v1: int, g2: Graph, v2: int) -> Graph:
    """Glue g2 onto g1 by identifying v2 with v1 (union of edge sets)."""
    _check_vertex(g1, v1)
    _check_vertex(g2, v2)
    label = [g1.n + w - (w > v2) for w in range(g2.n)]
    label[v2] = v1
    rows = list(g1.adj) + [0] * (g2.n - 1)
    for i, j in edges(g2):
        rows[label[i]] |= 1 << label[j]
        rows[label[j]] |= 1 << label[i]
    return _trusted(len(rows), tuple(rows))


def blocks(adj: tuple[Mask, ...] | list[Mask]) -> list[Mask]:
    """Vertex masks of the biconnected components of the rows adj; bridges
    count, isolated vertices belong to none.

    Start from the components with two or more vertices; then, for each
    vertex v in turn, replace every part p holding v that p - v breaks
    into two or more components by those components, each with v put
    back. Parts stay connected and share at most one vertex. A block is
    never split, since removing one of its vertices leaves it connected.
    A split never lets an earlier vertex u disconnect a piece: a component
    of piece - u away from v could reach the rest of p only through u. So
    the parts left have no cut vertex, each lies in one block and holds
    one, and they are exactly the blocks. Cost: one flood per vertex and
    part holding it, O(n(n + m)) where a DFS is O(n + m); long paths feel
    it (over 1 ms at 64 vertices), small graphs do not.
    """
    parts = [c for c in components(adj) if c & (c - 1)]
    for v in range(len(adj)):
        split = []
        for p in parts:
            pieces = components(adj, p ^ bit(v)) if p >> v & 1 else [p]
            split += [q | bit(v) for q in pieces] if len(pieces) > 1 else [p]
        parts = split
    return parts


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range for n={g.n}")


# Named families used across the test suites and the CLI examples.

def complete_graph(n: int) -> Graph:
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(l: int, m: int) -> Graph:
    return from_edges(l + m, [(i, l + j) for i in range(l) for j in range(m)])


def complete_multipartite(parts: list[int]) -> Graph:
    offsets = []
    total = 0
    for p in parts:
        if p < 1:
            raise GraphError("part sizes must be positive")
        offsets.append(total)
        total += p
    es = []
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            for i in range(parts[a]):
                for j in range(parts[b]):
                    es.append((offsets[a] + i, offsets[b] + j))
    return from_edges(total, es)


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycles need at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    return from_edges(n, [(0, i) for i in range(1, n)])
