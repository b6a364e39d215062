"""Shared strategies and independent reference implementations.

The reference routines here deliberately avoid the package's bitmask and
spanning-tree machinery: facet counting enumerates raw integer labelings,
connectivity uses union-find on edge lists, coloring uses DFS. They are the
oracles the fast paths are checked against. The extremal-family references
spell out each definition (connectivity, every block, a 2-coloring) where
the package's recognizers rely on edge counts.
"""

import itertools
import random
from collections import deque

import hypothesis
import hypothesis.strategies as st
from hypothesis import assume

from sepfacets.graphs import (
    Graph,
    bipartition,
    complete_graph,
    delete_edge,
    edges,
    from_edges,
    has_edge,
    is_connected,
    iter_bits,
    one_sum,
)

hypothesis.settings.register_profile("fast", max_examples=15)
hypothesis.settings.register_profile("thorough", max_examples=500)


def mask_of(vertices):
    """Bitmask of the given vertices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def empty_graph(n):
    return from_edges(n, [])


def n_one_sum(n1, n2):
    """Facet count of a 1-sum from the counts of its two summands."""
    if n1 < 1 or n2 < 1:
        raise ValueError("facet counts must be positive")
    return n1 * n2


def ref_facet_vectors(n, edge_list):
    """All normalized facet labelings by direct enumeration.

    f(0) = 0 and |f| <= n-1 pointwise, every edge differs by at most 1, and
    the edges differing by exactly 1 touch every vertex and connect them.
    """
    out = []
    for rest in itertools.product(range(-(n - 1), n), repeat=n - 1):
        f = (0,) + rest
        if any(abs(f[i] - f[j]) > 1 for i, j in edge_list):
            continue
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        touched = set()
        for i, j in edge_list:
            if abs(f[i] - f[j]) == 1:
                touched.add(i)
                touched.add(j)
                parent[find(i)] = find(j)
        if len(touched) == n and len({find(v) for v in range(n)}) == 1:
            out.append(f)
    return out


def ref_labelings(n, edge_list, gaps):
    """All labelings f of a connected graph with f(0) = 0 and
    |f(i) - f(j)| in gaps on every edge, as tuples. Vertices take raw values
    |f| <= n - 1 in vertex order, and an edge is tested once both its ends
    have values; no spanning tree is used."""
    earlier = [[] for _ in range(n)]
    for i, j in edge_list:
        earlier[max(i, j)].append(min(i, j))
    f = [0] * n
    out = []

    def extend(v):
        if v == n:
            out.append(tuple(f))
            return
        for x in range(-(n - 1), n):
            if all(abs(f[u] - x) in gaps for u in earlier[v]):
                f[v] = x
                extend(v + 1)

    extend(1)
    return out


def ref_facet_count(g: Graph) -> int:
    return len(ref_facet_vectors(g.n, edges(g)))


def ref_components(n, edge_list):
    """Components as sorted vertex lists, via DFS on an adjacency dict."""
    adj = {v: [] for v in range(n)}
    for i, j in edge_list:
        adj[i].append(j)
        adj[j].append(i)
    seen = set()
    comps = []
    for v in range(n):
        if v in seen:
            continue
        stack = [v]
        seen.add(v)
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def ref_reach(n, edge_list, start, allowed):
    """Vertices reachable from the start vertices while staying inside the
    allowed ones, as a sorted list, by BFS with a queue on an adjacency
    dict; start vertices outside allowed are dropped."""
    adj = {v: [] for v in range(n)}
    for i, j in edge_list:
        adj[i].append(j)
        adj[j].append(i)
    allowed = set(allowed)
    seen = set(start) & allowed
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w in allowed and w not in seen:
                seen.add(w)
                queue.append(w)
    return sorted(seen)


def ref_blocks(n, edge_list):
    """Vertex masks of the blocks, ascending. Two edges share a block exactly
    when no vertex v separates them: G - v has them in one component, an
    edge at v sitting with its other end. So the edges of a block are those
    with the same component in G - v for every v."""
    where = []
    for v in range(n):
        comps = ref_components(n, [e for e in edge_list if v not in e])
        where.append({u: k for k, comp in enumerate(comps) for u in comp})
    groups = {}
    for i, j in edge_list:
        key = tuple(where[v][j if i == v else i] for v in range(n))
        groups[key] = groups.get(key, 0) | 1 << i | 1 << j
    return sorted(groups.values())


def ref_two_coloring(n, edge_list):
    """A proper 2-coloring by DFS, or None if an odd cycle exists."""
    adj = {v: [] for v in range(n)}
    for i, j in edge_list:
        adj[i].append(j)
        adj[j].append(i)
    color = {}
    for v in range(n):
        if v in color:
            continue
        color[v] = 0
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    return None
    return color


def ref_complete_multipartite_parts(g: Graph):
    """Part sizes (ascending) if g is complete multipartite, else None: the
    parts are the components of the complement edge list, each independent."""
    co_edges = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                if not has_edge(g, i, j)]
    parts = ref_components(g.n, co_edges)
    if any(has_edge(g, i, j) for p in parts for i in p for j in p):
        return None
    return sorted(len(p) for p in parts)


def ref_is_complete_bipartite(g: Graph, a: int) -> bool:
    """g is K_{a,n-a}: a proper 2-coloring with parts of sizes a and n - a
    in which every vertex is adjacent to the whole other part."""
    if g.n < 2:
        return False
    parts = bipartition(g)
    if parts is None:
        return False
    p0, p1 = parts
    if sorted((p0.bit_count(), p1.bit_count())) != sorted((a, g.n - a)):
        return False
    return all(g.adj[v] == (p1 if p0 >> v & 1 else p0) for v in range(g.n))


def ref_is_one_sum_of_triangles(g: Graph) -> bool:
    """Connected, with at least one block and every block a triangle."""
    blks = ref_blocks(g.n, edges(g))
    return (len(ref_components(g.n, edges(g))) == 1 and bool(blks)
            and all(b.bit_count() == 3 for b in blks))


def ref_is_k4_plus_triangles(g: Graph) -> bool:
    """Connected, with exactly one block on 4 vertices, that block has 6
    edges, and every other block is a triangle."""
    if len(ref_components(g.n, edges(g))) != 1:
        return False
    big = [b for b in ref_blocks(g.n, edges(g)) if b.bit_count() != 3]
    return (len(big) == 1 and big[0].bit_count() == 4
            and sum((g.adj[u] & big[0]).bit_count() for u in iter_bits(big[0])) == 12)


def ref_is_conjectured_maximizer(g: Graph) -> bool:
    """The maximizer family of matching parity, by the explicit definitions."""
    return ref_is_one_sum_of_triangles(g) if g.n % 2 else ref_is_k4_plus_triangles(g)


def ref_is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Permutation brute force."""
    if g1.n != g2.n:
        return False
    target = set(edges(g2))
    for perm in itertools.permutations(range(g1.n)):
        mapped = {tuple(sorted((perm[i], perm[j]))) for i, j in edges(g1)}
        if mapped == target:
            return True
    return False


def ref_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of g as a vertex map (perm[v] is the image of v),
    by a backtracking search that picks the images of 0, 1, ... in turn and
    checks each against the edge set."""
    n = g.n
    edge_set = {frozenset(e) for e in edges(g)}
    degree = [sum(v in e for e in edge_set) for v in range(n)]
    found = []
    perm = []

    def extend():
        v = len(perm)
        if v == n:
            found.append(tuple(perm))
            return
        for image in range(n):
            if image in perm or degree[image] != degree[v]:
                continue
            if all((frozenset((u, v)) in edge_set)
                   == (frozenset((perm[u], image)) in edge_set) for u in range(v)):
                perm.append(image)
                extend()
                perm.pop()

    extend()
    return found


def ref_orbit_minima(group, n):
    """The subsets of range(n), as masks, that are least in their orbit under
    the permutation group given by all of its elements."""
    minima = []
    covered = set()
    for s in range(1 << n):
        if s in covered:
            continue
        minima.append(s)
        members = [v for v in range(n) if s >> v & 1]
        for perm in group:
            covered.add(sum(1 << perm[v] for v in members))
    return minima


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Apply the permutation old->new to every vertex."""
    rows = [0] * g.n
    for i, j in edges(g):
        a, b = perm[i], perm[j]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(g.n, tuple(rows))


def seeded_cacti():
    """1500 seeded graphs on up to 31 vertices: each a 1-sum of triangles on
    K3 or K4, relabeled at random, then left as it is, given an edge more or
    one less, or given an isolated vertex."""
    rng = random.Random(20231218)
    out = []
    for _ in range(1500):
        g = complete_graph(rng.choice((3, 4)))
        while g.n + 2 <= 30 and rng.random() < 0.9:
            g = one_sum(g, rng.randrange(g.n), complete_graph(3), rng.randrange(3))
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = relabel(g, perm)
        kind = rng.randrange(4)
        missing = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                   if not g.adj[i] >> j & 1]
        if kind == 1 and missing:
            g = from_edges(g.n, edges(g) + [rng.choice(missing)])
        elif kind == 2:
            g = delete_edge(g, *rng.choice(edges(g)))
        elif kind == 3:
            g = Graph(g.n + 1, g.adj + (0,))
        out.append(g)
    return out


def labeled_graphs(n):
    """Every labeled graph on n vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        yield from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


@st.composite
def graph_strategy(draw, min_n=1, max_n=6, connected=False):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [p for p in pairs if draw(st.booleans())]
    g = from_edges(n, chosen)
    if connected:
        assume(is_connected(g))
    return g
