"""Shared strategies and independent reference implementations.

The reference routines here deliberately avoid the package's bitmask and
spanning-tree machinery: facet counting enumerates raw integer labelings,
connectivity uses union-find on edge lists, coloring uses DFS. They are the
oracles the fast paths are checked against.
"""

import itertools

import hypothesis
import hypothesis.strategies as st
from hypothesis import assume

from sepfacets.graphs import Graph, edges, from_edges, is_connected

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


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Apply the permutation old->new to every vertex."""
    rows = [0] * g.n
    for i, j in edges(g):
        a, b = perm[i], perm[j]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(g.n, tuple(rows))


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
