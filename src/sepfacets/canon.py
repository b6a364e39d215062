"""Canonical forms and isomorph-free generation of small graphs.

The canonical certificate is the lexicographically smallest upper-triangle
bit string (column-major, the graph6 bit order) over all vertex orderings
whose degree sequence is sorted ascending. Restricting to degree-sorted
orderings is isomorphism-invariant, so equal certificates still mean
isomorphic graphs, and it turns the search into one permutation class per
degree multiset. The search keeps it fast for n <= 10 by going level by
level over the frontier of tied prefixes: each level extends every prefix
still tied for least by each vertex of the next degree, and keeps only the
extensions whose new bits are least, so a prefix is dropped at the first
level where another one has smaller bits.
The search also skips a vertex while an earlier twin of it (same
neighbourhood apart from each other) is unplaced: swapping two twins is an
automorphism fixing every other vertex, so that extension repeats one
already made, and complete graphs, stars and K_{a,b} no longer cost n!
orderings.

Generation works by augmentation: every (connected) graph on n vertices is
some (connected) graph on n-1 vertices plus one new vertex, so extending
each smaller class by every (nonempty) neighborhood and deduplicating by
certificate yields exactly one representative per class. A candidate is
only certified when its new vertex passes a canonical-deletion rule (after
McKay, Isomorph-free exhaustive generation, 1998): no old vertex has a
smaller degree while deleting it keeps the graph in the family. No class is
lost: a class has a vertex x of least degree among those whose deletion
keeps it in the family (every leaf of a spanning tree is one), and the
candidate that adds x to the class of G - x passes. The rule is decided
from pieces of the parent made once, before any child's rows: an old
vertex u has degree deg(u) + (u in nbhd) in the child, and deleting it
keeps the child connected exactly when every component of parent - u meets
the new vertex's neighbourhood.

Each parent is extended only by the neighbourhoods that are least in their
orbit under its automorphism group (an orbit closure over the 2^(n-1)
subsets). Neighbourhoods in one orbit give children isomorphic by a map
fixing the new vertex, so they share one certificate and pass or fail the
deletion rule together. The first candidate seen for each class is thus an
orbit minimum already, and the classes, representatives and their order are
those of extending by every neighbourhood. The group's generators come from
the certificate search itself: every ordering that ties with the best one
is an automorphism, and so is every twin swap it skips. They are found by
searching each parent once more when it is extended, not kept, so a level
holds no more than its tuple of graphs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator

from .graphs import _K1, Graph, GraphError, _bare_graph, components
from .limits import canonical_limit, generator_limit


def canonical_form(g: Graph) -> bytes:
    """Certificate bytes: equal iff the graphs are isomorphic."""
    cap = canonical_limit()
    if g.n > cap:
        raise GraphError(f"canonical form limited to {cap} vertices, got {g.n}")
    return _search(g.adj)[0]


def _search(adj: tuple[int, ...] | list[int]) -> tuple[bytes, list[list[int]]]:
    """canonical_form of the graph with rows adj, with no size check, and
    generators of its automorphism group as vertex maps (perm[v] is the
    image of v).

    The search places one vertex per level k over a frontier of prefixes
    that all tie for the least certificate bits so far, kept in lexicographic
    order of their vertex sequences. Each prefix, in frontier order, is
    extended by the unplaced vertices of the pool of the k-th smallest degree
    (a mask made once per degree) in ascending index, each giving its chunk,
    the bits of its row at the vertices already placed. Only the extensions
    with the level's least chunk are kept, in that order, so the frontier
    stays in lexicographic order, and that chunk is the certificate's k-th.
    After the last level the frontier holds the best orderings: frontier[0] is
    the lexicographically first, the one a depth-first branch and bound over
    the same candidates meets first, and the others tie with it. That search
    visits every prefix of every frontier too, so this one extends no more.
    Twins are looked for within a pool only: N(u) - w = N(w) - u gives u and
    w equal degrees, as w is in N(u) exactly when u is in N(w).

    The generators are the automorphisms the search meets: the swap of each
    vertex with its first earlier twin (the twins it skips), and for each
    later ordering of the last frontier the map from frontier[0] to it. They
    generate the whole group: an automorphism carries the best ordering to
    another best ordering, and twin swaps turn that one into a best ordering
    that places each set of twins in index order, which the last frontier
    holds (a prefix is dropped only when another at its level has a smaller
    chunk, or when it places a vertex before an earlier twin of it).
    """
    n = len(adj)
    degs = [adj[v].bit_count() for v in range(n)]
    pools: dict[int, int] = {}
    for v in range(n):
        pools[degs[v]] = pools.get(degs[v], 0) | 1 << v
    level_pool = [pools[d] for d in sorted(degs)]
    earlier_twins = [0] * n
    for u in range(n):
        same = pools[degs[u]] & ((1 << u) - 1)
        while same:
            low = same & -same
            same ^= low
            if adj[u] & ~low == adj[low.bit_length() - 1] & ~(1 << u):
                earlier_twins[u] |= low

    frontier: list[tuple[tuple[int, ...], int]] = [((), (1 << n) - 1)]
    bits = 0
    for k in range(n):
        least = 1 << k
        kept = []
        for order, unplaced in frontier:
            free = level_pool[k] & unplaced
            while free:
                low = free & -free
                free ^= low
                u = low.bit_length() - 1
                if earlier_twins[u] & unplaced:
                    continue
                row = adj[u]
                chunk = 0
                for v in order:
                    chunk = (chunk << 1) | (row >> v & 1)
                if chunk < least:
                    least = chunk
                    kept = [(order + (u,), unplaced ^ low)]
                elif chunk == least:
                    kept.append((order + (u,), unplaced ^ low))
        frontier = kept
        bits = (bits << k) | least
    nbits = n * (n - 1) // 2
    pad = (-nbits) % 8
    packed = (bits << pad).to_bytes((nbits + pad) // 8, "big") if nbits else b""

    generators = []
    for u in range(n):
        if earlier_twins[u]:
            w = (earlier_twins[u] & -earlier_twins[u]).bit_length() - 1
            perm = list(range(n))
            perm[u], perm[w] = w, u
            generators.append(perm)
    best_order = frontier[0][0]
    for order, _ in frontier[1:]:
        perm = [0] * n
        for v, image in zip(best_order, order):
            perm[v] = image
        generators.append(perm)
    return bytes([n]) + packed, generators


def _orbit_minima(generators: list[list[int]], new: int, lowest: int) -> list[int]:
    """The masks in range(lowest, 2**new) that are least in their orbit under
    the group the generators (vertex maps on range(new)) generate."""
    size = 1 << new
    images = []
    for perm in generators:
        image = [0] * size
        for s in range(1, size):
            low = s & -s
            image[s] = image[s ^ low] | 1 << perm[low.bit_length() - 1]
        images.append(image)
    seen = bytearray(size)
    minima = []
    for s in range(lowest, size):
        if seen[s]:
            continue
        minima.append(s)
        seen[s] = 1
        stack = [s]
        while stack:
            t = stack.pop()
            for image in images:
                u = image[t]
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
    return minima


def _deletion_rule(adj: tuple[int, ...], connected_only: bool) -> Callable[[int], bool]:
    """The deletion rule for the children of the graph with rows adj, as a
    test of the new vertex's neighbourhood: it passes when no old vertex u
    has a smaller degree than the new vertex while deleting u keeps the
    child in the family.

    The test reads only pieces of the parent, made once: in the child, u has
    degree deg(u) + (u in nbhd) and the new vertex |nbhd|, and child - u is
    parent - u plus the new vertex, which is connected exactly when every
    component of parent - u meets nbhd. Without connected_only every
    deletion keeps the child in the family, and no component has to be met.
    """
    new = len(adj)
    full = (1 << new) - 1
    degs = [row.bit_count() for row in adj]
    pieces = [components(adj, full ^ 1 << u) if connected_only else [] for u in range(new)]

    def passes(nbhd: int) -> bool:
        d = nbhd.bit_count()
        for u in range(new):
            if degs[u] + (nbhd >> u & 1) < d and all(p & nbhd for p in pieces[u]):
                return False
        return True

    return passes


@lru_cache(maxsize=None)
def _classes(n: int, connected_only: bool) -> tuple[Graph, ...]:
    if n == 1:
        return (_K1,)
    parents = _classes(n - 1, connected_only)
    new = n - 1
    lowest = 1 if connected_only else 0
    seen: dict[bytes, Graph] = {}
    for parent in parents:
        passes = _deletion_rule(parent.adj, connected_only)
        for nbhd in _orbit_minima(_search(parent.adj)[1], new, lowest):
            if not passes(nbhd):
                continue
            rows = [parent.adj[v] | (nbhd >> v & 1) << new for v in range(new)]
            rows.append(nbhd)
            cert = _search(rows)[0]
            if cert not in seen:
                seen[cert] = _bare_graph(n, tuple(rows))
    return tuple(seen[c] for c in sorted(seen))


def _generated(n: int, connected_only: bool) -> Iterator[Graph]:
    cap = generator_limit()
    if not 1 <= n <= cap:
        raise GraphError(f"internal generator needs n >= 1, got {n}" if n < 1
                         else f"internal generator limited to n <= {cap}; "
                         "ingest graph6 for larger n")
    return iter(_classes(n, connected_only))


def generate_connected(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on n vertices."""
    return _generated(n, True)


def generate_all(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of all simple graphs on n vertices."""
    return _generated(n, False)
