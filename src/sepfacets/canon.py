"""Canonical forms and isomorph-free generation of small graphs.

The canonical certificate is the lexicographically smallest upper-triangle
bit string (column-major, the graph6 bit order) over all vertex orderings
whose degree sequence is sorted ascending. Restricting to degree-sorted
orderings is isomorphism-invariant, so equal certificates still mean
isomorphic graphs, and it turns the search into one permutation class per
degree multiset. A prefix-pruned branch and bound keeps it fast for n <= 10.
Each level draws its candidates from a mask of the vertices of its degree,
carries a flag saying whether its prefix still equals the best ordering's
(only then can a chunk be pruned), and the forced last vertex is placed
without a level of its own.
The search also skips a vertex while an earlier twin of it (same
neighbourhood apart from each other) is unplaced: swapping two twins is an
automorphism fixing every other vertex, so that subtree repeats one already
searched, and complete graphs, stars and K_{a,b} no longer cost n! leaves.

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
the certificate search itself: every leaf that ties with the best ordering
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

    The search places one vertex per level k, taking the candidates from the
    pool of vertices whose degree is the k-th smallest (a mask made once per
    degree, ANDed with the unplaced ones) in the order of their chunk, the
    bits of their row at the vertices already placed. Each level is told
    whether its prefix equals the best ordering's (tight): only a tight
    level compares its chunks with the best one's, and stops at the first
    larger chunk, and a level becomes tight again when a leaf below it
    improves the best, since that leaf shares its prefix. The last vertex
    is forced and is placed inline, with no level of its own. Twins are
    looked for within a pool only: N(u) - w = N(w) - u gives u and w equal
    degrees, as w is in N(u) exactly when u is in N(w).

    The generators are the automorphisms the search meets: the swap of each
    vertex with its first earlier twin (the twins it skips), and for each
    leaf that ties with the best ordering the map from the best ordering to
    that leaf's. They generate the whole group: an automorphism carries the
    best ordering to another best ordering, and twin swaps turn that one
    into a best ordering that places each set of twins in index order, which
    is a leaf the search visits (the bound prunes only prefixes above the
    best).
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

    best: list[int] = []
    best_order: list[int] = []
    ties: list[list[int]] = []
    placed: list[int] = []
    chunks: list[int] = []
    last = n - 1

    def descend(k: int, unplaced: int, tight: bool) -> bool:
        """Search below the prefix placed; True if a leaf improved best."""
        nonlocal best
        if k == last:
            u = unplaced.bit_length() - 1
            row = adj[u]
            chunk = 0
            for v in placed:
                chunk = (chunk << 1) | (row >> v & 1)
            if tight:
                if chunk > best[k]:
                    return False
                if chunk == best[k]:
                    ties.append(placed + [u])
                    return False
            best = chunks + [chunk]
            best_order[:] = placed
            best_order.append(u)
            ties.clear()
            return True
        options = []
        free = level_pool[k] & unplaced
        while free:
            low = free & -free
            free ^= low
            u = low.bit_length() - 1
            if earlier_twins[u] & unplaced:
                continue
            row = adj[u]
            chunk = 0
            for v in placed:
                chunk = (chunk << 1) | (row >> v & 1)
            options.append((chunk, u))
        options.sort()
        improved = False
        for chunk, u in options:
            if tight:
                if chunk > best[k]:
                    break
                child_tight = chunk == best[k]
            else:
                child_tight = False
            placed.append(u)
            chunks.append(chunk)
            if descend(k + 1, unplaced ^ 1 << u, child_tight):
                improved = tight = True
            chunks.pop()
            placed.pop()
        return improved

    descend(0, (1 << n) - 1, False)
    bits = 0
    nbits = 0
    for k in range(n):
        bits = (bits << k) | best[k]
        nbits += k
    pad = (-nbits) % 8
    packed = (bits << pad).to_bytes((nbits + pad) // 8, "big") if nbits else b""

    generators = []
    for u in range(n):
        if earlier_twins[u]:
            w = (earlier_twins[u] & -earlier_twins[u]).bit_length() - 1
            perm = list(range(n))
            perm[u], perm[w] = w, u
            generators.append(perm)
    for order in ties:
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
