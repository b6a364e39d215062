"""Canonical forms and isomorph-free generation of small graphs.

The canonical certificate is the lexicographically smallest upper-triangle
bit string (column-major, the graph6 bit order) over all vertex orderings
whose degree sequence is sorted ascending. Restricting to degree-sorted
orderings is isomorphism-invariant, so equal certificates still mean
isomorphic graphs, and it turns the search into one permutation class per
degree multiset. A prefix-pruned branch and bound keeps it fast for n <= 10.
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
candidate that adds x to the class of G - x passes.

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
from typing import Iterator

from .graphs import Graph, GraphError, reach
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
    target = sorted(degs)
    earlier_twins = [0] * n
    for u in range(n):
        for w in range(u):
            if (adj[u] & ~(1 << w)) == (adj[w] & ~(1 << u)):
                earlier_twins[u] |= 1 << w

    best: list[int] | None = None
    best_order: list[int] = []
    ties: list[list[int]] = []
    placed: list[int] = []
    unplaced = (1 << n) - 1
    chunks: list[int] = []

    def descend(k: int) -> None:
        nonlocal best, unplaced
        if k == n:
            if chunks == best:
                ties.append(list(placed))
            elif best is None or chunks < best:
                best = list(chunks)
                best_order[:] = placed
                ties.clear()
            return
        want = target[k]
        options = []
        for u in range(n):
            if not unplaced >> u & 1 or degs[u] != want or earlier_twins[u] & unplaced:
                continue
            chunk = 0
            row = adj[u]
            for i in range(k):
                chunk = (chunk << 1) | (row >> placed[i] & 1)
            options.append((chunk, u))
        options.sort()
        for chunk, u in options:
            if best is not None:
                prefix = best[k]
                if chunks == best[:k]:
                    if chunk > prefix:
                        break
            unplaced ^= 1 << u
            placed.append(u)
            chunks.append(chunk)
            descend(k + 1)
            chunks.pop()
            placed.pop()
            unplaced ^= 1 << u

    descend(0)
    assert best is not None
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


def _passes_deletion_rule(rows: list[int], connected_only: bool) -> bool:
    """The deletion rule: no old vertex u has a smaller degree than the new
    (last) vertex while deleting u keeps the graph in the family."""
    new = len(rows) - 1
    d = rows[new].bit_count()
    full = (1 << len(rows)) - 1
    for u in range(new):
        if rows[u].bit_count() < d:
            rest = full ^ (1 << u)
            if not connected_only or reach(rows, 1 << new, rest) == rest:
                return False
    return True


@lru_cache(maxsize=None)
def _classes(n: int, connected_only: bool) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    parents = _classes(n - 1, connected_only)
    new = n - 1
    lowest = 1 if connected_only else 0
    seen: dict[bytes, Graph] = {}
    for parent in parents:
        for nbhd in _orbit_minima(_search(parent.adj)[1], new, lowest):
            rows = [parent.adj[v] | (nbhd >> v & 1) << new for v in range(new)]
            rows.append(nbhd)
            if not _passes_deletion_rule(rows, connected_only):
                continue
            cert = _search(rows)[0]
            if cert not in seen:
                seen[cert] = Graph(n, tuple(rows))
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
