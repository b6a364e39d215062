"""Canonical forms and isomorph-free generation of small graphs.

The canonical certificate is the lexicographically smallest upper-triangle
bit string (column-major, the graph6 bit order) over all vertex orderings
whose degree sequence is sorted ascending. Restricting to degree-sorted
orderings is isomorphism-invariant, so equal certificates still mean
isomorphic graphs, and it turns the search into one permutation class per
degree multiset. A prefix-pruned branch and bound keeps it fast for n <= 10.

Generation works by augmentation: every (connected) graph on n vertices is
some (connected) graph on n-1 vertices plus one new vertex, so extending
each smaller class by every (nonempty) neighborhood and deduplicating by
certificate yields exactly one representative per class.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .graphs import Graph, GraphError
from .limits import canonical_limit, generator_limit

CONNECTED_CLASS_COUNTS = (1, 1, 2, 6, 21, 112, 853)
ALL_CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044)


def canonical_form(g: Graph) -> bytes:
    """Certificate bytes: equal iff the graphs are isomorphic."""
    cap = canonical_limit()
    if g.n > cap:
        raise GraphError(f"canonical form limited to {cap} vertices, got {g.n}")
    n = g.n
    adj = g.adj
    degs = [adj[v].bit_count() for v in range(n)]
    target = sorted(degs)

    best: list[int] | None = None
    placed: list[int] = []
    used = [False] * n
    chunks: list[int] = []

    def descend(k: int) -> None:
        nonlocal best
        if k == n:
            if best is None or chunks < best:
                best = list(chunks)
            return
        want = target[k]
        options = []
        for u in range(n):
            if used[u] or degs[u] != want:
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
            used[u] = True
            placed.append(u)
            chunks.append(chunk)
            descend(k + 1)
            chunks.pop()
            placed.pop()
            used[u] = False

    descend(0)
    assert best is not None
    bits = 0
    nbits = 0
    for k in range(n):
        bits = (bits << k) | best[k]
        nbits += k
    pad = (-nbits) % 8
    packed = (bits << pad).to_bytes((nbits + pad) // 8, "big") if nbits else b""
    return bytes([n]) + packed


def _with_new_vertex(parent: Graph, nbhd: int) -> Graph:
    n = parent.n + 1
    rows = [parent.adj[v] | ((nbhd >> v & 1) << (n - 1)) for v in range(parent.n)]
    rows.append(nbhd)
    return Graph(n, tuple(rows))


@lru_cache(maxsize=None)
def _classes(n: int, connected_only: bool) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    parents = _classes(n - 1, connected_only)
    lowest = 1 if connected_only else 0
    seen: dict[bytes, Graph] = {}
    for parent in parents:
        for nbhd in range(lowest, 1 << (n - 1)):
            candidate = _with_new_vertex(parent, nbhd)
            cert = canonical_form(candidate)
            if cert not in seen:
                seen[cert] = candidate
    return tuple(seen[c] for c in sorted(seen))


def generate_connected(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on n vertices."""
    cap = generator_limit()
    if not 1 <= n <= cap:
        raise GraphError(
            f"internal generator limited to n <= {cap}; ingest graph6 for larger n"
        )
    return iter(_classes(n, True))


def generate_all(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of all simple graphs on n vertices."""
    cap = generator_limit()
    if not 1 <= n <= cap:
        raise GraphError(
            f"internal generator limited to n <= {cap}; ingest graph6 for larger n"
        )
    return iter(_classes(n, False))


def _labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices (reference path for tests)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield Graph(n, tuple(rows))
