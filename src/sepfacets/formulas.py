"""Closed-form facet counts, conjectured bounds, and structural identities.

The closed forms cover complete multipartite graphs and products over
1-sums. The bound pair encodes the conjectured min/max for connected graphs
on n vertices, split by parity:

    odd n:   3 * 2^((n-1)/2) - 2  <=  N  <=  6^((n-1)/2)
    even n:  2^(n/2 + 1) - 2      <=  N  <=  14 * 6^(n/2 - 2)

The recursion checks exercise the suspension identities: removing,
contracting, or clearing the closed neighborhood of a base vertex bounds
(or, for a dominating vertex, determines) the suspension's facet count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graphs import (
    Graph,
    GraphError,
    bipartition,
    blocks,
    closed_neighborhood,
    complement,
    components,
    contract_vertex,
    delete_closed_neighborhood,
    delete_vertex,
    edge_count,
    full_mask,
    induced,
    is_connected,
    suspension,
)

Counter = Callable[[Graph], int]

STAR = "star"
BALANCED_COMPLETE_BIPARTITE = "balanced_complete_bipartite"
ONE_SUM_OF_TRIANGLES = "one_sum_of_triangles"
K4_PLUS_TRIANGLES = "k4_plus_triangles"
NO_CLASS = "none"


@dataclass(frozen=True)
class BoundPair:
    lower: int
    upper: int
    parity: str
    n: int


@dataclass(frozen=True)
class RecursionCheck:
    """Outcome of the vertex-removal recursion on a suspension.

    lower/upper are the derived bracket for the suspension's count; on the
    equality branch (closed neighborhood covers the base) they coincide.
    """

    equality_branch: bool
    total: int
    deleted: int
    contracted: int
    middle: int | None
    lower: int
    upper: int
    passed: bool


@dataclass(frozen=True)
class DoubleSuspensionCheck:
    twice: int
    once: int
    addend: int
    passed: bool


def n_complete_bipartite(l: int, m: int) -> int:
    """Facet count of the complete bipartite graph with parts l, m."""
    if l < 1 or m < 1:
        raise ValueError("part sizes must be positive")
    return 2**l + 2**m - 2


def n_complete_multipartite(parts: list[int]) -> int:
    """Facet count of a complete multipartite graph with >= 3 parts."""
    if len(parts) < 3:
        raise ValueError("need at least 3 parts; use n_complete_bipartite for 2")
    if any(p < 1 for p in parts):
        raise ValueError("part sizes must be positive")
    total = sum(parts)
    return 2**total - sum(2**p - 2 for p in parts) - 2


def n_one_sum(n1: int, n2: int) -> int:
    """Facet count of a 1-sum from the counts of its two summands."""
    if n1 < 1 or n2 < 1:
        raise ValueError("facet counts must be positive")
    return n1 * n2


def conjecture_bounds(n: int) -> BoundPair:
    """Conjectured facet-count bracket for connected graphs on n vertices."""
    if n < 3:
        raise ValueError("bounds are stated for n >= 3")
    if n % 2 == 1:
        k = (n - 1) // 2
        return BoundPair(3 * 2**k - 2, 6**k, "odd", n)
    k = n // 2
    return BoundPair(2 ** (k + 1) - 2, 14 * 6 ** (k - 2), "even", n)


def bipartite_minimum(n: int) -> int:
    """Smallest facet count among connected bipartite graphs on n vertices,
    attained exactly by the balanced complete bipartite graph."""
    if n < 2:
        raise ValueError("needs n >= 2")
    if n % 2 == 1:
        return 3 * 2 ** ((n - 1) // 2) - 2
    return 2 ** (n // 2 + 1) - 2


def join_upper_bound(
    nhat1: int, nhat2: int, n1: int, n2: int, m1: int, m2: int
) -> int:
    """Upper bound for the facet count of a join of two graphs.

    nhat_i is the facet count of the suspension of factor i, n_i its vertex
    count, m_i its number of connected components.
    """
    return (
        nhat1
        + nhat2
        + 2**m1
        + 2**m2
        - 2
        + 4 * (2 ** (n1 - 1) - 1) * (2 ** (n2 - 1) - 1)
    )


def suspension_recursion_check(g: Graph, v: int, counter: Counter) -> RecursionCheck:
    """Check the vertex recursion for the suspension of g at base vertex v.

    If the closed neighborhood of v covers g, the suspension count equals
    deleted + contracted + 2 exactly; otherwise it lies between
    deleted + contracted and deleted + 2*middle + contracted, where middle
    counts the suspension after clearing the closed neighborhood.
    """
    if g.n < 2:
        raise GraphError("recursion check needs a base graph on >= 2 vertices")
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    total = counter(suspension(g))
    deleted = counter(suspension(delete_vertex(g, v)))
    contracted = counter(suspension(contract_vertex(g, v)))
    if closed_neighborhood(g, v) == full_mask(g.n):
        exact = deleted + contracted + 2
        return RecursionCheck(True, total, deleted, contracted, None,
                              exact, exact, total == exact)
    middle = counter(suspension(delete_closed_neighborhood(g, v)))
    lower = deleted + contracted
    upper = deleted + 2 * middle + contracted
    return RecursionCheck(False, total, deleted, contracted, middle,
                          lower, upper, lower <= total <= upper)


def double_suspension_check(g: Graph, counter: Counter) -> DoubleSuspensionCheck:
    """Check that suspending twice adds exactly 2^(|V(g)|+1) facets."""
    if g.n < 2:
        raise GraphError("double suspension check needs a base on >= 2 vertices")
    once = counter(suspension(g))
    twice = counter(suspension(suspension(g)))
    addend = 2 ** (g.n + 1)
    return DoubleSuspensionCheck(twice, once, addend, twice == once + addend)


def complete_multipartite_parts(g: Graph) -> list[int] | None:
    """Part sizes (ascending) if g is complete multipartite, else None.

    A graph is complete multipartite exactly when its complement is a
    disjoint union of cliques; the parts are the complement's components.
    """
    co = complement(g)
    parts = []
    for comp in components(co):
        size = comp.bit_count()
        if size > 1 and edge_count(induced(co, comp)) != size * (size - 1) // 2:
            return None
        parts.append(size)
    return sorted(parts)


def n_from_multipartite_parts(parts: list[int]) -> int:
    """Closed-form facet count for the given part sizes (any s >= 2)."""
    if len(parts) < 2:
        raise ValueError("a connected complete multipartite graph needs >= 2 parts")
    if len(parts) == 2:
        return n_complete_bipartite(parts[0], parts[1])
    return n_complete_multipartite(parts)


def is_star(g: Graph) -> bool:
    """One center adjacent to all others, no other edges."""
    if g.n < 2:
        return False
    if edge_count(g) != g.n - 1:
        return False
    return any(g.adj[v].bit_count() == g.n - 1 for v in range(g.n))


def is_balanced_complete_bipartite(g: Graph) -> bool:
    if g.n < 2:
        return False
    parts = bipartition(g)
    if parts is None:
        return False
    a, b = parts
    sizes = sorted((a.bit_count(), b.bit_count()))
    if sizes != [g.n // 2, (g.n + 1) // 2]:
        return False
    for v in range(g.n):
        other = b if a >> v & 1 else a
        if g.adj[v] != other:
            return False
    return True


def is_one_sum_of_triangles(g: Graph) -> bool:
    """Every block is a triangle (and there is at least one).

    Such a graph has n odd and 3(n - 1)/2 edges, checked before blocks().
    """
    if g.n % 2 == 0 or 2 * edge_count(g) != 3 * (g.n - 1):
        return False
    blks = blocks(g)
    if not blks or not is_connected(g):
        return False
    return all(v.bit_count() == 3 and len(e) == 3 for v, e in blks)


def is_k4_plus_triangles(g: Graph) -> bool:
    """Exactly one K4 block, every other block a triangle.

    Such a graph has n even, n >= 4 and 3n/2 edges, checked before blocks().
    """
    if g.n % 2 or g.n < 4 or 2 * edge_count(g) != 3 * g.n:
        return False
    if not is_connected(g):
        return False
    k4 = 0
    for vmask, blk_edges in blocks(g):
        nv, ne = vmask.bit_count(), len(blk_edges)
        if (nv, ne) == (4, 6):
            k4 += 1
        elif (nv, ne) != (3, 3):
            return False
    return k4 == 1


def classify_extremal(g: Graph) -> str:
    """Tag of the first matching extremal family, or "none".

    Checked in order: star, balanced complete bipartite, 1-sum of
    triangles, K4 with triangles. The families overlap only at the 2-path,
    which reports as a star.
    """
    if not is_connected(g):
        raise GraphError("extremal classification requires a connected graph")
    if is_star(g):
        return STAR
    if is_balanced_complete_bipartite(g):
        return BALANCED_COMPLETE_BIPARTITE
    if is_one_sum_of_triangles(g):
        return ONE_SUM_OF_TRIANGLES
    if is_k4_plus_triangles(g):
        return K4_PLUS_TRIANGLES
    return NO_CLASS
