"""Closed-form facet counts, conjectured bounds, and structural identities.

The closed forms cover complete multipartite graphs. The bound pair encodes
the conjectured min/max for connected graphs on n vertices, split by parity:

    odd n:   3 * 2^((n-1)/2) - 2  <=  N  <=  6^((n-1)/2)
    even n:  2^(n/2 + 1) - 2      <=  N  <=  14 * 6^(n/2 - 2)

Each side of the bracket has one equality test: is_balanced_complete_bipartite
(the minimizer K_{n//2,(n+1)//2}; is_star is the same test at K_{1,n-1}) and
is_conjectured_maximizer (1-sums of triangles, or of one K4 with triangles,
by edge count and block sizes; the edge count forces connectivity and K4).

suspension_recursion_bounds brackets a suspension's facet count by the
vertex recursion on a base vertex, and the harness tests computed counts
against it. classify_extremal takes any graph, disconnected ones included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graphs import (
    Graph,
    GraphError,
    blocks,
    closed_neighborhood,
    complement_rows,
    components,
    contract_vertex,
    delete_closed_neighborhood,
    delete_vertex,
    edge_count,
    full_mask,
    iter_bits,
    suspension,
)

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


def conjecture_bounds(n: int) -> BoundPair:
    """Conjectured facet-count bracket for connected graphs on n vertices.

    If every block of a graph lies in the bracket of its size, so does the
    graph: its count is the product of its blocks' counts, a 1-sum of a
    and b vertices has a + b - 1, and with K2's count 2 as lower(2) =
    upper(2), for all 2 <= a <= b

        upper(a) upper(b) <= upper(a + b - 1),
        lower(a) lower(b) >= lower(a + b - 1).

    Upper: upper(n) = u_n 6^floor(n/2) with u_n = 1 for odd n, 1/3 for
    n = 2 and 7/18 for even n >= 4. The exponents add up when a or b is
    odd, and exceed floor((a + b - 1)/2) by one when both are even. Two
    odd sizes give 1 * 1 = 1 (equality); one odd and one even give u_even
    <= 7/18, the factor of the even size a + b - 1 >= 4; two even sizes
    give 6 u_a u_b <= 6 (7/18)^2 < 1.

    Lower: lower(n) = x_n - 2 with x_n = 3 * 2^floor(n/2) for odd n and
    2 * 2^floor(n/2) for even n, so lower(a) lower(b) - lower(a + b - 1) =
    x_a x_b - x_{a+b-1} + 6 - 2 (x_a + x_b). With p = floor(a/2) >= 1,
    q = floor(b/2) >= 1 and s = floor((a + b - 1)/2), (2^p - 2)(2^q - 2)
    >= 0 gives 2^p + 2^q <= 2^(p+q-1) + 2, so the difference is at least:

    * a, b odd (p + q = s >= 2): 6 * 2^s + 6 - 6 (2^(s-1) + 2) = 3 * 2^s - 6 > 0;
    * one odd, a say (p + q = s >= 2, p <= s - 1): 4 * 2^s + 6 - 2 (3 * 2^p
      + 2 * 2^q), where 3 * 2^p + 2 * 2^q <= 2 (2^(s-1) + 2) + 2^(s-1), so
      at least 2^s - 2 > 0;
    * a, b even (p + q = s + 1): 5 * 2^s + 6 - 4 (2^s + 2) = 2^s - 2 >= 0.
    """
    if n < 3:
        raise ValueError("bounds are stated for n >= 3")
    if n % 2 == 1:
        k = (n - 1) // 2
        return BoundPair(3 * 2**k - 2, 6**k, "odd", n)
    k = n // 2
    return BoundPair(2 ** (k + 1) - 2, 14 * 6 ** (k - 2), "even", n)


def join_upper_bound(
    nhat1: int, nhat2: int, n1: int, n2: int, m1: int, m2: int
) -> int:
    """Upper bound for the facet count of a join of two graphs.

    nhat_i is the facet count of the suspension of factor i, n_i its vertex
    count, m_i its number of connected components. It exceeds the exact
    count of facets._count_join by 2^(m1 + m2) - 2^m1 - 2^m2 + 4 >= 4, so
    it is never tight.
    """
    return (
        nhat1
        + nhat2
        + 2**m1
        + 2**m2
        - 2
        + 4 * (2 ** (n1 - 1) - 1) * (2 ** (n2 - 1) - 1)
    )


def suspension_recursion_bounds(g: Graph, v: int,
                                counter: Callable[[Graph], int]) -> tuple[int, int]:
    """Bracket (lower, upper) of the vertex recursion at v on the facet count
    of the suspension of g, with counts from counter.

    deleted, contracted and middle count the suspensions of g - v, g / v and
    g minus the closed neighborhood of v. If that neighborhood covers g, the
    count is exactly deleted + contracted + 2; otherwise it lies between
    deleted + contracted and deleted + 2*middle + contracted.
    """
    if g.n < 2:
        raise GraphError("recursion check needs a base graph on >= 2 vertices")
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    deleted = counter(suspension(delete_vertex(g, v)))
    contracted = counter(suspension(contract_vertex(g, v)))
    if closed_neighborhood(g, v) == full_mask(g.n):
        return deleted + contracted + 2, deleted + contracted + 2
    middle = counter(suspension(delete_closed_neighborhood(g, v)))
    return deleted + contracted, deleted + 2 * middle + contracted


def complete_multipartite_parts(g: Graph) -> list[int] | None:
    """Part sizes (ascending) if g is complete multipartite, else None.

    A graph is complete multipartite exactly when its complement is a
    disjoint union of cliques, that is when each complement component is
    independent in g; the parts are those components.
    """
    parts = components(complement_rows(g.adj))
    if any(g.adj[v] & comp for comp in parts for v in iter_bits(comp)):
        return None
    return sorted(comp.bit_count() for comp in parts)


def is_star(g: Graph) -> bool:
    """g is the star K_{1,n-1}."""
    return _is_complete_bipartite(g, 1, edge_count(g))


def is_balanced_complete_bipartite(g: Graph) -> bool:
    """g is K_{a,n-a} with a = n // 2, the minimizer of the bracket."""
    return _is_complete_bipartite(g, g.n // 2, edge_count(g))


def _is_complete_bipartite(g: Graph, a: int, m: int) -> bool:
    """g, with m edges, is K_{a,n-a}: a(n - a) edges first, then the parts
    [a, n - a]."""
    return m == a * (g.n - a) and complete_multipartite_parts(g) == sorted((a, g.n - a))


def is_conjectured_maximizer(g: Graph) -> bool:
    """g is a 1-sum of triangles (odd n) or of one K4 with triangles (even
    n) on n >= 3 vertices, the conjectured maximizers.

    The test is 2m = 3n - 3 (odd n) or 2m = 3n (even n) on the m edges,
    then sorted block sizes all 3, plus one 4 when n is even; the edge
    count forces connectivity and the K4. With k components (isolated
    vertices included), t triangle blocks and e in {0, 1} blocks on 4
    vertices (at most 6 edges each), n = k + 2t + 3e and m <= 3t + 6e.
    Odd n (e = 0): 6t = 2m = 3n - 3 = 3k + 6t - 3 gives k = 1.
    Even n (e = 1): 3k + 6t + 9 = 3n = 2m <= 6t + 12 gives k = 1 and
    m = 3t + 6, so the 4-vertex block is K4, not C4 or K4 - e.
    """
    return _is_maximizer(g, edge_count(g))


def _is_maximizer(g: Graph, m: int) -> bool:
    """is_conjectured_maximizer for g with m edges."""
    if g.n < 3 or 2 * m != 3 * g.n - 3 * (g.n % 2):
        return False
    even = 1 - g.n % 2
    sizes = sorted(vmask.bit_count() for vmask in blocks(g.adj))
    return sizes == [3] * (len(sizes) - even) + [4] * even


def classify_extremal(g: Graph) -> str:
    """Tag of the first matching extremal family, or "none".

    Checked in order: star, balanced complete bipartite, 1-sum of
    triangles, K4 with triangles. The families overlap only at the 2-path,
    which reports as a star. A disconnected graph is "none": its complement is
    connected (one part, not two), and the maximizer edge count forces connectivity.
    """
    m = edge_count(g)
    if _is_complete_bipartite(g, 1, m):
        return STAR
    if _is_complete_bipartite(g, g.n // 2, m):
        return BALANCED_COMPLETE_BIPARTITE
    if _is_maximizer(g, m):
        return ONE_SUM_OF_TRIANGLES if g.n % 2 else K4_PLUS_TRIANGLES
    return NO_CLASS
