"""Facet counting for the symmetric edge polytope of a connected graph.

Three routes are implemented and cross-checked by the test harness. The
second counts joins through the third, so the third is checked against the
whole-graph sum over enumerate_facet_subgraphs, which never splits a join:

* enumerate_facets_oracle walks integer vertex labelings directly. A facet
  corresponds to a labeling f with f fixed to 0 at vertex 0, |f(i)-f(j)| <= 1
  on every edge, and the set of edges where the difference is exactly 1
  forming a spanning connected subgraph. Differences are enumerated on a
  spanning tree (3^(n-1) candidates) instead of raw values.

* count_facets multiplies over biconnected blocks, since the count is
  multiplicative under 1-sums. A block whose complement is disconnected is
  a join G1 + G2 and is counted by the join identity (_count_join, which
  derives it): with n_i vertices and c_i components in G_i and N^ the
  domination count below,
      N = (2^n1 - 2)(2^n2 - 2) - (2^c1 - 2)(2^c2 - 2) + N^(G1) + N^(G2) - 2.
  Any other block is a cut scan: it sums multiplicities over the unordered
  bipartitions (V1, V2) whose crossing edges form a spanning connected
  subgraph. Each such cut contributes the facet count of the bipartite
  quotient obtained by contracting all non-crossing edges, counted on
  bitmasks without building a Graph. The scan reads every neighbourhood of
  a vertex set from two tables of 2^(n/2) entries (_union_tables). mu_of
  recomputes a cut's multiplicity through contract_edges and
  count_bipartite_strict instead, and the whole-graph sum over
  enumerate_facet_subgraphs is the cut count with no join split.

* count_suspension_via_domination counts facets of the suspension of a base
  graph by scanning dominating sets S of the base: each contributes
  2^(number of components induced on S). A base that is itself a join is
  split first: N^(A + B) = 2 (2^a - 1)(2^b - 1) + N^(A) + N^(B).

Scans over more than MAX_SCAN_VERTICES vertices are refused with GraphError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .graphs import (
    Edge,
    Graph,
    GraphError,
    Mask,
    bipartition,
    bit,
    blocks,
    component_count,
    component_count_within,
    contract_edges,
    edges,
    full_mask,
    induced,
    is_connected,
    iter_bits,
    reach,
)
from .limits import MAX_SCAN_VERTICES


@dataclass(frozen=True)
class FacetFunction:
    """Normalized facet-defining labeling: values[0] == 0."""

    values: tuple[int, ...]

    def strict_edges(self, g: Graph) -> list[Edge]:
        """Edges of g where the labels differ (always by exactly 1)."""
        return [(i, j) for i, j in edges(g) if self.values[i] != self.values[j]]


@dataclass(frozen=True)
class FacetSubgraph:
    """A spanning connected cut of the source graph, with multiplicity.

    part1 holds vertex 0; cross_edges are all source edges between the parts;
    mu is the number of facets whose strict edge set is exactly this cut.
    """

    part1: Mask
    part2: Mask
    cross_edges: tuple[Edge, ...]
    mu: int


def _require_connected(g: Graph) -> None:
    if g.n < 2 or not is_connected(g):
        raise GraphError("facet counting requires a connected graph on >= 2 vertices")


def _bfs_tree(g: Graph) -> list[Edge]:
    """Spanning tree edges as (parent, child), parents discovered first."""
    seen = 1
    order = [0]
    tree = []
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for w in iter_bits(g.adj[u] & ~seen):
            seen |= bit(w)
            order.append(w)
            tree.append((u, w))
    return tree


def enumerate_facets_oracle(g: Graph) -> list[FacetFunction]:
    """All facet-defining labelings, sorted by value vector.

    Each spanning-tree edge gets a difference in {-1, 0, +1}; the root value
    is 0, so every labeling satisfying the edge condition appears exactly
    once. Candidates are kept when every non-tree edge differs by at most 1
    and the strict edges span and connect the graph.
    """
    _require_connected(g)
    n = g.n
    tree = _bfs_tree(g)
    tree_set = {(min(e), max(e)) for e in tree}
    rest = [e for e in edges(g) if e not in tree_set]
    all_edges = edges(g)
    full = full_mask(n)

    found = set()
    values = [0] * n
    for diffs in product((-1, 0, 1), repeat=n - 1):
        for (p, c), d in zip(tree, diffs):
            values[c] = values[p] + d
        ok = True
        for i, j in rest:
            if abs(values[i] - values[j]) > 1:
                ok = False
                break
        if not ok:
            continue
        rows = [0] * n
        for i, j in all_edges:
            if values[i] != values[j]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        if reach(rows, 1, full) == full:
            found.add(tuple(values))
    return [FacetFunction(v) for v in sorted(found)]


def _strict_labelings(nbrs: list[Mask]) -> int:
    """Homomorphisms from a connected bipartite graph into the integer path.

    nbrs[k] is the neighbour mask of vertex k; the root 0 is labelled 0.
    Vertices are labelled in BFS order, so every vertex after the root has
    a labelled neighbour. Those neighbours all share one parity, and the
    vertex may take a value adjacent to each of them: two values when they
    agree, one when they span 2, none otherwise. A tree skips the search:
    each of its q - 1 edges picks a sign freely.
    """
    q = len(nbrs)
    if sum(row.bit_count() for row in nbrs) == 2 * (q - 1):
        return 1 << (q - 1)
    order = [0]
    index = [0] * q
    seen = 1
    for k in order:
        for j in iter_bits(nbrs[k] & ~seen):
            seen |= 1 << j
            index[j] = len(order)
            order.append(j)
    back = []
    for i, k in enumerate(order):
        back.append([index[j] for j in iter_bits(nbrs[k]) if index[j] < i])
    last = q - 1
    vals = [0] * q

    def extend(i: int) -> int:
        lo = hi = vals[back[i][0]]
        for u in back[i]:
            v = vals[u]
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
        if lo == hi:
            if i == last:
                return 2
            vals[i] = lo - 1
            total = extend(i + 1)
            vals[i] = lo + 1
            return total + extend(i + 1)
        if hi - lo == 2:
            if i == last:
                return 1
            vals[i] = lo + 1
            return extend(i + 1)
        return 0

    return extend(1)


def _union_tables(adj: tuple[Mask, ...] | list[Mask]) -> tuple[list[Mask], list[Mask], int]:
    """Neighbourhood-union tables (lo, hi, h) for the rows adj.

    N(m), the union of the rows of the vertices in m, is
    lo[m & (2^h - 1)] | hi[m >> h]: lo covers the low h = n // 2 vertices
    and hi the rest, so 2^(n // 2) + 2^(n - n // 2) entries serve every
    one of the 2^n sets. Scans over more than MAX_SCAN_VERTICES vertices
    are refused here, before any table is built.
    """
    n = len(adj)
    if n > MAX_SCAN_VERTICES:
        raise GraphError(
            f"a {n}-vertex block is too large to scan: 2^{n - 1} or more vertex "
            f"sets (a scan takes at most {MAX_SCAN_VERTICES} vertices)")
    h = n // 2
    lo = [0]
    for row in adj[:h]:
        lo += [u | row for u in lo]
    hi = [0]
    for row in adj[h:]:
        hi += [u | row for u in hi]
    return lo, hi, h


def _components(lo: list[Mask], hi: list[Mask], h: int, s: Mask) -> list[Mask]:
    """Components of the subgraph induced on s, by flood on union tables."""
    low = (1 << h) - 1
    comps = []
    while s:
        comp = s & -s
        while True:
            grown = comp | (lo[comp & low] | hi[comp >> h]) & s
            if grown == comp:
                break
            comp = grown
        comps.append(comp)
        s ^= comp
    return comps


def _cuts(g: Graph) -> Iterator[tuple[Mask, int]]:
    """Spanning connected cuts of g as (part2, mu), in ascending part2 order.

    Vertex 0 is pinned to part1, so each unordered cut appears once. mu is
    the strict labeling count of the cut's bipartite quotient: its vertices
    are the components of the same-side edges and its edges come from the
    crossing ones. The quotient is kept as neighbour masks, not as a Graph.
    Every step (the crossing-edge tests, the floods and the quotient rows)
    takes neighbourhoods of vertex sets from _union_tables.
    """
    n = g.n
    lo, hi, h = _union_tables(g.adj)
    low = (1 << h) - 1
    full = full_mask(n)
    for half in range(1, 1 << (n - 1)):
        part2 = half << 1
        part1 = full ^ part2
        # Every vertex needs a crossing edge.
        if part1 & ~(lo[part2 & low] | hi[part2 >> h]):
            continue
        if part2 & ~(lo[part1 & low] | hi[part1 >> h]):
            continue
        # The crossing edges connect everything: flood from vertex 0 across
        # the cut and back. Each part1 vertex has a part2 neighbour, so the
        # part1 set only grows, and the flood is whole when it fills part1.
        seen = 1
        while True:
            across = (lo[seen & low] | hi[seen >> h]) & part2
            grown = (lo[across & low] | hi[across >> h]) & part1
            if grown == seen:
                break
            seen = grown
        if seen != part1:
            continue
        comps = _components(lo, hi, h, part1) + _components(lo, hi, h, part2)
        # N(comp) meets comp itself through its internal edges; a quotient
        # row must not, or _strict_labelings would see a loop.
        nbrs = []
        for k, comp in enumerate(comps):
            touched = lo[comp & low] | hi[comp >> h]
            row = 0
            for j, other in enumerate(comps):
                if touched & other and j != k:
                    row |= 1 << j
            nbrs.append(row)
        yield part2, _strict_labelings(nbrs)


def enumerate_facet_subgraphs(g: Graph) -> list[FacetSubgraph]:
    """All cuts whose crossing edges form a spanning connected subgraph.

    These are exactly the maximal connected spanning bipartite subgraphs.
    Bipartitions are scanned with vertex 0 pinned to part1, so each
    unordered cut appears once; output order follows the part2 bitmask.
    """
    _require_connected(g)
    full = full_mask(g.n)
    all_edges = edges(g)
    return [
        FacetSubgraph(
            full ^ part2,
            part2,
            tuple((i, j) for i, j in all_edges if (part2 >> i ^ part2 >> j) & 1),
            mu,
        )
        for part2, mu in _cuts(g)
    ]


def mu_of(g: Graph, h: FacetSubgraph) -> int:
    """Number of facets sharing the cut h, recomputed from g.

    This is the independent reference for the multiplicities of
    enumerate_facet_subgraphs: it contracts the non-crossing edges into a
    quotient Graph (contract_edges) and counts its strict labelings by sign
    enumeration (count_bipartite_strict).
    """
    full = full_mask(g.n)
    if h.part1 & h.part2 or (h.part1 | h.part2) != full or not h.part1 & 1:
        raise GraphError("facet subgraph does not partition this graph")
    cross = []
    non_cross = []
    for i, j in edges(g):
        if (h.part2 >> i & 1) != (h.part2 >> j & 1):
            cross.append((i, j))
        else:
            non_cross.append((i, j))
    if tuple(cross) != h.cross_edges:
        raise GraphError("facet subgraph was not produced from this graph")
    rows = [0] * g.n
    for i, j in cross:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    if reach(rows, 1, full) != full:
        raise GraphError("cut is not spanning connected in this graph")
    return count_bipartite_strict(contract_edges(g, non_cross))


def count_facets(g: Graph) -> int:
    """Facet count via the cut decomposition, multiplied over blocks.

    The facet count is multiplicative under 1-sums, so it is the product,
    over the biconnected blocks, of each block's count. A block whose
    complement is disconnected is a join G1 + G2 and is counted by
    _count_join; any other block by the sum of its cut multiplicities.
    """
    _require_connected(g)
    full = full_mask(g.n)
    total = 1
    for vmask, _ in blocks(g):
        block = g if vmask == full else induced(g, vmask)
        side = _co_component(block)
        if side == full_mask(block.n):
            total *= sum(mu for _, mu in _cuts(block))
        else:
            total *= _count_join(block, side)
    return total


def _co_component(g: Graph) -> Mask:
    """The component of vertex 0 in the complement of g."""
    full = full_mask(g.n)
    co = [full ^ row ^ (1 << v) for v, row in enumerate(g.adj)]
    return reach(co, 1, full)


def _count_join(g: Graph, side: Mask) -> int:
    """Facet count of a connected join g = G1 + G2, with G1 = g[side].

    With n_i vertices and c_i components in G_i, and N^(H) the count of
    count_suspension_via_domination(H), the count is

        (2^n1 - 2)(2^n2 - 2) - (2^c1 - 2)(2^c2 - 2) + N^(G1) + N^(G2) - 2.

    Every G1 vertex is adjacent to every G2 vertex, so a facet labeling
    shifted to minimum 0 takes at most three consecutive values. Let D_i be
    the number of dominating sets of G_i.

    * Two values: the labeling is an ordered bipartition (P0, P1) whose
      crossing edges span and connect g. If all four pieces P_a meet V_i are
      nonempty, the G1-G2 crossing edges form two disjoint complete
      bipartite graphs covering every vertex, and the cut qualifies exactly
      when some G1 or G2 edge crosses it: (2^n1 - 2)(2^n2 - 2) splits minus
      the (2^c1 - 2)(2^c2 - 2) that cut no G1 and no G2 edge. Otherwise one
      piece is empty; if, say, V2 lies in P0, then P1 lies in V1 and must
      dominate G1. The four choices of the empty piece give D1, D1, D2, D2
      and count the splits (V1, V2) and (V2, V1) twice: 2 D1 + 2 D2 - 2.
    * Three values: a vertex at 0 and one at 2 are not adjacent, so they
      lie on one side, and every vertex of the other side sits at 1. On the
      first side, say V1, the vertices X not at 1 must dominate G1 (the
      vertices at 1 have no other strict edge), and X splits into low and
      high with no edge between them: 2^c(G1[X]) - 2 ways. Summed over X
      that is N^(G1) - 2 D1; likewise N^(G2) - 2 D2 with V1 at 1.

    The D_i cancel in the total.
    """
    full = full_mask(g.n)
    g1, g2 = induced(g, side), induced(g, full ^ side)
    n1, n2 = g1.n, g2.n
    c1, c2 = component_count(g1), component_count(g2)
    return (((1 << n1) - 2) * ((1 << n2) - 2) - ((1 << c1) - 2) * ((1 << c2) - 2)
            + count_suspension_via_domination(g1)
            + count_suspension_via_domination(g2) - 2)


def count_bipartite_strict(b: Graph) -> int:
    """Labelings of a connected bipartite graph that are strict on every edge.

    Signs are chosen on a spanning tree (2^(n-1) candidates); a candidate
    survives when every non-tree edge also differs by exactly 1. For a
    bipartite graph this equals its facet count.
    """
    if b.n < 2 or not is_connected(b):
        raise GraphError("strict counting requires a connected graph on >= 2 vertices")
    if bipartition(b) is None:
        raise GraphError("strict counting requires a bipartite graph")
    n = b.n
    tree = _bfs_tree(b)
    tree_set = {(min(e), max(e)) for e in tree}
    rest = [e for e in edges(b) if e not in tree_set]

    count = 0
    values = [0] * n
    for signs in product((-1, 1), repeat=n - 1):
        for (p, c), d in zip(tree, signs):
            values[c] = values[p] + d
        ok = True
        for i, j in rest:
            if abs(values[i] - values[j]) != 1:
                ok = False
                break
        if ok:
            count += 1
    return count


def count_suspension_via_domination(g: Graph) -> int:
    """Facet count of the suspension of g, summed over dominating sets of g.

    Each dominating set S contributes 2^c(g[S]). When g is a join A + B
    (its complement is disconnected), a set meeting both sides dominates
    and induces a connected graph, and a set inside one side must dominate
    that side, so N^(A + B) = 2 (2^a - 1)(2^b - 1) + N^(A) + N^(B). Other
    graphs are scanned, with cover N(S) | S and components by flood on the
    neighbourhood-union tables.
    """
    n = g.n
    full = full_mask(n)
    side = _co_component(g)
    if side != full:
        a = side.bit_count()
        return (2 * ((1 << a) - 1) * ((1 << (n - a)) - 1)
                + count_suspension_via_domination(induced(g, side))
                + count_suspension_via_domination(induced(g, full ^ side)))
    lo, hi, h = _union_tables(g.adj)
    low = (1 << h) - 1
    total = 0
    for s in range(1, 1 << n):
        if (lo[s & low] | hi[s >> h] | s) != full:
            continue
        total += 1 << len(_components(lo, hi, h, s))
    return total


def subgraph_component_value(g: Graph) -> int:
    """Sum of 2^(components induced on S) over all vertex subsets S.

    The empty subset contributes 1. This upper-bounds the facet count of
    the suspension of g, since dominating sets are a subfamily.
    """
    total = 0
    for s in range(1 << g.n):
        total += 1 << component_count_within(g, s)
    return total
