"""Facet counting for the symmetric edge polytope of a connected graph.

Three routes are implemented and cross-checked by the test harness. The
second counts joins through the third, so the third is checked against the
whole-graph sum over enumerate_facet_subgraphs, which never splits a join:

* The labeling oracle walks integer vertex labelings directly. A facet
  corresponds to a labeling f with f fixed to 0 at vertex 0, |f(i)-f(j)| <= 1
  on every edge, and the set of edges where the difference is exactly 1
  forming a spanning connected subgraph. Differences are chosen on a
  spanning tree (at most 3^(n-1) candidates) instead of raw values, depth
  first in BFS order, so a labelled prefix is shared by its completions
  and dropped with them when a non-tree edge fails. Because f differs by
  0 or 1 on every edge, the strict edges are the edges across the parity
  cut of f, so the spanning test depends only on the odd-labelled vertices.
  oracle_parity_classes therefore has the walk count labelings by that
  set, building none, and floods once per set; its counts are the cuts of
  route 2 with their multiplicities. enumerate_facets_oracle walks again
  and keeps, as value tuples, the labelings of the sets that passed.

* count_facets runs on adjacency rows, builds no Graph and makes one flat
  pass over vertex sets of the input's rows, with one complement. A join
  G1 + G2 (the complement is disconnected), whatever its side sizes, goes
  whole to _count_join, which derives from each side's vertex count n_i,
  component count c_i and domination count N^ (below)
      N = (2^n1 - 2)(2^n2 - 2) - (2^c1 - 2)(2^c2 - 2) + N^(G1) + N^(G2) - 2.
  Any other graph is the product over its blocks, as the count is
  multiplicative under 1-sums. A block that is a join goes to _count_join
  on the same rows; any other block is relabelled and cut-scanned over the
  bipartitions whose crossing edges span and connect it. Each cut adds
  the facet count of the bipartite quotient left by contracting the other
  edges: 2^(q-1) for the star that most cuts give, else a count on
  bitmasks. Neighbourhoods of vertex sets come from two tables of 2^(n/2)
  entries (_union_tables). enumerate_facet_subgraphs returns the scan's
  terms as (part2, mu) pairs, so their sum is the cut count with no join
  split. mu_of(g, part2) recounts one cut through contract_edges and
  count_bipartite_strict, which labels with the oracle's enumerator.

* count_suspension_via_domination counts facets of the suspension of a base
  graph from the dominating sets S of the base, each giving 2^(number of
  components induced on S). It walks vertex sets of the base, each given
  with its components, so each is flooded once: a disconnected set is the
  product of its components' counts, a set whose complement splits is
  counted from its parts in closed form, and any other set is scanned.

The two leaf counts of routes 2 and 3, _strict_labelings on a quotient's
neighbour masks and _component_power_sum on a scanned set's rows, are pure
functions of tuples that recur across cuts and graphs, so each keeps an
lru_cache bounded at 2^16 entries and counts each distinct tuple once per
process. The references they are checked against, the oracle's parity
classes, mu_of and count_bipartite_strict, share neither cache nor code
with them, so a wrong cached value cannot reach both sides of a check.

Scans over more than MAX_SCAN_VERTICES vertices, and oracle or strict
labeler runs over more than MAX_ORACLE_VERTICES, are refused with GraphError.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Iterator

from .graphs import (
    Graph,
    GraphError,
    Mask,
    bipartition,
    blocks,
    complement_rows,
    components,
    contract_edges,
    edges,
    full_mask,
    induced_rows,
    is_connected,
    iter_bits,
    reach,
)
from .limits import MAX_ORACLE_VERTICES, MAX_SCAN_VERTICES


def _require_connected(g: Graph) -> None:
    if g.n < 2:
        raise GraphError("facet counting requires a connected graph on >= 2 vertices")
    if not is_connected(g):
        raise GraphError("disconnected")


def _tree_labelings(g: Graph, steps: tuple[int, ...], gaps: set[int],
                    found: dict[Mask, list[tuple[int, ...]]] | None = None) -> dict[Mask, int]:
    """Count the labelings with value 0 at vertex 0 that take a step from
    steps along every spanning-tree edge and a distance in gaps across
    every other edge, by the mask of their odd-labelled vertices. A
    labeling whose mask is a key of found is also appended to that key's
    list as a value tuple (values[v] is the label of v).

    Vertices are labelled depth first in BFS order, each from its tree
    parent, so every completion of a labelled prefix shares it. A non-tree
    edge is tested as soon as its later endpoint gets a label, so a prefix
    that fails is dropped with all its completions. The odd mask is
    carried down the recursion, one bit per labelled vertex. The last
    vertex counts its admissible labels by parity, so the tally takes at
    most two updates per prefix that reaches it, not one per labeling.
    """
    # (vertex, its bit, tree parent, non-tree neighbours labelled earlier),
    # in BFS order: the vertices discovered before c are the ones labelled
    # first.
    seen = 1
    order = [0]
    frames = []
    for p in order:
        for c in iter_bits(g.adj[p] & ~seen):
            frames.append((c, 1 << c, p, [u for u in iter_bits(g.adj[c] & seen) if u != p]))
            seen |= 1 << c
            order.append(c)
    values = [0] * g.n
    last = len(frames) - 1
    tally: dict[Mask, int] = {}

    def label(i: int, odd: Mask) -> None:
        v, b, p, earlier = frames[i]
        base = values[p]
        up = odd | b
        if i < last:
            for d in steps:
                x = base + d
                for u in earlier:
                    if abs(values[u] - x) not in gaps:
                        break
                else:
                    values[v] = x
                    label(i + 1, up if x & 1 else odd)
            return
        evens = odds = 0
        for d in steps:
            x = base + d
            for u in earlier:
                if abs(values[u] - x) not in gaps:
                    break
            else:
                if x & 1:
                    odds += 1
                else:
                    evens += 1
                if found:
                    below = up if x & 1 else odd
                    if below in found:
                        values[v] = x
                        found[below].append(tuple(values))
        if evens:
            tally[odd] = tally.get(odd, 0) + evens
        if odds:
            tally[up] = tally.get(up, 0) + odds

    label(0, 0)
    return tally


def oracle_parity_classes(g: Graph) -> dict[Mask, int]:
    """Facet-defining labelings with value 0 at vertex 0, counted by the
    mask of their odd-labelled vertices.

    Each spanning-tree edge gets a difference in {-1, 0, +1}; the root value
    is 0, so every labeling satisfying the edge condition is counted
    exactly once. A labeling is a facet when every non-tree edge differs by
    at most 1 and its strict edges span and connect the graph.

    Because every edge differs by 0 or 1, an edge is strict exactly when
    its endpoints differ in parity: the strict edges of a labeling are the
    edges across the cut between its odd- and even-labelled vertices. So
    the labeler only tallies the labelings by odd-labelled set, and the
    spanning test runs once per tallied set, as a flood from vertex 0
    across that cut. A graph on more than MAX_ORACLE_VERTICES vertices
    (3^21 or more candidates) is refused.
    """
    _require_connected(g)
    n = g.n
    if n > MAX_ORACLE_VERTICES:
        raise GraphError(
            f"a {n}-vertex graph is too large for the labeling oracle: 3^{n - 1} "
            f"labelings (the oracle takes at most {MAX_ORACLE_VERTICES} vertices)")
    adj = g.adj
    full = full_mask(n)
    classes = {}
    for odd, count in _tree_labelings(g, (-1, 0, 1), {0, 1}).items():
        seen = frontier = 1
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1] & (~odd if odd & low else odd)
                frontier ^= low
            frontier = grow & ~seen
            seen |= frontier
        if seen == full:
            classes[odd] = count
    return classes


def enumerate_facets_oracle(g: Graph) -> list[tuple[int, ...]]:
    """All facet-defining labelings as value tuples with value 0 at vertex
    0, sorted.

    oracle_parity_classes names the odd-labelled sets of the facets, and a
    second walk of the same labeler keeps the labelings of those sets only,
    so no labeling that fails the spanning test is ever held. Graphs that
    oracle_parity_classes refuses are refused.
    """
    found: dict[Mask, list[tuple[int, ...]]] = {odd: [] for odd in oracle_parity_classes(g)}
    _tree_labelings(g, (-1, 0, 1), {0, 1}, found)
    return sorted(values for labelings in found.values() for values in labelings)


@lru_cache(maxsize=1 << 16)
def _strict_labelings(nbrs: tuple[Mask, ...]) -> int:
    """Homomorphisms from a connected bipartite graph into the integer path.

    nbrs[k] is the neighbour mask of vertex k; the root 0 is labelled 0.
    Vertices are labelled in BFS order, so every vertex after the root has
    a labelled neighbour. Those neighbours all share one parity, and the
    vertex may take a value adjacent to each of them: two values when they
    agree, one when they span 2, none otherwise. A tree skips the search:
    each of its q - 1 edges picks a sign freely.

    Cached on nbrs: the same quotient recurs across the cuts of one graph
    and across graphs. The oracle's parity classes, and mu_of with
    count_bipartite_strict, recount a cut with no shared cache or code, so
    they still check each cached value.
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


def _cuts(adj: tuple[Mask, ...]) -> Iterator[tuple[Mask, int]]:
    """Spanning connected cuts of adj as (part2, mu), in ascending part2 order.

    Vertex 0 is pinned to part1, so each unordered cut appears once. mu is
    the strict labeling count of the cut's connected bipartite quotient: its
    vertices are the components of the same-side edges and its edges come
    from the crossing ones. With one component on a side it is the star
    K_{1,q-1} and mu = 2^(q-1); any other goes to _strict_labelings as
    neighbour masks. Every step takes neighbourhoods from _union_tables.
    """
    n = len(adj)
    lo, hi, h = _union_tables(adj)
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
        comps1 = _components(lo, hi, h, part1)
        comps = comps1 + _components(lo, hi, h, part2)
        if len(comps1) in (1, len(comps) - 1):
            yield part2, 1 << (len(comps) - 1)
            continue
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
        yield part2, _strict_labelings(tuple(nbrs))


def enumerate_facet_subgraphs(g: Graph) -> list[tuple[Mask, int]]:
    """All cuts whose crossing edges form a spanning connected subgraph, as
    (part2, mu) in ascending part2 order.

    These are exactly the maximal connected spanning bipartite subgraphs.
    Vertex 0 is pinned to the other part, full_mask(n) ^ part2, so each
    unordered cut appears once; mu is the number of facets whose strict
    edge set is exactly the cut's crossing edges.
    """
    _require_connected(g)
    return list(_cuts(g.adj))


def mu_of(g: Graph, part2: Mask) -> int:
    """Number of facets sharing the cut with vertex set part2, recomputed
    from g.

    An independent reference for the multiplicities of
    enumerate_facet_subgraphs, kept for the tests (the identity sweep
    checks mu against the oracle's parity classes instead): it contracts
    the non-crossing edges into a quotient Graph (contract_edges) and
    counts its strict labelings by sign enumeration
    (count_bipartite_strict). part2 must be a nonempty set of
    vertices of g without vertex 0, and its crossing edges must span and
    connect g.
    """
    full = full_mask(g.n)
    if not part2 or part2 & 1 or part2 & ~full:
        raise GraphError("cut must be a nonempty vertex set of this graph without vertex 0")
    rows = [0] * g.n
    non_cross = []
    for i, j in edges(g):
        if (part2 >> i ^ part2 >> j) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        else:
            non_cross.append((i, j))
    if reach(rows, 1, full) != full:
        raise GraphError("cut is not spanning connected in this graph")
    return count_bipartite_strict(contract_edges(g, non_cross))


def count_facets(g: Graph) -> int:
    """Facet count by one flat pass over vertex sets of g's rows. A join
    G1 + G2 (the complement is disconnected) of any side sizes is counted
    whole by _count_join. Any other graph is the product over its blocks
    (the count is multiplicative under 1-sums), each counted by _count_join
    when it is a join and else by the sum of its cut multiplicities. The
    complement rows are built once; only a scanned block is relabelled.
    """
    _require_connected(g)
    adj = g.adj
    co = complement_rows(adj)
    return _count_join(adj, co, full_mask(g.n)) or prod(
        _count_join(adj, co, b) or sum(mu for _, mu in _cuts(induced_rows(adj, b)))
        for b in blocks(adj))


def _count_join(adj: tuple[Mask, ...], co: tuple[Mask, ...], s: Mask) -> int | None:
    """Facet count of g = adj[s], for a connected set s, when g is a join
    G1 + G2, else None; co holds the complement rows of adj. G1 is the
    complement component of s's smallest vertex and G2 the rest of s.

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
    side = reach(co, s & -s, s)
    if side == s:
        return None
    rest = s ^ side
    n1, n2 = side.bit_count(), rest.bit_count()
    parts1, parts2 = components(adj, side), components(adj, rest)
    c1, c2 = len(parts1), len(parts2)
    return (((1 << n1) - 2) * ((1 << n2) - 2) - ((1 << c1) - 2) * ((1 << c2) - 2)
            + _suspension_count(adj, co, parts1) + _suspension_count(adj, co, parts2) - 2)


def count_bipartite_strict(b: Graph) -> int:
    """Labelings of a connected bipartite graph that are strict on every edge.

    Signs are chosen on a spanning tree (at most 2^(n-1) candidates) by
    the oracle's depth-first labeler; a prefix survives while every
    non-tree edge between its vertices differs by exactly 1. For a
    bipartite graph this equals its facet count. Every strict labeling
    has the side without vertex 0 as its odd-labelled set, so the
    labeler's tally holds that one set. A tree keeps all 2^(n-1) choices,
    so graphs on more than MAX_ORACLE_VERTICES vertices, the oracle's cap,
    are refused.
    """
    if b.n > MAX_ORACLE_VERTICES:
        raise GraphError(f"a {b.n}-vertex graph is too large for strict counting: "
                         f"2^{b.n - 1} sign choices (at most {MAX_ORACLE_VERTICES} vertices)")
    _require_connected(b)
    if bipartition(b) is None:
        raise GraphError("strict counting requires a bipartite graph")
    return sum(_tree_labelings(b, (-1, 1), {1}).values())


def count_suspension_via_domination(g: Graph) -> int:
    """Facet count N^(g) of the suspension of g: each dominating set S of g
    gives 2^c(g[S]). Vertex sets s of g, each with the components of g[s],
    are walked with three rules:

    * g[s] disconnected: the suspension of a disjoint union is the 1-sum of
      the suspensions at the apex, so N^ is the product over the components.
    * the complement of g[s] splits into k >= 2 parts A_i: a set meeting two
      parts dominates g[s] and induces a connected graph, so it gives 2, and
      a set inside one part must dominate that part, so those sets give
      N^(A_i). With 2^|s| - 1 nonempty sets in all,
          N^(s) = 2 (2^|s| - 1 - sum (2^|A_i| - 1)) + sum N^(A_i).
    * otherwise the dominating sets of g[s] are scanned, with cover
      N(S) | S and components by flood on the neighbourhood-union tables.
    """
    return _suspension_count(g.adj, complement_rows(g.adj), components(g.adj))


def _suspension_count(adj: tuple[Mask, ...], co: tuple[Mask, ...], parts: list[Mask]) -> int:
    """N^ of adj induced on the union of parts, the components of that
    nonempty set; co holds the complement rows.

    The count so far is scale * N^(s) + shift. Each split keeps its largest
    part as s and recurses into the others, which hold at most half of s.
    A component is connected, so it goes straight to the complement split,
    and each set is flooded on adj once: by the caller, or after a
    complement split.
    """
    scale, shift = 1, 0
    while True:
        s = max(parts, key=int.bit_count)
        scale *= prod(_suspension_count(adj, co, [p]) for p in parts if p != s)
        parts = components(co, s)
        if len(parts) == 1:
            rows = induced_rows(adj, s)
            return scale * _component_power_sum(rows, full_mask(len(rows))) + shift
        across = (1 << s.bit_count()) - 1 - sum((1 << p.bit_count()) - 1 for p in parts)
        s = max(parts, key=int.bit_count)
        shift += scale * (2 * across + sum(_suspension_count(adj, co, components(adj, p))
                                           for p in parts if p != s))
        parts = components(adj, s)


def subgraph_component_value(g: Graph) -> int:
    """Sum of 2^(components induced on S) over all vertex subsets S.

    The empty subset contributes 1. This upper-bounds the facet count of
    the suspension of g, since dominating sets are a subfamily.
    """
    return _component_power_sum(g.adj, 0)


@lru_cache(maxsize=1 << 16)
def _component_power_sum(adj: tuple[Mask, ...], cover: Mask) -> int:
    """Sum of 2^c(adj[S]) over the vertex sets S with cover inside N(S) | S.

    Covers and components come from the neighbourhood-union tables, so a
    graph on more than MAX_SCAN_VERTICES vertices is refused.

    Cached on (adj, cover): the same join side recurs across graphs. The
    labeling oracle and the whole-graph cut sum never call it, so the tests
    that compare them with the domination route still check each cached
    value.
    """
    lo, hi, h = _union_tables(adj)
    low = (1 << h) - 1
    total = 0
    for s in range(1 << len(adj)):
        if cover & ~(lo[s & low] | hi[s >> h] | s):
            continue
        total += 1 << len(_components(lo, hi, h, s))
    return total
