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
  The walk therefore floods across that cut once per set, when the set
  first comes up, and keeps only the facets: oracle_parity_classes counts
  them by set, building none, and its counts are the cuts of route 2 with
  their multiplicities; enumerate_facets_oracle lists them as value tuples
  from the same single walk.

* count_facets runs on adjacency rows and builds no Graph. Its per-graph
  part, _decompose, makes one flat pass over vertex sets of the input's
  rows, with one complement, and leaves only the lane scans. A join
  G1 + G2 (the complement is disconnected), whatever its side sizes, goes
  whole to _count_join, which derives from each side's vertex count n_i,
  component count c_i and domination count N^ (below)
      N = (2^n1 - 2)(2^n2 - 2) - (2^c1 - 2)(2^c2 - 2) + N^(G1) + N^(G2) - 2.
  Any other graph is the product over its blocks, as the count is
  multiplicative under 1-sums. A block that is a join goes to _count_join
  on the same rows; any other block is relabelled and scanned over the
  bipartitions whose crossing edges span and connect it. Each cut adds
  the facet count of the bipartite quotient left by contracting the other
  edges, counted by _quotient_mu from the components of the cut's two
  sides: with S the side of fewer components, 2^(q-1) for the star that
  most cuts give (|S| = 1), a closed form for |S| = 2, and otherwise a
  labeling of S alone. Every block left to scan, of 5 or more vertices
  as no smaller block is a non-join, is scanned by _lane_sums, 2^12 cuts
  at a time, one cut per bit lane of big-int masks, which sums its stars
  and its cuts with |S| = 2 without listing them; count_facets scans each
  block it leaves as a batch of one. The lanes of one chunk hold the cuts
  of up to 2^(13-n) graphs or blocks of the same size n: count_many
  queues the scans of many graphs by size and scans a queue once it
  fills a chunk (256 of 5 vertices, 32 of 8, 16 of 9). Its per-graph
  part, count_plan, leaves a connected graph of at most
  WHOLE_SCAN_MAX_VERTICES (9) vertices whole to the scan, which in a
  shared chunk costs less than the decomposition, and decomposes a
  larger one as count_facets does. No count goes through _cuts, which
  scans one cut at a time with neighbourhoods of vertex sets from two
  tables of 2^(n/2) entries (_union_tables): it is the reference behind
  enumerate_facet_subgraphs, which returns its terms as (part2, mu)
  pairs, so their sum is the cut count with no join split, from a scan
  that shares no scan code with _lane_sums: only the union tables, the
  components and _quotient_mu. The identity sweep checks count_facets
  against that sum on every graph it visits. mu_of(g, part2)
  recounts one cut through contract_edges and count_bipartite_strict,
  which labels with the oracle's enumerator.

* count_suspension_via_domination counts facets of the suspension of a base
  graph from the dominating sets S of the base, each giving 2^(number of
  components induced on S). It recurses over vertex sets of the base, each
  given with its components, so each is flooded once: a disconnected set
  is the product of its components' counts, a set whose complement splits
  is counted from its parts in closed form, and any other set is scanned
  by _component_power_sum, 2^12 subsets at a time in the bit lanes of
  big-int masks, as _lane_sums scans cuts.

The two leaf counts of routes 2 and 3, _side_labelings on the masks of a
quotient with three or more components on each side and
_component_power_sum on a scanned set's rows, are pure
functions of tuples that recur across cuts and graphs, so each keeps an
lru_cache bounded at 2^16 entries and counts each distinct tuple once per
process. The references they are checked against, the oracle's parity
classes, mu_of and count_bipartite_strict, share neither cache nor code
with them, so a wrong cached value cannot reach both sides of a check.

Scans over more than MAX_SCAN_VERTICES vertices, and oracle or strict
labeler runs over more than MAX_ORACLE_VERTICES, are refused with GraphError.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from math import prod
from typing import Iterable, Iterator, TypeVar

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


def _require_oracle(g: Graph) -> None:
    _require_connected(g)
    if g.n > MAX_ORACLE_VERTICES:
        raise GraphError(f"a {g.n}-vertex graph is too large for the labeling oracle: 3^{g.n - 1} "
                         f"labelings (the oracle takes at most {MAX_ORACLE_VERTICES} vertices)")


def _tree_labelings(g: Graph, steps: tuple[int, ...],
                    listing: list[tuple[int, ...]] | None = None) -> dict[Mask, int]:
    """Facet labelings with value 0 at vertex 0 and a step from steps on
    every spanning-tree edge, counted by the mask of their odd-labelled
    vertices; with listing, each is also appended there as a value tuple.

    Every non-tree edge must differ by at most 1. With steps (-1, 0, 1)
    that is the edge condition. With steps (-1, 1) g must be bipartite:
    each label then has the parity of its vertex's tree depth, that is of
    its side, so every edge differs by an odd amount, hence by exactly 1.
    Either way an edge is strict exactly when its endpoints differ in
    parity, so the strict edges are those across the parity cut, and the
    spanning test depends only on the odd mask. It runs as a flood from
    vertex 0 across the cut once per mask and call, when the mask first
    reaches the last vertex.

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
    verdicts: dict[Mask, bool] = {}
    tally: dict[Mask, int] = {}

    def spans(odd: Mask) -> bool:
        ok = verdicts.get(odd)
        if ok is None:
            reached = frontier = 1
            while frontier:
                grow = 0
                while frontier:
                    low = frontier & -frontier
                    grow |= g.adj[low.bit_length() - 1] & (~odd if odd & low else odd)
                    frontier ^= low
                frontier = grow & ~reached
                reached |= frontier
            ok = verdicts[odd] = reached == full_mask(g.n)
        return ok

    def label(i: int, odd: Mask) -> None:
        v, b, p, earlier = frames[i]
        base = values[p]
        up = odd | b
        if i < last:
            for d in steps:
                x = base + d
                for u in earlier:
                    if abs(values[u] - x) > 1:
                        break
                else:
                    values[v] = x
                    label(i + 1, up if x & 1 else odd)
            return
        evens = odds = 0
        for d in steps:
            x = base + d
            for u in earlier:
                if abs(values[u] - x) > 1:
                    break
            else:
                if x & 1:
                    odds += 1
                else:
                    evens += 1
                if listing is not None and spans(up if x & 1 else odd):
                    values[v] = x
                    listing.append(tuple(values))
        if evens and spans(odd):
            tally[odd] = tally.get(odd, 0) + evens
        if odds and spans(up):
            tally[up] = tally.get(up, 0) + odds

    label(0, 0)
    return tally


def oracle_parity_classes(g: Graph) -> dict[Mask, int]:
    """Facet-defining labelings with value 0 at vertex 0, counted by the
    mask of their odd-labelled vertices, from one walk of _tree_labelings
    with a difference in {-1, 0, +1} on each spanning-tree edge, so each
    labeling is met exactly once. A graph on more than MAX_ORACLE_VERTICES
    vertices (3^21 or more candidates) is refused.
    """
    _require_oracle(g)
    return _tree_labelings(g, (-1, 0, 1))


def enumerate_facets_oracle(g: Graph) -> list[tuple[int, ...]]:
    """All facet-defining labelings as value tuples with value 0 at vertex
    0, sorted, listed in the single walk that oracle_parity_classes counts
    with, so no labeling that fails the spanning test is ever held. Graphs
    that oracle_parity_classes refuses are refused.
    """
    _require_oracle(g)
    listing: list[tuple[int, ...]] = []
    _tree_labelings(g, (-1, 0, 1), listing)
    return sorted(listing)


def _quotient_mu(lo: list[Mask], hi: list[Mask], h: int,
                 comps1: list[Mask], comps2: list[Mask]) -> int:
    """mu of a cut, the strict labeling count of its connected bipartite
    quotient, from comps1 and comps2, the components of its two sides, and
    the cut's union tables.

    Let S be the side with fewer components and T the other. A T
    component touches an S component when it meets the S component's
    neighbourhood, one table lookup per S component. Every label on one
    side has one parity, and a T component sits one step from each S
    component it touches.

    * |S| = 1: the quotient is the star K_{1,|T|}, and each T component
      picks a sign: 2^|T|.
    * |S| = 2: call the S components x and y and fix x = 0. Some T
      component touches both, as the quotient is connected, so y is 0 or
      +-2. With y = 0 each of the k = |T| components takes +-1 freely:
      2^k. With y = +-2 the c components that touch both are forced to the
      middle value and the others keep 2 choices each: 2 * 2^(k - c). In
      all, 2^k + 2^(k - c + 1).
    * |S| >= 3: _side_labelings, keyed on |S| and the sorted masks of the
      S components each T component touches, as the count does not depend
      on the order of T.
    """
    side, other = (comps1, comps2) if len(comps1) <= len(comps2) else (comps2, comps1)
    k = len(other)
    if len(side) == 1:
        return 1 << k
    low = (1 << h) - 1
    near = [lo[comp & low] | hi[comp >> h] for comp in side]
    if len(side) == 2:
        x, y = near
        c = 0
        for comp in other:
            if comp & x and comp & y:
                c += 1
        return (1 << k) + (1 << (k - c + 1))
    touches = []
    for comp in other:
        mask = 0
        for i, reached in enumerate(near):
            if comp & reached:
                mask |= 1 << i
        touches.append(mask)
    touches.sort()
    return _side_labelings(len(side), tuple(touches))


@lru_cache(maxsize=1 << 16)
def _side_labelings(s: int, touches: tuple[Mask, ...]) -> int:
    """Strict labelings of a connected bipartite graph with s >= 2
    vertices on one side S and one vertex on the other side T per entry
    of touches, the mask of its S neighbours; S vertex 0 is labelled 0.

    Only S is labelled. Two S vertices with a common T neighbour differ
    by 0 or 2, so each S vertex after the first takes a step of -2, 0 or
    +2 from an earlier one it shares a T neighbour with: at most 3^(s-1)
    labelings of S. A T vertex then has 2 labels when its neighbours
    agree, 1 when they span 2, and none otherwise; its weight is taken as
    soon as its last S neighbour is labelled, so a labeling of S that
    leaves some T vertex no label is dropped with all its completions.

    Cached on (s, touches): the same quotient recurs across the cuts of one
    graph and across graphs. The oracle's parity classes, and mu_of with
    count_bipartite_strict, recount a cut with no shared cache or code, so
    they still check each cached value.
    """
    order = [0]
    parent = [0] * s
    seen = 1
    for i in order:
        for t in touches:
            if t >> i & 1:
                for j in iter_bits(t & ~seen):
                    seen |= 1 << j
                    parent[j] = i
                    order.append(j)
    depth = [0] * s
    for d, v in enumerate(order):
        depth[v] = d
    # The T vertices whose last S neighbour is order[d], each as the list
    # of its S neighbours.
    closing: list[list[list[int]]] = [[] for _ in range(s)]
    for t in touches:
        members = list(iter_bits(t))
        closing[max(depth[v] for v in members)].append(members)
    last = s - 1
    vals = [0] * s

    def extend(d: int) -> int:
        v = order[d]
        base = vals[parent[v]]
        total = 0
        for x in (base - 2, base, base + 2):
            vals[v] = x
            weight = 1
            for members in closing[d]:
                lo = hi = x
                for u in members:
                    y = vals[u]
                    if y < lo:
                        lo = y
                    elif y > hi:
                        hi = y
                if hi == lo:
                    weight <<= 1
                elif hi - lo != 2:
                    break
            else:
                total += weight if d == last else weight * extend(d + 1)
        return total

    return (1 << len(closing[0])) * extend(1)


def _require_scan(adj: tuple[Mask, ...] | list[Mask]) -> int:
    """The vertex count of adj, refused when a scan over it cannot finish."""
    n = len(adj)
    if n > MAX_SCAN_VERTICES:
        raise GraphError(
            f"a {n}-vertex block is too large to scan: 2^{n - 1} or more vertex "
            f"sets (a scan takes at most {MAX_SCAN_VERTICES} vertices)")
    return n


def _union_tables(adj: tuple[Mask, ...] | list[Mask]) -> tuple[list[Mask], list[Mask], int]:
    """Neighbourhood-union tables (lo, hi, h) for the rows adj.

    N(m), the union of the rows of the vertices in m, is
    lo[m & (2^h - 1)] | hi[m >> h]: lo covers the low h = n // 2 vertices
    and hi the rest, so 2^(n // 2) + 2^(n - n // 2) entries serve every
    one of the 2^n sets. Scans over more than MAX_SCAN_VERTICES vertices
    are refused here, before any table is built.
    """
    n = _require_scan(adj)
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
    from the crossing ones. _quotient_mu counts it from the components of
    the two sides, with no quotient rows. Every step takes neighbourhoods
    from _union_tables.

    No count sums these terms: _lane_sums counts every block that is
    scanned. enumerate_facet_subgraphs lists them for any graph, which
    makes this scan the reference that the lane scan is checked against,
    by the identity sweep and the tests, at every block size.
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
        yield part2, _quotient_mu(lo, hi, h, _components(lo, hi, h, part1),
                                  _components(lo, hi, h, part2))


# Lanes per chunk of the lane scans, 2^LANE_BITS, so a lane mask is at most
# 512 bytes. _lane_sums gives a batch of blocks of n vertices a slot of 2^L
# lanes each, L = min(n - 1, LANE_BITS), and takes part2 = (c 2^L + i) << 1
# in lane i of a slot in chunk c: a chunk holds the one chunk of each of
# 2^(LANE_BITS - L) blocks (32 of 8 vertices, 16 of 9), or 2^L of the cuts
# of one block of LANE_BITS + 1 or more. _component_power_sum takes the
# vertex set S = c 2^L + i with L = min(n, LANE_BITS).
LANE_BITS = 12


@lru_cache(maxsize=None)
def _lane_patterns(width: int) -> tuple[Mask, ...]:
    """Truth-table lane masks over 2^width lanes: lane i of pattern k is set
    when bit k of i is. Cached: width takes at most LANE_BITS + 1 values."""
    lanes = 1 << width
    out = []
    for k in range(width):
        run = 1 << k
        pattern = ((1 << run) - 1) << run
        period = run << 1
        while period < lanes:
            pattern |= pattern << period
            period <<= 1
        out.append(pattern)
    return tuple(out)


def _flood(marks: list[Mask], links: list[list[tuple[int, Mask]]], stack: list[int]) -> None:
    """Push lane masks to a fixed point from the vertices on stack:
    marks[u] |= marks[v] & d for each (u, d) in links[v]. A vertex already
    on the stack is not pushed again, as it pushes its marks when popped."""
    while stack:
        v = stack.pop()
        mv = marks[v]
        for u, d in links[v]:
            mu = marks[u]
            grown = mu | mv & d
            if grown != mu:
                marks[u] = grown
                if u not in stack:
                    stack.append(u)


def _add(counter: list[Mask], lanes: Mask) -> None:
    """Add 1 in lanes to the bit-sliced counter, whose digit k holds bit k
    of every lane's value."""
    for k, digit in enumerate(counter):
        counter[k] = digit ^ lanes
        lanes &= digit
        if not lanes:
            return
    counter.append(lanes)


def _peel(live: Mask, members: list[Mask],
          links: list[list[tuple[int, Mask]]]) -> tuple[list[Mask], list[Mask]]:
    """Peel the components of every lane by their lowest vertex: vertex v,
    in order, seeds a component in the lanes of live & members[v] that no
    flood from a lower vertex has reached, floods it along links, and adds
    its seed lanes to a bit-sliced counter. Returns each vertex's seed
    lanes and the counter, whose value in a lane is its component count."""
    covered = [0] * len(members)
    seeds = []
    counter: list[Mask] = []
    for v, mv in enumerate(members):
        seed = live & mv & ~covered[v]
        seeds.append(seed)
        if seed:
            _add(counter, seed)
            covered[v] |= seed
            _flood(covered, links, [v])
    return seeds, counter


def _power_sums(totals: list[int], lanes: Mask, counter: list[Mask], span: int,
                shift: int = 0) -> None:
    """Add to totals[j] the sum of 2^(q + shift) over the lanes in slot j,
    lanes j span to (j + 1) span - 1, q each lane's value in counter (q +
    shift >= 0): the lanes are split by q digit by digit, without decoding
    them."""
    by_q = {0: lanes}
    for b, digit in enumerate(counter):
        split = {}
        for k, m in by_q.items():
            on = m & digit
            if on:
                split[k + (1 << b)] = on
            if m ^ on:
                split[k] = m ^ on
        by_q = split
    slot = (1 << span) - 1
    for k, m in by_q.items():
        j = 0
        while m:
            totals[j] += (m & slot).bit_count() << k + shift
            m >>= span
            j += 1


def _lane_sums(blocks: list[tuple[Mask, ...]]) -> list[int]:
    """Sum of mu over the spanning connected cuts of each of blocks, all of
    n vertices, the cut count of each, computed over chunks of 2^LANE_BITS
    big-int lanes.

    Block j takes slot j, the 2^L lanes from j 2^L, L = min(n - 1,
    LANE_BITS): a batch of n - 1 < LANE_BITS holds up to 2^(LANE_BITS - L)
    blocks in one chunk, and a block of more vertices is a batch of one,
    scanned over 2^(n - 1 - L) chunks. Lane i of slot j in chunk c is block
    j's cut part2 = (c 2^L + i) << 1, so vertex 0 stays in part1 as in
    _cuts. Vertex v has the lane mask P_v of the cuts putting it in part2:
    a truth-table pattern for v = 1..L, repeated in every slot, all ones or
    all zeros for the higher vertices, and zero for vertex 0. Edge uv lies
    in the slots E_uv of the blocks that have it: it crosses in the lanes
    of (P_u ^ P_v) & E_uv and joins one side in the rest of E_uv. Those
    masks are built once per batch when u, v <= L, and per chunk otherwise.
    Per chunk, all by whole-lane operations:

    * every vertex needs a crossing edge: the AND over v of the OR over
      u of the lanes where uv crosses;
    * the crossing edges must connect: a push flood from vertex 0 along
      them, kept in the lanes that it fills;
    * the components of both sides are peeled by _peel along the
      same-side edges into a bit-sliced counter q of components, and the
      seeds of each side are tallied up to three;
    * a lane where one side gets a single seed is a star, whose quotient
      is K_{1,q-1} with mu = 2^(q-1), summed from the counter by q;
    * a lane whose smaller side S (side 1 on a tie, as _quotient_mu picks)
      has two components X and Y has mu = 2^(q-2) + 2^(r+1): that is
      _quotient_mu's 2^k + 2^(k-c+1) with k = q - 2, and r = k - c counts
      the components of the other side T that touch exactly one of X and
      Y (each touches one at least, as every vertex has a crossing edge).
      X is flooded from vertex 0 when S is side 1, else from the lane's
      lowest part2 vertex, and Y is the rest of S. A T vertex touches X
      in the lanes where a crossing neighbour is in X; spread along the
      same-side edges, that marks whole T components, and r adds their
      seeds in a second counter.

    The stars and the summed two-component lanes are never decoded; their
    sums are split back by slot. The other accepted lanes, |S| >= 3 among
    them, are decoded to part2 and counted by _quotient_mu from their
    sides' components, as in _cuts, on the union tables of their slot's
    block. Blocks over MAX_SCAN_VERTICES are refused before any lane mask
    is built.
    """
    n = _require_scan(blocks[0])
    width = min(n - 1, LANE_BITS)
    span = 1 << width
    full = full_mask(n)
    ones = (1 << (len(blocks) << width)) - 1
    lanes = [0, *(p & ones for p in _lane_patterns(LANE_BITS)[:width])]
    # An edge between vertices 0..L crosses in the same lanes in every
    # chunk, so its masks are built once per batch; its slots E_uv are bit
    # u of v's rows stacked one to a slot, spread over the slot. An edge
    # with an end above L is varying: its mask is P_u, ones ^ P_u, all ones
    # or zero, set per chunk. Only a batch of one block of n > L + 1
    # vertices has any.
    fill = (1 << span) - 1
    firsts = ones // fill
    fixed: list[list[tuple[int, Mask]]] = []
    fixed_same: list[list[tuple[int, Mask]]] = []
    fixed_touched = []
    varying = []
    fixed_live = ones
    for v in range(n):
        row = stacked = 0
        for j, rows in enumerate(blocks):
            row |= rows[v]
            stacked |= rows[v] << (j << width)
        diffs, same = [], []
        touched = 0
        for u in iter_bits(row & (2 << width) - 1 if v <= width else 0):
            e = (stacked >> u & firsts) * fill
            d = (lanes[u] ^ lanes[v]) & e
            diffs.append((u, d))
            same.append((u, e ^ d))
            touched |= d
        fixed.append(diffs)
        fixed_same.append(same)
        fixed_touched.append(touched)
        if v > width or row >> (width + 1):
            varying.append((v, [u for u in iter_bits(row) if u > width or v > width]))
        else:
            fixed_live &= touched
    masks, cross, same = lanes, fixed, fixed_same
    totals = [0] * len(blocks)
    tables = [None] * len(blocks)
    for c in range(1 << (n - 1 - width)):
        live = fixed_live
        if varying:
            masks = lanes + [ones if c >> k & 1 else 0 for k in range(n - 1 - width)]
            cross = fixed.copy()
            same = fixed_same.copy()
            for v, row in varying:
                mv = masks[v]
                touched = fixed_touched[v]
                diffs = fixed[v].copy()
                for u in row:
                    d = masks[u] ^ mv
                    diffs.append((u, d))
                    touched |= d
                cross[v] = diffs
                same[v] = [(u, ones ^ d) for u, d in diffs]
                live &= touched
                if not live:
                    break
        if not live:
            continue
        # Flood from vertex 0 across the cut, lane by lane.
        reached = [0] * n
        reached[0] = live
        _flood(reached, cross, [0])
        for r in reached:
            live &= r
        if not live:
            continue
        # Peel the components of both sides along the same-side edges.
        # more1 and many1 are the lanes with a second and a third seed on
        # side 1, which vertex 0 seeds in every lane; seen2, more2 and many2
        # those with a first, second and third seed on side 2, and first2
        # the first side 2 seed of each vertex past 0.
        seeds, counter = _peel(live, [live] * n, same)
        more1 = many1 = seen2 = more2 = many2 = 0
        first2 = []
        for seed, m in zip(seeds[1:], masks[1:]):
            seed2 = seed & m
            seed1 = seed ^ seed2
            many1 |= more1 & seed1
            more1 |= seed1
            many2 |= more2 & seed2
            more2 |= seen2 & seed2
            first2.append(seed2 & ~seen2)
            seen2 |= seed2
        non_star = more1 & more2
        two1 = non_star & ~many1
        two2 = non_star & many1 & ~many2
        two = two1 | two2
        _power_sums(totals, live ^ non_star, counter, span, -1)
        if two:
            # X is vertex 0's component (S = side 1) or the lowest part2
            # vertex's (S = side 2), Y the rest of S; to_x and to_y mark the
            # T components that touch them, and once counts those touching
            # exactly one.
            xs = [two1] + [f & two2 for f in first2]
            _flood(xs, same, [v for v, x in enumerate(xs) if x])
            ys = [(two1 & ~m | two2 & m) & ~x for m, x in zip(masks, xs)]
            to_x, to_y = [], []
            for links in cross:
                a = b = 0
                for u, d in links:
                    a |= xs[u] & d
                    b |= ys[u] & d
                to_x.append(a)
                to_y.append(b)
            for touch in to_x, to_y:
                _flood(touch, same, [v for v, t in enumerate(touch) if t])
            once: list[Mask] = []
            for seed, a, b in zip(seeds, to_x, to_y):
                if seed & (a ^ b):
                    _add(once, seed & (a ^ b))
            _power_sums(totals, two, counter, span, -2)
            _power_sums(totals, two, once, span, 1)
        for i in iter_bits(non_star ^ two):
            j = i >> width
            lo, hi, h = tables[j] = tables[j] or _union_tables(blocks[j])
            part2 = (c << width | i & span - 1) << 1
            totals[j] += _quotient_mu(lo, hi, h, _components(lo, hi, h, full ^ part2),
                                      _components(lo, hi, h, part2))
    return totals


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
    """Facet count of one graph from its decomposition, _decompose: the
    join formula, the block product, and a batch of one to _lane_sums for
    each block left to scan, whatever its size. Refuses what count_plan
    refuses."""
    count, scans = _decompose(g)
    for rows in scans:
        count *= _lane_sums([rows])[0]
    return count


# count_plan(g): the count of g is factor * the product of the _lane_sums of
# the blocks in scans.
Plan = tuple[int, list[tuple[Mask, ...]]]
Tag = TypeVar("Tag")

# Most vertices of a graph that count_plan leaves whole to the lane scan. In
# count_many's shared chunks, on seeded connected graphs of edge density
# 0.25 to 0.95, the whole scan takes 0.15 to 0.37 times as long as the
# decomposition from 4 to 7 vertices, 0.63 at 8 and 0.87 at 9, then 1.21 at
# 10 and 1.19 to 1.32 from 11 to 13. One graph at a time the decomposition
# wins on joins, which take 1.1 to 5.5 times as long whole from 4 to 9
# vertices, so count_facets keeps it.
WHOLE_SCAN_MAX_VERTICES = 9


def count_plan(g: Graph) -> Plan:
    """The per-graph part of a facet count in count_many, which makes
    every refusal. A connected graph of at most WHOLE_SCAN_MAX_VERTICES
    vertices is left whole in scans, as its cuts cost less in a shared
    lane chunk than its decomposition does; any larger one gets
    _decompose, count_facets' pass.
    """
    if g.n <= WHOLE_SCAN_MAX_VERTICES:
        _require_connected(g)
        return 1, [g.adj]
    return _decompose(g)


def _decompose(g: Graph) -> Plan:
    """One flat pass over vertex sets of g's rows that does everything but
    the lane scans, and makes every refusal. A join G1 + G2 (the
    complement is disconnected) of any side sizes is counted whole by
    _count_join. Any other graph is the product over its blocks (the count
    is multiplicative under 1-sums): a block that is a join is counted by
    _count_join, and any other block, of 5 or more vertices, is left in
    scans, relabelled, for _lane_sums, and refused here if it is over
    MAX_SCAN_VERTICES. The complement rows are built once.
    """
    _require_connected(g)
    adj = g.adj
    co = complement_rows(adj)
    whole = _count_join(adj, co, full_mask(g.n))
    if whole is not None:
        return whole, []
    factor, scans = 1, []
    for b in blocks(adj):
        count = _count_join(adj, co, b)
        if count is None:
            rows = induced_rows(adj, b)
            _require_scan(rows)
            scans.append(rows)
        else:
            factor *= count
    return factor, scans


def count_many(items: Iterable[tuple[Tag, Plan | None]]) -> Iterator[tuple[Tag, int | None]]:
    """(tag, count) for each (tag, plan) of items, in input order: plan is
    count_plan(g) of a graph g, or None, whose count is None.

    The scans of many graphs share lane scans: a graph of at most
    WHOLE_SCAN_MAX_VERTICES vertices is scanned whole, and a larger one's
    non-join blocks, of 5 or more vertices. Each block left to scan waits
    in the queue of its vertex count n, and a queue is scanned by one
    _lane_sums call when it fills a chunk, 2^(LANE_BITS - n + 1) blocks
    below LANE_BITS + 1 vertices (256 of 5 vertices) and one from there,
    or when the input ends. Items are pulled one at a time and each count is yielded
    once it and every earlier count are known, so at most a chunk of
    blocks per size is held at a time.
    """
    pending: deque[list] = deque()
    queues: dict[int, list] = {}
    for tag, plan in items:
        factor, scans = plan or (None, ())
        # the count so far and the scans it waits for
        entry = [tag, factor, len(scans)]
        pending.append(entry)
        for rows in scans:
            queue = queues.setdefault(len(rows), [])
            queue.append((entry, rows))
            if len(queue) << min(len(rows) - 1, LANE_BITS) >= 1 << LANE_BITS:
                _scan_queue(queue)
        while pending and not pending[0][2]:
            tag, count, _ = pending.popleft()
            yield tag, count
    for queue in queues.values():
        _scan_queue(queue)
    for tag, count, _ in pending:
        yield tag, count


def _scan_queue(queue: list[tuple[list, tuple[Mask, ...]]]) -> None:
    """Scan the blocks of a count_many queue in one batch, multiply each
    count into its entry and empty the queue."""
    if queue:
        for (entry, _), total in zip(queue, _lane_sums([rows for _, rows in queue])):
            entry[1] *= total
            entry[2] -= 1
        queue.clear()


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
    the oracle's depth-first labeler, whose steps (-1, 1) need a bipartite
    graph; a prefix survives while every non-tree edge between its
    vertices differs by at most 1, which for odd differences is exactly 1.
    For a bipartite graph this equals its facet count. Every strict
    labeling has the side without vertex 0 as its odd-labelled set, whose
    cut holds every edge, so the tally holds that one set, which passes
    its one flood. A tree keeps all 2^(n-1) choices, so graphs on more
    than MAX_ORACLE_VERTICES vertices, the oracle's cap, are refused.
    """
    if b.n > MAX_ORACLE_VERTICES:
        raise GraphError(f"a {b.n}-vertex graph is too large for strict counting: "
                         f"2^{b.n - 1} sign choices (at most {MAX_ORACLE_VERTICES} vertices)")
    _require_connected(b)
    if bipartition(b) is None:
        raise GraphError("strict counting requires a bipartite graph")
    return sum(_tree_labelings(b, (-1, 1)).values())


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
    """Sum of 2^c(adj[S]) over the vertex sets S with cover inside N(S) | S,
    computed over chunks of 2^L sets at a time in big-int lanes.

    Lane i of chunk c is the set S = c 2^L + i, L = min(n, LANE_BITS), so
    vertex v is in S in the lanes of a truth-table pattern M_v for v < L,
    and in all or none of them above. Per chunk, by whole-lane operations:
    S covers v when it meets the closed neighbourhood N[v], so the sets
    kept are the AND over v in cover of the OR of M_u over N[v]; the
    components of adj[S] are peeled by _peel, vertex v seeding only in
    the lanes where it is in S and flooding along the edges of S, into a
    bit-sliced counter q; and the sum of 2^q comes from splitting the kept
    lanes by q. A graph on more than MAX_SCAN_VERTICES vertices is refused before
    any lane mask is built.

    Cached on (adj, cover): the same join side recurs across graphs. The
    labeling oracle and the whole-graph cut sum never call it, so the tests
    that compare them with the domination route still check each cached
    value.
    """
    n = _require_scan(adj)
    width = min(n, LANE_BITS)
    ones = (1 << (1 << width)) - 1
    lanes = _lane_patterns(width)
    # Per cover vertex, the lanes where N[v] meets S below L, and the
    # vertices of N[v] above L, each of which puts all lanes of a chunk in.
    needs = []
    for v in iter_bits(cover):
        closed = adj[v] | 1 << v
        near = 0
        for u in iter_bits(closed & (1 << width) - 1):
            near |= lanes[u]
        needs.append((near, closed >> width))
    total = [0]
    for c in range(1 << (n - width)):
        live = ones
        for near, high in needs:
            if not high & c:
                live &= near
        if not live:
            continue
        masks = [*lanes, *(ones if c >> k & 1 else 0 for k in range(n - width))]
        links = [[(u, masks[u]) for u in iter_bits(row)] for row in adj]
        _, counter = _peel(live, masks, links)
        _power_sums(total, live, counter, 1 << width)
    return total[0]
