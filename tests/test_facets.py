import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings

from sepfacets import facets
from sepfacets.canon import generate_all, generate_connected
from sepfacets.facets import (
    count_bipartite_strict,
    count_facets,
    count_plan,
    count_suspension_via_domination,
    enumerate_facet_subgraphs,
    enumerate_facets_oracle,
    mu_of,
    oracle_parity_classes,
    subgraph_component_value,
)
from sepfacets.formulas import conjecture_bounds
from sepfacets.graphs import (
    Graph,
    GraphError,
    bipartition,
    blocks,
    complement_rows,
    complete_bipartite,
    complete_graph,
    components,
    contract_edges,
    cycle_graph,
    edges,
    from_edges,
    full_mask,
    induced_rows,
    is_connected,
    iter_bits,
    join,
    one_sum,
    path_graph,
    star_graph,
    suspension,
)
from sepfacets.harness import SweepRow, sweep_conjecture

from conftest import (
    empty_graph,
    graph_strategy,
    mask_of,
    record_constructions,
    ref_component_power_sum,
    ref_components,
    ref_facet_count,
    ref_facet_vectors,
    ref_labelings,
    seeded_by_kind,
)

EXAMPLE = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (2, 4)])


def crossing(g, part2):
    """The edges of g with one end in part2."""
    return [(i, j) for i, j in edges(g) if (part2 >> i ^ part2 >> j) & 1]


def test_oracle_k2():
    fs = enumerate_facets_oracle(complete_graph(2))
    assert fs == [(0, -1), (0, 1)]


def test_oracle_small_complete():
    assert len(enumerate_facets_oracle(complete_graph(3))) == 6
    assert len(enumerate_facets_oracle(complete_graph(4))) == 14


def odd_masks(labelings):
    """The labelings counted by the mask of their odd-labelled vertices."""
    return Counter(mask_of(v for v, x in enumerate(values) if x % 2) for values in labelings)


def test_oracle_matches_reference_enumeration():
    # every connected class on 2..5 vertices, against raw-value enumeration,
    # also grouped by odd-labelled set; the bipartite ones also through the
    # sign enumeration of strict counting
    for n in range(2, 6):
        for g in generate_connected(n):
            vectors = sorted(ref_facet_vectors(g.n, edges(g)))
            assert enumerate_facets_oracle(g) == vectors
            assert oracle_parity_classes(g) == odd_masks(vectors)
            if bipartition(g) is not None:
                assert count_bipartite_strict(g) == len(vectors)


def ref_facets(g, gaps):
    """The labelings of ref_labelings(g.n, edges(g), gaps) whose edges with
    ends differing by exactly 1 span and connect g."""
    out = []
    for values in ref_labelings(g.n, edges(g), gaps):
        strict = [(i, j) for i, j in edges(g) if abs(values[i] - values[j]) == 1]
        if len(ref_components(g.n, strict)) == 1:
            out.append(values)
    return out


@pytest.mark.parametrize("steps, gaps, totals", [
    ((-1, 0, 1), {0, 1}, [2, 10, 60, 494, 5656]),
    ((-1, 1), {1}, [2, 4, 22, 70, 414]),
])
def test_tree_labelings_hand_each_leaf_its_odd_mask(steps, gaps, totals):
    # The oracle's and the strict counter's steps, on every connected class
    # on 2..6 vertices (the strict steps on the bipartite ones only, as
    # count_bipartite_strict takes): the walk counts each facet labeling
    # under its odd-labelled set, as a search over raw values in vertex
    # order, with no spanning tree, does once it drops the labelings whose
    # strict edges fail to span and connect g. The oracle's totals per n
    # are the sums of count_facets over the classes.
    for n, total in zip(range(2, 7), totals):
        count = 0
        for g in generate_connected(n):
            if 0 not in gaps and bipartition(g) is None:
                continue
            tally = facets._tree_labelings(g, steps)
            assert tally == odd_masks(ref_facets(g, gaps))
            count += sum(tally.values())
        assert count == total


def test_strict_walk_tallies_the_side_without_vertex_0():
    # A strict labeling alternates parity along every edge, so on a
    # connected bipartite graph its odd-labelled set is the side without
    # vertex 0, and the strict count is that one mask's tally.
    for n in range(2, 7):
        for g in generate_connected(n):
            sides = bipartition(g)
            if sides is not None:
                tally = facets._tree_labelings(g, (-1, 1))
                assert list(tally) == [sides[1]]
                assert tally[sides[1]] == count_bipartite_strict(g)


def test_oracle_lists_its_facets_in_one_walk(monkeypatch):
    # enumerate_facets_oracle walks once and hands the walk a listing, which
    # gets exactly the labelings the walk tallies as facets, so no labeling
    # that fails the spanning test is ever collected: on every connected
    # class on 2..6 vertices, against raw-value enumeration.
    walks = []
    walk = facets._tree_labelings

    def recorded(g, steps, listing=None):
        tally = walk(g, steps, listing)
        walks.append((listing, tally))
        return tally

    monkeypatch.setattr(facets, "_tree_labelings", recorded)
    for n in range(2, 7):
        for g in generate_connected(n):
            walks.clear()
            labelings = enumerate_facets_oracle(g)
            [(listing, tally)] = walks
            assert listing is not None and len(listing) == sum(tally.values())
            assert labelings == sorted(ref_facets(g, {0, 1}))


def test_oracle_rejects_disconnected():
    for oracle in enumerate_facets_oracle, oracle_parity_classes:
        with pytest.raises(GraphError):
            oracle(from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(GraphError):
            oracle(Graph(1, (0,)))


def test_count_facets_example_graph():
    assert count_facets(EXAMPLE) == 22
    assert len(enumerate_facets_oracle(EXAMPLE)) == 22


def test_count_facets_small():
    assert count_facets(complete_bipartite(2, 2)) == 6
    assert count_facets(star_graph(5)) == 16


def test_count_facets_cycle_closed_form():
    for n in range(3, 21):
        expected = n * comb(n - 1, (n - 1) // 2) if n % 2 else comb(n, n // 2)
        assert count_facets(cycle_graph(n)) == expected


def grid_graph(rows, cols):
    """The rows x cols grid, vertex r * cols + c at row r and column c."""
    n = rows * cols
    across = [(v, v + 1) for v in range(n) if (v + 1) % cols]
    down = [(v, v + cols) for v in range(n - cols)]
    return from_edges(n, across + down)


def test_count_facets_grid_4x6():
    # one 24-vertex block, 2^23 cuts: 2048 chunks of the lane scan
    g = grid_graph(4, 6)
    assert len(edges(g)) == 38
    assert count_facets(g) == 126534


def test_facet_subgraphs_example():
    subs = enumerate_facet_subgraphs(EXAMPLE)
    assert len(subs) == 7
    assert sorted(mu for _, mu in subs) == [2, 2, 2, 2, 4, 4, 6]
    # multiplicity is pinned by how many edges the cut drops
    by_removed = Counter((7 - len(crossing(EXAMPLE, part2)), mu) for part2, mu in subs)
    assert by_removed == Counter({(1, 6): 1, (2, 4): 2, (3, 2): 4})
    # the single-edge-removed cut is the one missing the bottom edge (2,3)
    biggest, _ = max(subs, key=lambda cut: len(crossing(EXAMPLE, cut[0])))
    assert (2, 3) not in crossing(EXAMPLE, biggest)
    assert biggest == mask_of([1, 4])
    assert sum(mu for _, mu in subs) == 22


def test_facet_subgraphs_bipartite_is_unique():
    for g in (complete_bipartite(2, 3), path_graph(5), cycle_graph(6)):
        subs = enumerate_facet_subgraphs(g)
        assert len(subs) == 1
        (part2, _), = subs
        assert crossing(g, part2) == edges(g)
        assert not part2 & 1


def test_facet_subgraphs_triangle():
    subs = enumerate_facet_subgraphs(complete_graph(3))
    assert subs == [(0b010, 2), (0b100, 2), (0b110, 2)]


def test_mu_of_example_values():
    subs = enumerate_facet_subgraphs(EXAMPLE)
    for part2, mu in subs:
        assert mu_of(EXAMPLE, part2) == mu
        assert mu % 2 == 0 and mu >= 2


def test_mu_of_rejects_bad_cuts():
    k3 = complete_graph(3)
    assert mu_of(k3, 0b110) == 2
    # empty, holding vertex 0, or reaching past the last vertex
    for part2 in (0, 0b001, 0b011, 0b111, 0b1000, 0b1010, -2):
        with pytest.raises(GraphError, match="nonempty vertex set"):
            mu_of(k3, part2)
    # crossing edges 1-2 and 2-3 miss vertex 0
    with pytest.raises(GraphError, match="not spanning connected"):
        mu_of(path_graph(4), 0b0100)
    # crossing edges 0-1 and 2-3 cover every vertex but are disconnected
    with pytest.raises(GraphError, match="not spanning connected"):
        mu_of(path_graph(4), 0b0110)


def test_strict_count_trees():
    for tree in (path_graph(4), star_graph(6), path_graph(8),
                 from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])):
        assert count_bipartite_strict(tree) == 2 ** (tree.n - 1)


def test_strict_count_small_cycles():
    assert count_bipartite_strict(complete_bipartite(2, 2)) == 6
    # even cycles: closing edge forces the five path signs to sum to +-1
    assert count_bipartite_strict(cycle_graph(6)) == 20
    assert count_bipartite_strict(cycle_graph(4)) == 6
    assert ref_facet_count(cycle_graph(6)) == 20


def test_strict_count_takes_the_oracle_cap():
    assert count_bipartite_strict(path_graph(21)) == 2**20
    with pytest.raises(GraphError, match=r"22-vertex graph.*\(at most 21 vertices\)"):
        count_bipartite_strict(path_graph(22))


def test_strict_count_rejects_bad_input():
    with pytest.raises(GraphError):
        count_bipartite_strict(complete_graph(3))
    with pytest.raises(GraphError):
        count_bipartite_strict(from_edges(4, [(0, 1), (2, 3)]))


def test_suspension_domination_examples():
    assert count_suspension_via_domination(empty_graph(4)) == 16
    assert count_suspension_via_domination(complete_graph(2)) == 6
    assert count_suspension_via_domination(Graph(1, (0,))) == 2


def test_suspension_domination_three_component_cut():
    # apexed graph whose top row covers a 5-vertex bottom row; the cut that
    # puts the whole bottom row opposite the apex induces 3 components there
    base = from_edges(9, [(1, 3), (0, 4), (1, 5), (1, 6), (2, 4), (2, 8),
                          (3, 7), (5, 6), (7, 8)])
    bottom = mask_of([4, 5, 6, 7, 8])
    hat = suspension(base)
    subs = enumerate_facet_subgraphs(hat)
    assert [mu for part2, mu in subs if part2 == bottom] == [2 ** 3]
    assert count_suspension_via_domination(base) == sum(mu for _, mu in subs)


def test_subgraph_component_value_examples():
    assert subgraph_component_value(empty_graph(3)) == 27
    assert subgraph_component_value(Graph(1, (0,))) == 3
    assert subgraph_component_value(complete_graph(2)) == 7
    assert subgraph_component_value(path_graph(3)) == 17
    assert subgraph_component_value(complete_graph(3)) == 15


@settings(max_examples=60, deadline=None)
@given(graph_strategy(min_n=2, max_n=5, connected=True))
def test_routes_agree_with_reference(g):
    expected = ref_facet_count(g)
    assert len(enumerate_facets_oracle(g)) == expected
    assert count_facets(g) == expected


@settings(max_examples=40, deadline=None)
@given(graph_strategy(min_n=2, max_n=5, connected=True))
def test_central_symmetry(g):
    vectors = set(enumerate_facets_oracle(g))
    assert len(vectors) % 2 == 0
    for v in vectors:
        assert tuple(-x for x in v) in vectors


@settings(max_examples=40, deadline=None)
@given(graph_strategy(min_n=2, max_n=5, connected=True))
def test_strict_edges_span_and_connect(g):
    for values in enumerate_facets_oracle(g):
        strict = [(i, j) for i, j in edges(g) if values[i] != values[j]]
        assert all(abs(values[i] - values[j]) == 1 for i, j in strict)
        assert {v for e in strict for v in e} == set(range(g.n))
        assert len(ref_components(g.n, strict)) == 1


@settings(max_examples=40, deadline=None)
@given(graph_strategy(min_n=2, max_n=5, connected=True))
def test_normalized_labelings_define_distinct_hyperplanes(g):
    # signature: which generating vectors +-(e_i - e_j) lie on the hyperplane
    signatures = set()
    facets = enumerate_facets_oracle(g)
    for values in facets:
        sig = frozenset(
            (i, j, s)
            for i, j in edges(g)
            for s in (1, -1)
            if s * (values[i] - values[j]) == 1
        )
        signatures.add(sig)
    assert len(signatures) == len(facets)


@settings(max_examples=40, deadline=None)
@given(graph_strategy(min_n=1, max_n=5))
def test_domination_route_matches_decomposition(g):
    # count_facets(suspension(g)) runs through the domination route itself
    cuts = enumerate_facet_subgraphs(suspension(g))
    assert count_suspension_via_domination(g) == sum(mu for _, mu in cuts)


def test_domination_route_matches_brute_sum():
    # every graph up to 6 vertices, joins included, so the join recursion of
    # count_suspension_via_domination is covered; subgraph_component_value
    # runs the same subset scan without the cover requirement
    for n in range(1, 7):
        for g in generate_all(n):
            es = edges(g)
            dominating = every = 0
            for s in range(1 << n):
                inside = {v for v in range(n) if s >> v & 1}
                kept = [(i, j) for i, j in es if i in inside and j in inside]
                comps = [c for c in ref_components(n, kept) if c[0] in inside]
                every += 2 ** len(comps)
                covered = inside | {j for i, j in es if i in inside}
                covered |= {i for i, j in es if j in inside}
                if len(covered) == n:
                    dominating += 2 ** len(comps)
            assert count_suspension_via_domination(g) == dominating
            assert subgraph_component_value(g) == every


def test_component_power_sum_matches_set_by_set_reference():
    # one chunk of 2^n lanes up to 12 vertices; from 13 to 16 vertices 2 to
    # 16 chunks, in which each vertex past the 12th is in every set or none
    for n in range(1, 8):
        for g in generate_all(n):
            for cover in 0, full_mask(n):
                assert (facets._component_power_sum(g.adj, cover)
                        == ref_component_power_sum(g.adj, cover))
    rng = random.Random(17)
    for n in range(13, 17):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        g = from_edges(n, rng.sample(pairs, rng.randint(n, 3 * n)))
        cover = rng.getrandbits(n)
        assert facets._component_power_sum(g.adj, cover) == ref_component_power_sum(g.adj, cover)


def test_wheels_match_the_set_by_set_domination_count(monkeypatch):
    # a wheel on k + 1 vertices is a cone over C_k, counted from N^(C_k)
    wheels = [join(complete_graph(1), cycle_graph(k)) for k in range(4, 17)]
    lanes = [count_facets(w) for w in wheels]
    monkeypatch.setattr(facets, "_component_power_sum", ref_component_power_sum)
    assert [count_facets(w) for w in wheels] == lanes


@settings(max_examples=40, deadline=None)
@given(graph_strategy(min_n=1, max_n=5))
def test_q_value_bounds_suspension(g):
    assert count_facets(suspension(g)) <= subgraph_component_value(g)


def test_quotients_are_connected_bipartite():
    # Every class up to 6 vertices: cuts come in ascending part2 order with
    # vertex 0 on the other side, each cut's mu (counted on masks) matches
    # the quotient Graph built by contract_edges, and the block product of
    # count_facets matches the whole-graph sum over cuts.
    for n in range(2, 7):
        for g in generate_connected(n):
            subs = enumerate_facet_subgraphs(g)
            masks = [part2 for part2, _ in subs]
            assert masks == sorted(set(masks)) and not any(p & 1 for p in masks)
            for part2, mu in subs:
                cross = crossing(g, part2)
                quotient = contract_edges(g, [e for e in edges(g) if e not in cross])
                assert is_connected(quotient)
                assert bipartition(quotient) is not None
                assert mu == count_bipartite_strict(quotient)
            assert count_facets(g) == sum(mu for _, mu in subs)


def test_cut_multiplicities_are_oracle_parity_classes():
    # A facet labeling differs by 0 or 1 on every edge, so its strict edges
    # are the edges across its parity cut: mu(part2) is the number of oracle
    # labelings whose odd-labelled vertices are part2. Up to 6 vertices each
    # cut is also recounted by mu_of (contract_edges, count_bipartite_strict).
    # oracle_parity_classes counts the same classes without building them.
    for n in range(2, 8):
        for g in generate_connected(n):
            tally = odd_masks(enumerate_facets_oracle(g))
            assert oracle_parity_classes(g) == tally
            cuts = enumerate_facet_subgraphs(g)
            assert cuts == sorted(tally.items())
            if n <= 6:
                assert all(mu_of(g, part2) == mu for part2, mu in cuts)


def test_large_quotients_match_mu_of(monkeypatch):
    # Sparse 11-vertex graphs reach quotients of 7 or more vertices with S,
    # the side with fewer components, of one, two, and three or more
    # components. The cut scan counts a star (|S| = 1) in closed form and
    # labels every other quotient on S by _side_labelings; the lane scan
    # also sums |S| = 2 in closed form and labels only |S| >= 3. Both sums
    # are the sum of mu_of.
    labelled = []
    count = facets._side_labelings
    monkeypatch.setattr(facets, "_side_labelings",
                        lambda s, touches: labelled.append(s + len(touches)) or count(s, touches))
    rng = random.Random(2)
    pairs = [(i, j) for j in range(11) for i in range(j)]
    by_side = {1: [], 2: [], 3: []}
    graphs = 0
    while graphs < 4:
        g = from_edges(11, rng.sample(pairs, 15))
        if not is_connected(g):
            continue
        graphs += 1
        labelled.clear()
        cuts = enumerate_facet_subgraphs(g)
        labelled_by_cuts = sorted(labelled)
        quotients = {1: [], 2: [], 3: []}
        for part2, mu in cuts:
            assert mu == mu_of(g, part2)
            cross = crossing(g, part2)
            comps = ref_components(g.n, [e for e in edges(g) if e not in cross])
            side1 = sum(1 for c in comps if not part2 >> c[0] & 1)
            fewer = min(side1, len(comps) - side1, 3)
            quotients[fewer].append(len(comps))
            by_side[fewer].append(len(comps))
        assert labelled_by_cuts == sorted(quotients[2] + quotients[3])
        labelled.clear()
        assert facets._lane_sums([g.adj]) == [sum(mu for _, mu in cuts)]
        assert sorted(labelled) == sorted(quotients[3])
    assert all(max(sizes) >= 7 for sizes in by_side.values())


def cut_sum(rows):
    return sum(mu for _, mu in facets._cuts(rows))


def small_blocks(monkeypatch):
    """The distinct blocks of the connected classes on 2..8 vertices, joins
    included, as rows."""
    monkeypatch.setenv("SEP_MAX_N", "8")
    seen = set()
    for n in range(2, 9):
        for g in generate_connected(n):
            for b in blocks(g.adj):
                seen.add(induced_rows(g.adj, b))
    return seen


def test_lane_sum_matches_cuts_on_every_small_block(monkeypatch):
    # one chunk of 2^(n-1) lanes
    seen = small_blocks(monkeypatch)
    assert max(len(rows) for rows in seen) == 8
    for rows in seen:
        assert facets._lane_sums([rows]) == [cut_sum(rows)]


def seeded_prime_blocks(sizes, seed):
    """For each n in sizes, two seeded 2-connected graphs whose complement
    is connected, so count_facets scans them whole: n + n // 2 and 3n edges."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        pairs = [(i, j) for j in range(n) for i in range(j)]
        for m in (n + n // 2, 3 * n):
            while True:
                g = from_edges(n, rng.sample(pairs, m))
                if (blocks(g.adj) == [full_mask(g.n)]
                        and len(components(complement_rows(g.adj))) == 1):
                    out.append(g)
                    break
    return out


def test_lane_sum_matches_cuts_across_chunks():
    # From 14 vertices a block spans 2^(n-13) chunks of 4096 lanes, whose
    # vertices past the 12th are all ones or all zeros in each chunk.
    for g in seeded_prime_blocks(range(9, 17), 11):
        assert facets._lane_sums([g.adj]) == [cut_sum(g.adj)] == [count_facets(g)]


def ladder(m):
    """L_m = P_m x K2: two m-vertex paths 0..m-1 and m..2m-1 and the rungs
    (i, m + i)."""
    path = [(i, i + 1) for i in range(m - 1)]
    return from_edges(2 * m, path + [(m + i, m + j) for i, j in path]
                      + [(i, m + i) for i in range(m)])


def test_ladder_counts():
    # N(L_m) = 2 * 3^(m-1); from m = 8 the 2m vertices span several chunks
    for m in range(2, 11):
        assert count_facets(ladder(m)) == 2 * 3 ** (m - 1)


def test_two_component_lanes_sum_either_way(monkeypatch):
    # The cuts whose smaller side S has two components, with S on either
    # side (side 1 on a tie), are summed in closed form in every chunk
    # that has any, so the lane scan decodes only quotients with three or
    # more components on each side, and its totals are the cut sums.
    cases = [*small_blocks(monkeypatch), *(g.adj for g in seeded_prime_blocks(range(9, 17), 11)),
             *(ladder(m).adj for m in range(2, 11))]
    decoded = []
    mu = facets._quotient_mu
    monkeypatch.setattr(facets, "_quotient_mu", lambda lo, hi, h, comps1, comps2:
                        decoded.append((len(comps1), len(comps2))) or mu(lo, hi, h, comps1, comps2))
    expected = [cut_sum(rows) for rows in cases]
    assert {1 if c1 <= c2 else 2 for c1, c2 in decoded if min(c1, c2) == 2} == {1, 2}
    decoded.clear()
    assert [facets._lane_sums([rows])[0] for rows in cases] == expected
    assert decoded and min(min(sides) for sides in decoded) == 3


def in_batches(blocks_by_size):
    """_lane_sums over each size's blocks, in batches of one chunk,
    2^(LANE_BITS - n + 1) blocks of n vertices, the last one partial."""
    sums = {}
    for n, group in blocks_by_size.items():
        cap = max(1, (1 << facets.LANE_BITS) >> (n - 1))
        sums[n] = [total for k in range(0, len(group), cap)
                   for total in facets._lane_sums(group[k:k + cap])]
    return sums


def test_lane_sums_match_cuts_in_batches(monkeypatch):
    # every non-join block of the connected classes on 2..8 vertices, each
    # size scanned in full chunks of 2^(13 - n) blocks and one partial chunk
    by_size = {}
    for rows in sorted(small_blocks(monkeypatch)):
        if len(components(complement_rows(rows))) == 1:
            by_size.setdefault(len(rows), []).append(rows)
    assert sorted(by_size) == [5, 6, 7, 8]
    assert len(by_size[8]) > 32 and len(by_size[8]) % 32
    assert in_batches(by_size) == {n: [cut_sum(rows) for rows in group]
                                   for n, group in by_size.items()}


def test_lane_sums_match_cuts_in_batches_across_sizes():
    # seeded prime blocks of 9..13 vertices, 2^(13 - n) to a batch, so each
    # batch fills one chunk of 4096 lanes
    by_size = {n: [g.adj for g in seeded_prime_blocks([n] * (1 << max(0, 12 - n)), n)]
               for n in range(9, 14)}
    assert [len(group) for group in by_size.values()] == [16, 8, 4, 2, 2]
    assert in_batches(by_size) == {n: [cut_sum(rows) for rows in group]
                                   for n, group in by_size.items()}


def test_lane_sums_limit_each_edge_to_its_blocks():
    # each chord lies in one block of the batch, so its masks must stay in
    # that block's slot; the complement of C8 beside a C8, whose cuts give
    # no stars, shows a star sum added to the wrong slot
    c8 = [(i, (i + 1) % 8) for i in range(8)]
    batch = [from_edges(8, c8).adj] * 32
    batch[17] = from_edges(8, c8 + [(0, 4)]).adj
    batch[18] = from_edges(8, c8 + [(1, 3), (5, 7)]).adj
    batch[19] = complement_rows(batch[0])
    batch[31] = from_edges(8, c8 + [(2, 5)]).adj
    expected = [cut_sum(rows) for rows in batch]
    assert len(set(expected)) == 5
    assert facets._lane_sums(batch) == expected
    assert facets._lane_sums(batch[16:21]) == expected[16:21]


def test_count_many_streams_its_input():
    # a queue of 8-vertex blocks is scanned once it fills a chunk of 32,
    # so the first count comes before the 33rd graph is pulled
    rng = random.Random(3)
    pairs = [(i, j) for j in range(8) for i in range(j)]
    pulled = []

    def primes():
        while len(pulled) < 80:
            g = from_edges(8, rng.sample(pairs, rng.randint(10, 20)))
            if (blocks(g.adj) == [full_mask(8)]
                    and len(components(complement_rows(g.adj))) == 1):
                pulled.append(g)
                yield g, count_plan(g)

    stream = facets.count_many(primes())
    g, count = next(stream)
    assert len(pulled) <= 32
    assert count == cut_sum(g.adj)
    rest = list(stream)
    assert len(pulled) == 80 and [h for h, _ in rest] == pulled[1:]
    assert [c for _, c in rest] == [cut_sum(h.adj) for h in pulled[1:]]


def test_count_many_equals_count_facets_on_small_classes(monkeypatch):
    # one stream: every class on 2..7 vertices, the 16-vertex 1-sum of C5,
    # C6 and C7 and the 10-vertex 1-sum of C7 and K4, then 12 seeded 8-, 9-
    # and 10-vertex graphs of each kind with the sizes interleaved and a
    # None item among them. The graphs of 9 or fewer vertices are scanned
    # whole and the others decomposed; every count equals count_facets and
    # the cut sum, the 8- and 9-vertex scans end in a partial chunk, and a
    # decomposed graph's block under 8 vertices shares its batch.
    wanted = dict.fromkeys(("join", "separable", "prime"), 12)
    by_size = {n: seeded_by_kind(random.Random(n), n, wanted, n * (n - 1) // 2 - 2)
               for n in (8, 9, 10)}
    graphs = [g for n in range(2, 8) for g in generate_connected(n)]
    graphs += [one_sum(one_sum(cycle_graph(5), 0, cycle_graph(6), 0), 3, cycle_graph(7), 0),
               one_sum(cycle_graph(7), 0, complete_graph(4), 0)]
    graphs += [found[i] for i in range(12) for kinds in by_size.values()
               for found in kinds.values()]
    items = [(g, count_plan(g)) for g in graphs]
    items.insert(len(items) - 50, (None, None))
    expected = [(g, count_facets(g)) for g in graphs]
    expected.insert(len(expected) - 50, (None, None))
    assert [count for g, count in expected if g is not None] == [cut_sum(g.adj) for g in graphs]
    small = [rows for g, plan in items if g is not None and g.n > 9
             for rows in plan[1] if len(rows) < 8]
    assert sorted(map(len, small[:4])) == [5, 6, 7, 7]
    batches = []
    lane_sums = facets._lane_sums
    monkeypatch.setattr(facets, "_lane_sums", lambda batch: batches.append(batch)
                        or lane_sums(batch))
    assert list(facets.count_many(items)) == expected
    for n, cap in (8, 32), (9, 16):
        sizes = {len(batch) for batch in batches if len(batch[0]) == n}
        assert cap in sizes and min(sizes) < cap
    assert any(len(batch) > 1 and any(rows is block for rows in batch for block in small)
               for batch in batches if len(batch[0]) < 8)


def quotient_count(g):
    """The cut count of a connected bipartite graph read as a quotient:
    each vertex is a component, and the sides are its bipartition."""
    lo, hi, h = facets._union_tables(g.adj)
    return facets._quotient_mu(lo, hi, h, *([1 << v for v in iter_bits(side)]
                                            for side in bipartition(g)))


def test_quotient_count_matches_strict_count(monkeypatch):
    # every connected bipartite class on 2..8 vertices covers both cases,
    # a star and S of two or more labelled; seeded graphs up to 16
    # vertices, both sides of 3 or more, reach _side_labelings with 3 to 7
    # vertices on S
    monkeypatch.setenv("SEP_MAX_N", "8")
    for n in range(2, 9):
        for g in generate_connected(n):
            if bipartition(g):
                assert quotient_count(g) == count_bipartite_strict(g)
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        n = rng.randint(6, 16)
        a = rng.randint(3, n - 3)
        order = rng.sample(range(n), n)
        pairs = [(i, j) for i in order[:a] for j in order[a:]]
        g = from_edges(n, rng.sample(pairs, rng.randint(n - 1, min(len(pairs), 2 * n))))
        if is_connected(g):
            checked += 1
            assert quotient_count(g) == count_bipartite_strict(g)


def test_count_facets_scans_a_block_by_its_size(monkeypatch):
    # every non-join block goes to the lane scan, one batch per block size
    # through count_many, and none to _cuts; the total is the block product
    routes = []
    cuts, lane_sums = facets._cuts, facets._lane_sums
    monkeypatch.setattr(facets, "_cuts", lambda rows: routes.append(("_cuts", len(rows)))
                        or cuts(rows))
    monkeypatch.setattr(facets, "_lane_sums", lambda batch: routes.append(
        ("_lane_sums", [len(rows) for rows in batch])) or lane_sums(batch))
    c7, c8 = cycle_graph(7), cycle_graph(8)
    g = one_sum(one_sum(c7, 0, c8, 0), 3, complete_graph(3), 0)
    assert count_facets(g) == count_facets(c7) * count_facets(c8) * 6
    routes.clear()
    count_facets(g)
    assert sorted(routes) == [("_lane_sums", [7]), ("_lane_sums", [8])]
    # the three C5 blocks of a 13-vertex 1-sum share one chunk
    c5 = cycle_graph(5)
    g = one_sum(one_sum(c5, 0, c5, 0), 6, c5, 0)
    routes.clear()
    assert count_facets(g) == 30**3
    assert routes == [("_lane_sums", [5, 5, 5])]
    assert cut_sum(g.adj) == 30**3


def test_count_plan_scans_a_graph_of_up_to_9_vertices_whole(monkeypatch):
    # in a batch a graph of WHOLE_SCAN_MAX_VERTICES or fewer vertices is one
    # whole-graph scan and a larger one is decomposed, so a 10-vertex join
    # is counted by the join formula; count_facets decomposes either size
    joins = []
    count_join = facets._count_join
    monkeypatch.setattr(facets, "_count_join", lambda adj, co, s: joins.append(s.bit_count())
                        or count_join(adj, co, s))
    nine, ten = join(cycle_graph(5), cycle_graph(4)), join(cycle_graph(5), cycle_graph(5))
    assert count_plan(nine) == (1, [nine.adj])
    assert joins == []
    assert count_plan(ten) == (cut_sum(ten.adj), [])
    assert joins == [10]
    joins.clear()
    assert count_facets(nine) == cut_sum(nine.adj)
    assert joins == [9]


def test_count_plan_refuses_as_count_facets_does():
    # a graph left whole to the scan is refused with the decomposition's
    # text, and a sweep line keeps its input_error row at any jobs
    for g in Graph(1, (0,)), from_edges(3, [(0, 1)]):
        with pytest.raises(GraphError) as single:
            count_facets(g)
        with pytest.raises(GraphError) as batch:
            count_plan(g)
        assert str(batch.value) == str(single.value)
    for jobs in 1, 2:
        sweep = sweep_conjecture(3, ["B_", "Bw", "@"], jobs=jobs)
        assert sweep.rows == [SweepRow("B_", 3, None, 4, 6, "input_error"),
                              SweepRow("Bw", 3, 6, 4, 6, "one_sum_of_triangles"),
                              SweepRow("@", 3, None, 4, 6, "input_error")]
        assert sweep.input_errors == [("B_", "disconnected"), ("@", "expected 3 vertices, got 1")]


def test_count_facets_builds_no_graph(monkeypatch):
    cases = [
        join(complete_bipartite(3, 3), complete_graph(3)),
        one_sum(cycle_graph(5), 0, complete_graph(4), 0),
        suspension(from_edges(4, [(0, 1)])),  # a cone over K2 + 2 K1
        path_graph(6),
    ]
    expected = [sum(mu for _, mu in enumerate_facet_subgraphs(g)) for g in cases]
    validated, trusted = record_constructions(monkeypatch)
    assert [count_facets(g) for g in cases] == expected
    assert validated == trusted == []
    # both ways of building a Graph are seen
    complete_graph(2)
    Graph(3, (0, 0, 0))
    assert (validated, trusted) == ([3], [2])


def test_join_identity_on_connected_classes():
    # classes whose complement is disconnected are counted by the join
    # identity; the whole-graph sum over cuts never splits them
    joins = 0
    for n in range(2, 8):
        for g in generate_connected(n):
            if len(components(complement_rows(g.adj))) == 1:
                continue
            joins += 1
            assert count_facets(g) == sum(mu for _, mu in enumerate_facet_subgraphs(g))
    assert joins > 0


def test_join_identity_on_joins_of_all_graphs():
    pools = {k: list(generate_all(k)) for k in range(1, 7)}
    for n1 in pools:
        for n2 in pools:
            if n1 + n2 > 7:
                continue
            for g1 in pools[n1]:
                for g2 in pools[n2]:
                    g = join(g1, g2)
                    cuts = enumerate_facet_subgraphs(g)
                    assert count_facets(g) == sum(mu for _, mu in cuts)


def test_scan_refuses_large_blocks(monkeypatch):
    # the refusal comes before the lane scan builds any lane mask
    monkeypatch.setattr(facets, "_lane_patterns", None)
    with pytest.raises(GraphError, match="40-vertex block"):
        count_facets(cycle_graph(40))
    with pytest.raises(GraphError, match="33-vertex block"):
        facets._lane_sums([cycle_graph(33).adj])
    with pytest.raises(GraphError, match="33-vertex block"):
        count_suspension_via_domination(cycle_graph(33))
    with pytest.raises(GraphError, match="33-vertex block"):
        subgraph_component_value(cycle_graph(33))
    with pytest.raises(GraphError, match="22-vertex graph"):
        enumerate_facets_oracle(cycle_graph(22))
    with pytest.raises(GraphError, match="22-vertex graph is too large for the labeling oracle"):
        oracle_parity_classes(cycle_graph(22))
    with pytest.raises(GraphError, match="40-vertex graph"):
        count_bipartite_strict(path_graph(40))


def test_count_long_path_beyond_recursion_limit(monkeypatch):
    monkeypatch.setenv("SEP_MAX_N", "1200")
    assert count_facets(path_graph(1200)) == 2**1199


def alternating_threshold(n):
    """T_n: vertex k arrives dominating when k is odd and isolated when even."""
    return from_edges(n, [(i, k) for k in range(1, n, 2) for i in range(k)])


def test_deep_cotrees_match_cut_sum():
    # T_n alternates joins and disjoint unions, so its cotree is n levels
    # deep; the whole-graph cut sum never splits it
    for n in range(2, 15, 2):
        g = alternating_threshold(n)
        assert count_facets(g) == sum(mu for _, mu in enumerate_facet_subgraphs(g))


def test_deep_cotrees_count_without_scans():
    # no part of T_64 is scanned, so it counts under the 32-vertex refusal
    bounds = conjecture_bounds(64)
    assert bounds.lower <= count_facets(alternating_threshold(64)) <= bounds.upper


def test_deep_cotrees_beyond_recursion_limit(monkeypatch):
    monkeypatch.setenv("SEP_MAX_N", "1200")
    assert count_facets(complete_graph(1100)) == 2**1100 - 2
    # T_1200 is a join, so the paper's theorem puts it inside the bracket
    bounds = conjecture_bounds(1200)
    assert bounds.lower <= count_facets(alternating_threshold(1200)) <= bounds.upper


def test_cones_skip_blocks(monkeypatch):
    calls = []
    split = facets.blocks
    monkeypatch.setattr(facets, "blocks", lambda adj: calls.append(len(adj)) or split(adj))
    wheel = join(complete_graph(1), cycle_graph(5))
    assert count_facets(wheel) == sum(mu for _, mu in enumerate_facet_subgraphs(wheel))
    assert count_facets(star_graph(6)) == 32
    assert calls == []


def test_count_facets_decomposes_once(monkeypatch):
    # one complement and at most one blocks() call per graph, however its
    # blocks nest: each block is counted on the graph's own rows
    calls = Counter()

    def counted(name):
        f = getattr(facets, name)
        monkeypatch.setattr(facets, name, lambda rows: calls.update([name]) or f(rows))

    counted("blocks")
    counted("complement_rows")
    c5 = cycle_graph(5)
    for g, count, split in [
        (one_sum(one_sum(c5, 0, c5, 0), 0, complete_graph(3), 0), 5400, 1),
        (c5, 30, 1),
        (complete_bipartite(3, 3), 14, 0),
    ]:
        calls.clear()
        assert count_facets(g) == count
        assert (calls["blocks"], calls["complement_rows"]) == (split, 1)


def test_join_floods_each_set_once(monkeypatch):
    # _count_join hands each side's components to the domination walk, which
    # must not flood that side again
    floods = []
    flood = facets.components
    monkeypatch.setattr(facets, "components",
                        lambda adj, s=None: floods.append((adj, s)) or flood(adj, s))
    pools = {k: list(generate_all(k)) for k in range(1, 5)}
    for n1 in pools:
        for n2 in pools:
            for g1 in pools[n1]:
                for g2 in pools[n2]:
                    floods.clear()
                    count_facets(join(g1, g2))
                    assert floods and len(set(floods)) == len(floods)


def cache_cases():
    """Every connected class on 2..7 vertices, then four seeded sparse
    13-vertex graphs with 24 edges, which reach quotients of 7 or more
    vertices."""
    rng = random.Random(5)
    pairs = [(i, j) for j in range(13) for i in range(j)]
    sparse = []
    while len(sparse) < 4:
        g = from_edges(13, rng.sample(pairs, 24))
        if is_connected(g):
            sparse.append(g)
    return [g for n in range(2, 8) for g in generate_connected(n)] + sparse


LEAF_CACHES = ("_side_labelings", "_component_power_sum")


def clear_leaf_caches():
    for name in LEAF_CACHES:
        getattr(facets, name).cache_clear()


def test_leaf_caches_never_change_a_count():
    for name in LEAF_CACHES:
        assert getattr(facets, name).cache_info().maxsize == 1 << 16
    graphs = cache_cases()
    clear_leaf_caches()
    forward = [count_facets(g) for g in graphs]
    backward = [count_facets(g) for g in reversed(graphs)]
    assert backward[::-1] == forward


def test_leaf_caches_match_uncached_counts(monkeypatch):
    # every quotient with three or more components on each side and every
    # join side scanned gives the same value from the cache as from the
    # function behind it
    keys = {name: set() for name in LEAF_CACHES}
    for name in LEAF_CACHES:
        monkeypatch.setattr(facets, name, lambda *key, seen=keys[name], f=getattr(facets, name):
                            seen.add(key) or f(*key))
    for g in cache_cases():
        count_facets(g)
    monkeypatch.undo()
    for name in LEAF_CACHES:
        cached = getattr(facets, name)
        assert keys[name]
        for key in keys[name]:
            assert cached(*key) == cached.__wrapped__(*key)
    assert max(s + len(touches) for s, touches in keys["_side_labelings"]) >= 7


def leaf_cache_use():
    """(calls, misses) of each leaf cache."""
    return [(i.hits + i.misses, i.misses)
            for i in (getattr(facets, name).cache_info() for name in LEAF_CACHES)]


def test_leaf_cache_reuse_in_the_n7_sweep():
    # calls and misses of each cache over the 853 classes on 7 vertices,
    # from cold caches: count_facets decomposes each class, so its joins
    # reach the domination scan; the sweep scans each class whole, and
    # only the quotients of its decoded lanes reach a cache
    classes = list(generate_connected(7))
    clear_leaf_caches()
    for g in classes:
        count_facets(g)
    assert leaf_cache_use() == [(63, 14), (3094, 78)]
    clear_leaf_caches()
    sweep_conjecture(7)
    assert leaf_cache_use() == [(187, 54), (0, 0)]
