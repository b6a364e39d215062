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
    complement_rows,
    complete_bipartite,
    complete_graph,
    components,
    contract_edges,
    cycle_graph,
    edges,
    from_edges,
    is_connected,
    join,
    one_sum,
    path_graph,
    star_graph,
    suspension,
)
from sepfacets.harness import sweep_conjecture

from conftest import (
    empty_graph,
    graph_strategy,
    mask_of,
    ref_components,
    ref_facet_count,
    ref_facet_vectors,
    ref_labelings,
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


@pytest.mark.parametrize("steps, gaps, totals", [
    ((-1, 0, 1), {0, 1}, [3, 16, 126, 1085, 13602]),
    ((-1, 1), {1}, [2, 4, 22, 70, 414]),
])
def test_tree_labelings_hand_each_leaf_its_odd_mask(steps, gaps, totals):
    # The oracle's and the strict counter's steps, on every connected class
    # on 2..6 vertices: the walk counts each labeling under its odd-labelled
    # set, as a search over raw values in vertex order does. The totals per
    # n were recorded when the walk still called a leaf per labeling.
    for n, total in zip(range(2, 7), totals):
        count = 0
        for g in generate_connected(n):
            tally = facets._tree_labelings(g, steps, gaps)
            assert tally == odd_masks(ref_labelings(g.n, edges(g), gaps))
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
                tally = facets._tree_labelings(g, (-1, 1), {1})
                assert list(tally) == [sides[1]]
                assert tally[sides[1]] == count_bipartite_strict(g)


def test_oracle_keeps_only_facet_labelings(monkeypatch):
    # enumerate_facets_oracle hands the walk only the facets' odd-labelled
    # sets, so no labeling that fails the spanning test is ever collected.
    walks = []
    walk = facets._tree_labelings

    def recorded(g, steps, gaps, found=None):
        walks.append(found)
        return walk(g, steps, gaps, found)

    monkeypatch.setattr(facets, "_tree_labelings", recorded)
    g = cycle_graph(6)
    labelings = enumerate_facets_oracle(g)
    assert len(walks) == 2 and walks[0] is None
    assert sorted(walks[1]) == sorted(oracle_parity_classes(g))
    assert sum(map(len, walks[1].values())) == len(labelings) == comb(6, 3)


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
    for n in range(3, 19):
        expected = n * comb(n - 1, (n - 1) // 2) if n % 2 else comb(n, n // 2)
        assert count_facets(cycle_graph(n)) == expected


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
    # Sparse 11-vertex graphs reach quotients of 7 or more vertices on both
    # branches of the cut scan: a star (one side a single component) takes
    # 2^(q-1) without a search, any other quotient goes to the search.
    searched = []
    search = facets._strict_labelings
    monkeypatch.setattr(facets, "_strict_labelings",
                        lambda nbrs: searched.append(len(nbrs)) or search(nbrs))
    rng = random.Random(2)
    pairs = [(i, j) for j in range(11) for i in range(j)]
    stars, others = [], []
    graphs = 0
    while graphs < 4:
        g = from_edges(11, rng.sample(pairs, 15))
        if not is_connected(g):
            continue
        graphs += 1
        for part2, mu in enumerate_facet_subgraphs(g):
            assert mu == mu_of(g, part2)
            cross = crossing(g, part2)
            comps = ref_components(g.n, [e for e in edges(g) if e not in cross])
            side1 = sum(1 for c in comps if not part2 >> c[0] & 1)
            star = side1 in (1, len(comps) - 1)
            (stars if star else others).append(len(comps))
    assert max(stars) >= 7 and max(others) >= 7
    assert sorted(searched) == sorted(others)


def test_count_facets_builds_no_graph(monkeypatch):
    cases = [
        join(complete_bipartite(3, 3), complete_graph(3)),
        one_sum(cycle_graph(5), 0, complete_graph(4), 0),
        suspension(from_edges(4, [(0, 1)])),  # a cone over K2 + 2 K1
        path_graph(6),
    ]
    expected = [sum(mu for _, mu in enumerate_facet_subgraphs(g)) for g in cases]
    built = []
    validate = Graph.__post_init__

    def counted(self):
        built.append(self.n)
        validate(self)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    assert [count_facets(g) for g in cases] == expected
    assert built == []
    complete_graph(2)
    assert built == [2]


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


def test_scan_refuses_large_blocks():
    with pytest.raises(GraphError, match="40-vertex block"):
        count_facets(cycle_graph(40))
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


LEAF_CACHES = ("_strict_labelings", "_component_power_sum")


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
    # every quotient _cuts passes and every join side scanned gives the
    # same value from the cache as from the function behind it
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
    assert max(len(nbrs) for nbrs, in keys["_strict_labelings"]) >= 7


def test_leaf_cache_reuse_in_the_n7_sweep():
    # calls and misses of each cache over the 853 classes on 7 vertices,
    # from cold caches
    clear_leaf_caches()
    sweep_conjecture(7)
    info = [getattr(facets, name).cache_info() for name in LEAF_CACHES]
    assert [(i.hits + i.misses, i.misses) for i in info] == [(1696, 43), (3094, 78)]
