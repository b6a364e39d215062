from collections import Counter

import pytest
from hypothesis import given, settings

from sepfacets.canon import generate_all, generate_connected
from sepfacets.facets import (
    FacetSubgraph,
    count_bipartite_strict,
    count_facets,
    count_suspension_via_domination,
    enumerate_facet_subgraphs,
    enumerate_facets_oracle,
    mu_of,
    subgraph_component_value,
)
from sepfacets.graphs import (
    Graph,
    GraphError,
    bipartition,
    complement,
    complete_bipartite,
    complete_graph,
    contract_edges,
    cycle_graph,
    edges,
    empty_graph,
    from_edges,
    is_connected,
    join,
    mask_of,
    path_graph,
    star_graph,
    suspension,
)

from conftest import graph_strategy, ref_components, ref_facet_count, ref_facet_vectors

EXAMPLE = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (2, 4)])


def test_oracle_k2():
    fs = enumerate_facets_oracle(complete_graph(2))
    assert sorted(f.values for f in fs) == [(0, -1), (0, 1)]


def test_oracle_small_complete():
    assert len(enumerate_facets_oracle(complete_graph(3))) == 6
    assert len(enumerate_facets_oracle(complete_graph(4))) == 14


def test_oracle_matches_reference_enumeration():
    for g in (complete_graph(3), complete_graph(4), EXAMPLE, cycle_graph(5)):
        ours = sorted(f.values for f in enumerate_facets_oracle(g))
        assert ours == sorted(ref_facet_vectors(g.n, edges(g)))


def test_oracle_rejects_disconnected():
    with pytest.raises(GraphError):
        enumerate_facets_oracle(from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(GraphError):
        enumerate_facets_oracle(Graph(1, (0,)))


def test_count_facets_example_graph():
    assert count_facets(EXAMPLE) == 22
    assert len(enumerate_facets_oracle(EXAMPLE)) == 22


def test_count_facets_small():
    assert count_facets(complete_bipartite(2, 2)) == 6
    assert count_facets(star_graph(5)) == 16


def test_facet_subgraphs_example():
    subs = enumerate_facet_subgraphs(EXAMPLE)
    assert len(subs) == 7
    assert sorted(h.mu for h in subs) == [2, 2, 2, 2, 4, 4, 6]
    # multiplicity is pinned by how many edges the cut drops
    by_removed = Counter((7 - len(h.cross_edges), h.mu) for h in subs)
    assert by_removed == Counter({(1, 6): 1, (2, 4): 2, (3, 2): 4})
    # the single-edge-removed cut is the one missing the bottom edge (2,3)
    biggest = max(subs, key=lambda h: len(h.cross_edges))
    assert (2, 3) not in biggest.cross_edges
    assert biggest.part2 == mask_of([1, 4])
    assert sum(h.mu for h in subs) == 22


def test_facet_subgraphs_bipartite_is_unique():
    for g in (complete_bipartite(2, 3), path_graph(5), cycle_graph(6)):
        subs = enumerate_facet_subgraphs(g)
        assert len(subs) == 1
        assert set(subs[0].cross_edges) == set(edges(g))
        assert subs[0].part1 | subs[0].part2 == (1 << g.n) - 1


def test_facet_subgraphs_triangle():
    subs = enumerate_facet_subgraphs(complete_graph(3))
    assert len(subs) == 3
    assert all(len(h.cross_edges) == 2 and h.mu == 2 for h in subs)


def test_mu_of_example_values():
    subs = enumerate_facet_subgraphs(EXAMPLE)
    for h in subs:
        assert mu_of(EXAMPLE, h) == h.mu
        assert h.mu % 2 == 0 and h.mu >= 2


def test_mu_of_rejects_foreign_subgraph():
    subs = enumerate_facet_subgraphs(complete_graph(3))
    with pytest.raises(GraphError):
        mu_of(complete_graph(4), subs[0])
    fake = FacetSubgraph(0b001, 0b110, ((0, 1),), 2)
    with pytest.raises(GraphError):
        mu_of(complete_graph(3), fake)


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
    cut = [h for h in subs if h.part2 == bottom]
    assert len(cut) == 1
    assert cut[0].mu == 2 ** 3
    assert count_suspension_via_domination(base) == sum(h.mu for h in subs)


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
    vectors = {f.values for f in enumerate_facets_oracle(g)}
    assert len(vectors) % 2 == 0
    for v in vectors:
        assert tuple(-x for x in v) in vectors


@settings(max_examples=40, deadline=None)
@given(graph_strategy(min_n=2, max_n=5, connected=True))
def test_strict_edges_span_and_connect(g):
    from conftest import ref_components

    for f in enumerate_facets_oracle(g):
        strict = f.strict_edges(g)
        assert all(abs(f.values[i] - f.values[j]) == 1 for i, j in strict)
        assert {v for e in strict for v in e} == set(range(g.n))
        assert len(ref_components(g.n, strict)) == 1


@settings(max_examples=40, deadline=None)
@given(graph_strategy(min_n=2, max_n=5, connected=True))
def test_normalized_labelings_define_distinct_hyperplanes(g):
    # signature: which generating vectors +-(e_i - e_j) lie on the hyperplane
    signatures = set()
    facets = enumerate_facets_oracle(g)
    for f in facets:
        sig = frozenset(
            (i, j, s)
            for i, j in edges(g)
            for s in (1, -1)
            if s * (f.values[i] - f.values[j]) == 1
        )
        signatures.add(sig)
    assert len(signatures) == len(facets)


@settings(max_examples=40, deadline=None)
@given(graph_strategy(min_n=1, max_n=5))
def test_domination_route_matches_decomposition(g):
    # count_facets(suspension(g)) runs through the domination route itself
    cuts = enumerate_facet_subgraphs(suspension(g))
    assert count_suspension_via_domination(g) == sum(h.mu for h in cuts)


def test_domination_route_matches_brute_sum():
    # every graph up to 6 vertices, joins included, so the join recursion of
    # count_suspension_via_domination is covered
    for n in range(1, 7):
        for g in generate_all(n):
            es = edges(g)
            total = 0
            for s in range(1, 1 << n):
                inside = {v for v in range(n) if s >> v & 1}
                covered = inside | {j for i, j in es if i in inside}
                covered |= {i for i, j in es if j in inside}
                if len(covered) < n:
                    continue
                kept = [(i, j) for i, j in es if i in inside and j in inside]
                comps = [c for c in ref_components(n, kept) if c[0] in inside]
                total += 2 ** len(comps)
            assert count_suspension_via_domination(g) == total


@settings(max_examples=40, deadline=None)
@given(graph_strategy(min_n=1, max_n=5))
def test_q_value_bounds_suspension(g):
    assert count_facets(suspension(g)) <= subgraph_component_value(g)


def test_quotients_are_connected_bipartite():
    # Every class up to 6 vertices: each cut's mu (counted on masks) matches
    # the quotient Graph built by contract_edges, and the block product of
    # count_facets matches the whole-graph sum over cuts.
    for n in range(2, 7):
        for g in generate_connected(n):
            subs = enumerate_facet_subgraphs(g)
            for h in subs:
                cross = set(h.cross_edges)
                quotient = contract_edges(g, [e for e in edges(g) if e not in cross])
                assert is_connected(quotient)
                assert bipartition(quotient) is not None
                assert h.mu == count_bipartite_strict(quotient)
            assert count_facets(g) == sum(h.mu for h in subs)


def test_join_identity_on_connected_classes():
    # classes whose complement is disconnected are counted by the join
    # identity; the whole-graph sum over cuts never splits them
    joins = 0
    for n in range(2, 8):
        for g in generate_connected(n):
            if is_connected(complement(g)):
                continue
            joins += 1
            assert count_facets(g) == sum(h.mu for h in enumerate_facet_subgraphs(g))
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
                    assert count_facets(g) == sum(h.mu for h in cuts)


def test_scan_refuses_large_blocks():
    with pytest.raises(GraphError, match="40-vertex block"):
        count_facets(cycle_graph(40))
    with pytest.raises(GraphError, match="33-vertex block"):
        count_suspension_via_domination(cycle_graph(33))


def test_count_long_path_beyond_recursion_limit(monkeypatch):
    monkeypatch.setenv("SEP_MAX_N", "1200")
    assert count_facets(path_graph(1200)) == 2**1199
