import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sepfacets.canon import canonical_form, generate_all, generate_connected
from sepfacets.formats import emit_graph6, parse_graph6
from sepfacets.graphs import (
    Graph,
    GraphError,
    bipartition,
    blocks,
    complement_rows,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    components,
    contract_edges,
    contract_vertex,
    cycle_graph,
    delete_closed_neighborhood,
    delete_edge,
    delete_vertex,
    edge_count,
    edges,
    from_edges,
    full_mask,
    induced,
    is_connected,
    join,
    one_sum,
    path_graph,
    reach,
    star_graph,
    suspension,
)

from conftest import (
    empty_graph,
    graph_strategy,
    mask_of,
    ref_blocks,
    ref_components,
    ref_is_isomorphic,
    ref_reach,
    ref_two_coloring,
    seeded_cacti,
)

K3 = complete_graph(3)
K4 = complete_graph(4)
EXAMPLE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (2, 4)]
EXAMPLE = from_edges(5, EXAMPLE_EDGES)


def test_from_edges_triangle():
    assert edges(K3) == [(0, 1), (0, 2), (1, 2)]


def test_from_edges_empty():
    g = from_edges(2, [])
    assert g.n == 2 and edge_count(g) == 0


def test_from_edges_dedups():
    g = from_edges(4, [(0, 1), (0, 1)])
    assert edges(g) == [(0, 1)]


def test_from_edges_rejects_bad_input():
    with pytest.raises(GraphError):
        from_edges(0, [])
    with pytest.raises(GraphError):
        from_edges(65, [])
    with pytest.raises(GraphError):
        from_edges(3, [(1, 1)])
    with pytest.raises(GraphError):
        from_edges(3, [(0, 3)])


@pytest.mark.parametrize("n, adj, message", [
    (3, (0, 0), "adjacency row count does not match n"),
    (2, (4, 0), "adjacency row 0 has bits >= n"),
    (2, (1, 0), "loop at vertex 0"),
    (2, (2, 0), r"asymmetric edge \(0,1\)"),
    # two asymmetric pairs, (0,1) and (0,2): the first in row order is named
    (3, (0b110, 0, 0), r"asymmetric edge \(0,1\)"),
])
def test_graph_rejects_bad_rows(n, adj, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        Graph(n, adj)


def test_components_examples():
    assert is_connected(K3)
    assert len(components(K3.adj)) == 1
    assert len(components(empty_graph(3).adj)) == 3
    two = from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
    assert len(components(two.adj)) == 2
    assert components(two.adj, 0b10101) == [0b00001, 0b10100]
    assert components(two.adj, 0b00011) == [0b00011]
    assert not is_connected(two)
    # start vertices outside allowed are dropped, not flooded from
    assert reach(two.adj, 0b00011, 0b11100) == 0
    assert reach(two.adj, 0b01001, 0b11010) == 0b11000
    assert reach(two.adj, 0b00100, 0b11111) == 0b11100


@settings(max_examples=150, deadline=None)
@given(graph_strategy(max_n=8), st.data())
def test_reach_and_components_match_reference_bfs(g, data):
    masks = st.integers(min_value=0, max_value=full_mask(g.n))
    start, allowed = data.draw(masks), data.draw(masks)
    s = data.draw(st.none() | masks)
    edge_list = [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if g.adj[i] >> j & 1]

    def members(m):
        return [v for v in range(g.n) if m >> v & 1]

    expected = ref_reach(g.n, edge_list, members(start), members(allowed))
    assert reach(g.adj, start, allowed) == mask_of(expected)
    inside = members(full_mask(g.n) if s is None else s)
    comps = []
    for v in inside:
        if not any(c >> v & 1 for c in comps):
            comps.append(mask_of(ref_reach(g.n, edge_list, [v], inside)))
    assert components(g.adj, s) == comps


def test_bipartition_examples():
    assert bipartition(complete_bipartite(2, 2)) == (0b0011, 0b1100)
    assert bipartition(K3) is None
    assert bipartition(Graph(1, (0,))) == (1, 0)
    # components {0, 2, 4} and {1, 3}: each smallest vertex goes to part0
    assert bipartition(from_edges(5, [(3, 1), (2, 4), (0, 4)])) == (0b00111, 0b11000)


def _brute_force_bipartition(g):
    """Each component's one proper 2-coloring with its smallest vertex at 0,
    found by trying every coloring of the rest; None if one has none."""
    part0 = part1 = 0
    for comp in ref_components(g.n, edges(g)):
        inside = [(i, j) for i, j in edges(g) if i in comp]
        for bits in range(1 << (len(comp) - 1)):
            color = {v: bits >> k & 1 for k, v in enumerate(comp[1:])}
            color[comp[0]] = 0
            if all(color[i] != color[j] for i, j in inside):
                break
        else:
            return None
        part0 |= mask_of(v for v in comp if not color[v])
        part1 |= mask_of(v for v in comp if color[v])
    return part0, part1


def test_bipartition_matches_brute_force():
    for n in range(1, 8):
        for g in generate_all(n):
            assert bipartition(g) == _brute_force_bipartition(g)


def test_induced():
    assert edges(induced(K4, 0b0111)) == edges(K3)
    p = path_graph(3)
    assert edge_count(induced(p, 0b101)) == 0
    with pytest.raises(GraphError):
        induced(K4, 0)
    with pytest.raises(GraphError, match="^vertex set has bits outside the graph$"):
        induced(K3, 0b1000)


def test_contract_example_graph():
    # contracting the bottom edge of the 5-cycle-with-chords yields a 4-cycle
    q = contract_edges(EXAMPLE, [(2, 3)])
    assert ref_is_isomorphic(q, complete_bipartite(2, 2))
    q2 = contract_edges(EXAMPLE, [(1, 2), (2, 4)])
    assert ref_is_isomorphic(q2, complete_bipartite(1, 2))


def test_contract_identity_and_collapse():
    assert contract_edges(EXAMPLE, []) == EXAMPLE
    assert contract_edges(K4, edges(K4)).n == 1


def test_contract_rejects_non_edges():
    with pytest.raises(GraphError, match=r"\(0,2\) is not an edge of the graph"):
        contract_edges(path_graph(3), [(0, 2)])
    with pytest.raises(GraphError, match=r"\(1,3\) is not an edge of the graph"):
        contract_edges(path_graph(3), [(0, 1), (1, 3)])
    with pytest.raises(GraphError, match=r"^\(0,2\) is not an edge of the graph$"):
        delete_edge(path_graph(3), 0, 2)


def _ref_quotient_edges(g, contract):
    """Edges of the quotient by the components of (V, contract), numbered
    by smallest member, as sorted pairs."""
    where = {v: k for k, comp in enumerate(ref_components(g.n, contract)) for v in comp}
    return sorted({tuple(sorted((where[i], where[j]))) for i, j in edges(g)
                   if where[i] != where[j]})


def test_contract_matches_reference():
    # the quotients mu_of builds: every edge a cut leaves uncrossed
    cases = [(g, [(i, j) for i, j in edges(g) if not (part2 >> i ^ part2 >> j) & 1])
             for n in range(2, 7) for g in generate_connected(n)
             for part2 in range(2, 1 << n, 2)]
    rng = random.Random(20261019)
    for _ in range(400):
        n = rng.randint(1, 12)
        density, keep = rng.random(), rng.random()
        g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < density])
        cases.append((g, [e for e in edges(g) if rng.random() < keep]))
    for g, contract in cases:
        q = contract_edges(g, contract)
        assert q.n == len(ref_components(g.n, contract))
        assert edges(q) == _ref_quotient_edges(g, contract)


def test_vertex_removals():
    assert ref_is_isomorphic(delete_vertex(K3, 1), complete_graph(2))
    assert ref_is_isomorphic(contract_vertex(K3, 0), complete_graph(2))
    assert ref_is_isomorphic(contract_vertex(star_graph(4), 0), K3)
    wheelish = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert ref_is_isomorphic(delete_closed_neighborhood(wheelish, 0),
                             Graph(1, (0,)))
    with pytest.raises(GraphError):
        delete_closed_neighborhood(K3, 0)
    k1 = Graph(1, (0,))
    with pytest.raises(GraphError, match="^cannot delete the last vertex$"):
        delete_vertex(k1, 0)
    with pytest.raises(GraphError, match="^cannot contract the last vertex$"):
        contract_vertex(k1, 0)
    with pytest.raises(GraphError, match="^vertex 5 out of range for n=3$"):
        delete_vertex(K3, 5)


def test_vertex_removals_on_hub_and_rim_graph():
    # rim 0-1-2-3-4-0 plus hub 5 joined to every rim vertex, operate at 0
    g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                       (0, 5), (1, 5), (2, 5), (3, 5), (4, 5)])
    fan = from_edges(5, [(0, 1), (1, 2), (2, 3),
                         (0, 4), (1, 4), (2, 4), (3, 4)])
    assert ref_is_isomorphic(delete_vertex(g, 0), fan)
    assert ref_is_isomorphic(delete_closed_neighborhood(g, 0), complete_graph(2))
    wheel = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0),
                           (0, 4), (1, 4), (2, 4), (3, 4)])
    assert ref_is_isomorphic(contract_vertex(g, 0), wheel)


@given(graph_strategy(min_n=2, max_n=7), st.data())
def test_contract_vertex_keeps_labels(g, data):
    # later vertices shift down by one; the former neighbours of v gain a clique
    v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    label = {w: w - (w > v) for w in range(g.n) if w != v}
    nbrs = [label[w] for i, w in edges(g) if i == v] + \
        [label[i] for i, w in edges(g) if w == v]
    expected = {(label[i], label[j]) for i, j in edges(g) if v not in (i, j)}
    expected |= {(a, b) for a in nbrs for b in nbrs if a < b}
    assert edges(contract_vertex(g, v)) == sorted(expected)


def test_suspension():
    assert ref_is_isomorphic(suspension(empty_graph(3)), star_graph(4))
    assert ref_is_isomorphic(suspension(complete_graph(2)), K3)
    two_edges = from_edges(4, [(0, 1), (2, 3)])
    bowtie = one_sum(K3, 0, K3, 0)
    assert ref_is_isomorphic(suspension(two_edges), bowtie)
    # the apex is vertex n, adjacent to all
    for n in range(1, 7):
        for g in generate_all(n):
            apex = 1 << n
            assert suspension(g) == Graph(n + 1, tuple(row | apex for row in g.adj)
                                          + (apex - 1,))


def test_join():
    assert ref_is_isomorphic(join(complete_graph(2), complete_graph(3)),
                             complete_graph(5))
    assert ref_is_isomorphic(join(empty_graph(2), empty_graph(3)),
                             complete_bipartite(2, 3))
    g = path_graph(3)
    assert ref_is_isomorphic(join(Graph(1, (0,)), g), suspension(g))


def test_one_sum():
    bowtie = one_sum(K3, 0, K3, 0)
    assert bowtie.n == 5 and edge_count(bowtie) == 6
    p3 = one_sum(complete_graph(2), 1, complete_graph(2), 0)
    assert ref_is_isomorphic(p3, path_graph(3))
    extremal = one_sum(K4, 0, K3, 0)
    assert extremal.n == 6 and edge_count(extremal) == 9
    # g2's vertex v2 becomes v1; the others follow g1's vertices in order
    graphs = [g for n in range(1, 5) for g in generate_connected(n)]
    for g1, g2 in itertools.product(graphs, repeat=2):
        for v1, v2 in itertools.product(range(g1.n), range(g2.n)):
            rest = [w for w in range(g2.n) if w != v2]
            label = {w: g1.n + k for k, w in enumerate(rest)}
            label[v2] = v1
            expected = set(edges(g1)) | {tuple(sorted((label[i], label[j])))
                                         for i, j in edges(g2)}
            glued = one_sum(g1, v1, g2, v2)
            assert glued.n == g1.n + g2.n - 1
            assert edges(glued) == sorted(expected)


@pytest.mark.parametrize("build", [
    lambda: suspension(path_graph(64)),
    lambda: join(path_graph(30), path_graph(35)),
    lambda: one_sum(path_graph(30), 0, path_graph(36), 0),
], ids=["suspension", "join", "one_sum"])
def test_constructors_refuse_results_over_the_cap(monkeypatch, build):
    monkeypatch.delenv("SEP_MAX_N", raising=False)
    with pytest.raises(GraphError, match=r"vertex count 65 outside \[1, 64\]"):
        build()
    monkeypatch.setenv("SEP_MAX_N", "65")
    assert build().n == 65


def assert_fully_checked(g):
    """g equals the Graph that Graph(n, adj) builds, with every row check."""
    assert type(g) is Graph and type(g.adj) is tuple
    checked = Graph(g.n, g.adj)
    assert g == checked and hash(g) == hash(checked)


def test_derived_graphs_pass_every_row_check():
    # the constructors below skip the row checks; each result must still be
    # a graph that Graph(n, adj) accepts, for every valid argument
    small = [g for n in range(1, 6) for g in generate_all(n)]
    for g in small + [g for n in range(1, 6) for g in generate_connected(n)]:
        assert_fully_checked(g)
    for g in small:
        assert_fully_checked(from_edges(g.n, edges(g)))
        assert_fully_checked(suspension(g))
        assert parse_graph6(emit_graph6(g)) == g
        assert_fully_checked(parse_graph6(emit_graph6(g)))
        full = full_mask(g.n)
        for s in range(1, full + 1):
            assert_fully_checked(induced(g, s))
        for v in range(g.n):
            if g.n > 1:
                assert_fully_checked(delete_vertex(g, v))
                assert_fully_checked(contract_vertex(g, v))
            if full & ~(g.adj[v] | 1 << v):
                assert_fully_checked(delete_closed_neighborhood(g, v))
        es = edges(g)
        for i, j in es:
            assert_fully_checked(delete_edge(g, i, j))
        for chosen in range(1 << len(es)):
            assert_fully_checked(contract_edges(g, [e for k, e in enumerate(es)
                                                    if chosen >> k & 1]))
    for g1, g2 in itertools.product(small, repeat=2):
        assert_fully_checked(join(g1, g2))
        for v1, v2 in itertools.product(range(g1.n), range(g2.n)):
            assert_fully_checked(one_sum(g1, v1, g2, v2))


def test_named_families_refuse_bad_sizes():
    with pytest.raises(GraphError, match="^part sizes must be positive$"):
        complete_multipartite([2, 0])
    with pytest.raises(GraphError, match="^cycles need at least 3 vertices$"):
        cycle_graph(2)


def test_blocks_bowtie():
    bowtie = one_sum(K3, 0, K3, 0)
    assert sorted(blocks(bowtie.adj)) == [0b00111, 0b11001]
    assert sorted(blocks(path_graph(4).adj)) == [0b0011, 0b0110, 0b1100]


def test_blocks_match_reference():
    graphs = [g for n in range(1, 8) for g in generate_all(n)] + seeded_cacti()
    graphs += [path_graph(64), cycle_graph(64), star_graph(64)]
    for g in graphs:
        assert sorted(blocks(g.adj)) == ref_blocks(g.n, edges(g))
    assert len(blocks(path_graph(64).adj)) == len(blocks(star_graph(64).adj)) == 63
    assert blocks(cycle_graph(64).adj) == [full_mask(64)]


@given(graph_strategy(max_n=7))
def test_invariants_after_construction(g):
    full = full_mask(g.n)
    for v in range(g.n):
        assert not g.adj[v] >> v & 1
        assert not g.adj[v] & ~full
        for w in range(g.n):
            assert (g.adj[v] >> w & 1) == (g.adj[w] >> v & 1)


@given(graph_strategy(max_n=7))
def test_components_partition(g):
    comps = components(g.adj)
    assert sum(c.bit_count() for c in comps) == g.n
    union = 0
    for c in comps:
        assert not union & c
        union |= c
    assert union == full_mask(g.n)
    assert [sorted(i for i in range(g.n) if c >> i & 1) for c in comps] == \
        ref_components(g.n, edges(g))


@given(graph_strategy(max_n=6, connected=True))
def test_contract_all_edges_of_connected(g):
    assert contract_edges(g, edges(g)).n == 1


@settings(max_examples=50)
@given(graph_strategy(max_n=6))
def test_join_with_k1_is_suspension(g):
    a = join(Graph(1, (0,)), g)
    b = suspension(g)
    assert canonical_form(a) == canonical_form(b)


@given(graph_strategy(max_n=7))
def test_bipartition_matches_dfs_coloring(g):
    parts = bipartition(g)
    coloring = ref_two_coloring(g.n, edges(g))
    assert (parts is None) == (coloring is None)
    if parts is not None:
        p0, p1 = parts
        assert p0 & 1
        assert (p0 | p1) == full_mask(g.n) and not p0 & p1
        for i, j in edges(g):
            assert (p0 >> i & 1) != (p0 >> j & 1)


@given(graph_strategy(max_n=7))
def test_complement_involution(g):
    co = Graph(g.n, complement_rows(g.adj))
    assert complement_rows(co.adj) == g.adj
    assert edge_count(g) + edge_count(co) == g.n * (g.n - 1) // 2
