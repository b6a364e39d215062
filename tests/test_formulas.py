import pytest

from sepfacets import formulas
from sepfacets.canon import generate_all
from sepfacets.cli import main
from sepfacets.facets import count_facets
from sepfacets.formats import emit_graph6, parse_graph6
from sepfacets.formulas import (
    BALANCED_COMPLETE_BIPARTITE,
    K4_PLUS_TRIANGLES,
    NO_CLASS,
    ONE_SUM_OF_TRIANGLES,
    STAR,
    classify_extremal,
    complete_multipartite_parts,
    conjecture_bounds,
    is_balanced_complete_bipartite,
    is_conjectured_maximizer,
    is_star,
    join_upper_bound,
    n_complete_bipartite,
    n_complete_multipartite,
    suspension_recursion_bounds,
)
from sepfacets.graphs import (
    Graph,
    GraphError,
    blocks,
    complement_rows,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    components,
    cycle_graph,
    from_edges,
    induced,
    join,
    one_sum,
    path_graph,
    star_graph,
    suspension,
)
from sepfacets.harness import sweep_conjecture

from conftest import (
    empty_graph,
    n_one_sum,
    ref_complete_multipartite_parts,
    ref_is_complete_bipartite,
    ref_is_conjectured_maximizer,
    seeded_cacti,
)

BOWTIE = one_sum(complete_graph(3), 0, complete_graph(3), 0)
K4_K3 = one_sum(complete_graph(4), 0, complete_graph(3), 0)


def test_complete_bipartite_formula():
    assert n_complete_bipartite(2, 2) == 6
    assert n_complete_bipartite(1, 1) == 2
    assert n_complete_bipartite(3, 4) == 22
    assert count_facets(complete_bipartite(3, 4)) == 22
    with pytest.raises(ValueError):
        n_complete_bipartite(0, 3)


def test_complete_multipartite_formula():
    assert n_complete_multipartite([1, 1, 1]) == 6
    assert n_complete_multipartite([2, 2, 2]) == 56
    assert n_complete_multipartite([1, 1, 2]) == 12
    assert count_facets(complete_multipartite([2, 2, 2])) == 56
    assert count_facets(complete_multipartite([1, 1, 2])) == 12
    with pytest.raises(ValueError):
        n_complete_multipartite([2, 3])
    with pytest.raises(ValueError, match="^part sizes must be positive$"):
        n_complete_multipartite([1, 0, 2])


def test_complete_graph_closed_form():
    for n in range(3, 7):
        assert n_complete_multipartite([1] * n) == 2**n - 2
    for n in range(2, 7):
        assert count_facets(complete_graph(n)) == 2**n - 2


def test_one_sum_formula():
    assert n_one_sum(6, 6) == 36
    assert n_one_sum(14, 6) == 84
    assert n_one_sum(2, 10) == 20
    assert count_facets(BOWTIE) == 36
    assert count_facets(K4_K3) == 84


def test_conjecture_bounds_values():
    assert (conjecture_bounds(5).lower, conjecture_bounds(5).upper) == (10, 36)
    assert (conjecture_bounds(6).lower, conjecture_bounds(6).upper) == (14, 84)
    assert (conjecture_bounds(3).lower, conjecture_bounds(3).upper) == (4, 6)
    assert conjecture_bounds(7).parity == "odd"
    with pytest.raises(ValueError):
        conjecture_bounds(2)


def bracket(n):
    """(lower, upper) of conjecture_bounds(n), and (2, 2) for K2."""
    if n == 2:
        return 2, 2
    bounds = conjecture_bounds(n)
    return bounds.lower, bounds.upper


def test_bracket_holds_under_one_sums():
    # the separable reduction proved in conjecture_bounds: blocks of a and
    # b vertices make a 1-sum of a + b - 1, and K2 counts 2
    for b in range(2, 64):
        for a in range(2, min(b, 65 - b) + 1):
            (lo_a, up_a), (lo_b, up_b), (lo, up) = bracket(a), bracket(b), bracket(a + b - 1)
            assert up_a * up_b <= up
            assert lo_a * lo_b >= lo


def test_separable_hits_have_every_block_at_the_same_bound(monkeypatch):
    # the equality case of the separable reduction: if N = prod N_i over
    # the blocks, each N_i within the bracket of its own size n_i, meets
    # upper(n), then upper(n) = N <= prod upper(n_i) <= upper(n) holds with
    # equality throughout, so every block is at its own upper bound, and
    # likewise for the lower one. Every hit of the n = 3..8 sweeps that has
    # a cut vertex and is not a join (its complement is connected) shows it.
    monkeypatch.setenv("SEP_MAX_N", "8")
    checked = []
    for n in range(3, 9):
        for row in sweep_conjecture(n).report.extremal_hits:
            g = parse_graph6(row.graph6)
            parts = blocks(g.adj)
            if len(parts) == 1 or len(components(complement_rows(g.adj))) > 1:
                continue
            side = 0 if row.facet_count == row.lower else 1
            assert row.facet_count == bracket(n)[side]
            for b in parts:
                block = induced(g, b)
                assert count_facets(block) == bracket(block.n)[side], (row.graph6, b)
            checked.append((row.graph6, side))
    assert checked == [("F{dAG", 1), ("G~aGOS", 1), ("G~aIAC", 1)]


def test_balanced_bipartite_closed_form_is_the_lower_bound():
    # the bracket's lower bound is the closed form of its minimizer
    assert n_complete_bipartite(1, 1) == 2
    for n in range(3, 41):
        assert n_complete_bipartite(n // 2, (n + 1) // 2) == conjecture_bounds(n).lower


def test_recursion_equality_branch_triangle():
    # the closed neighborhood of any triangle vertex covers the base
    assert suspension_recursion_bounds(complete_graph(3), 0, count_facets) == (14, 14)
    assert count_facets(suspension(complete_graph(3))) == 14


def test_recursion_equality_branch_path_middle():
    assert suspension_recursion_bounds(path_graph(3), 1, count_facets) == (12, 12)
    assert count_facets(suspension(path_graph(3))) == 12


def test_recursion_bound_branch_path_end():
    assert suspension_recursion_bounds(path_graph(4), 0, count_facets) == (24, 36)
    assert count_facets(suspension(path_graph(4))) == 28


def test_recursion_bounds_reject_bad_input():
    with pytest.raises(GraphError, match=">= 2 vertices"):
        suspension_recursion_bounds(Graph(1, (0,)), 0, count_facets)
    with pytest.raises(GraphError, match="vertex 3 out of range"):
        suspension_recursion_bounds(path_graph(3), 3, count_facets)


def test_double_suspension_examples():
    for base, once, twice in ((empty_graph(2), 4, 12), (complete_graph(2), 6, 14),
                              (empty_graph(3), 8, 24)):
        assert count_facets(suspension(base)) == once
        assert count_facets(suspension(suspension(base))) == twice
        assert twice == once + 2 ** (base.n + 1)


def test_join_upper_bound_values():
    e2 = empty_graph(2)
    k2 = complete_graph(2)
    assert join_upper_bound(4, 4, 2, 2, 2, 2) == 18
    assert count_facets(join(e2, e2)) == 6
    assert join_upper_bound(6, 4, 2, 2, 1, 2) == 18
    assert count_facets(join(k2, e2)) == 12
    # one-vertex factor: the cross term vanishes and the bound stays valid
    assert join_upper_bound(6, 2, 2, 1, 1, 1) >= count_facets(join(k2, Graph(1, (0,))))


def test_classify_extremal_examples():
    assert classify_extremal(star_graph(5)) == STAR
    assert classify_extremal(BOWTIE) == ONE_SUM_OF_TRIANGLES
    assert classify_extremal(cycle_graph(5)) == NO_CLASS
    assert classify_extremal(complete_bipartite(2, 2)) == BALANCED_COMPLETE_BIPARTITE
    assert classify_extremal(complete_bipartite(2, 3)) == BALANCED_COMPLETE_BIPARTITE
    assert classify_extremal(complete_graph(4)) == K4_PLUS_TRIANGLES
    assert classify_extremal(K4_K3) == K4_PLUS_TRIANGLES
    assert classify_extremal(complete_graph(3)) == ONE_SUM_OF_TRIANGLES
    assert classify_extremal(path_graph(4)) == NO_CLASS
    # overlap case: the 2-path is both a star and balanced complete bipartite
    assert classify_extremal(path_graph(3)) == STAR
    assert is_balanced_complete_bipartite(path_graph(3))


def test_extremal_predicates():
    triple = one_sum(BOWTIE, 0, complete_graph(3), 0)
    assert is_conjectured_maximizer(triple)
    assert is_conjectured_maximizer(K4_K3)
    assert is_conjectured_maximizer(one_sum(K4_K3, 0, complete_graph(3), 1))
    assert not is_conjectured_maximizer(one_sum(complete_graph(4), 0,
                                                complete_graph(4), 0))
    assert not is_conjectured_maximizer(one_sum(BOWTIE, 0, complete_graph(2), 0))
    assert not is_star(cycle_graph(4))
    assert not is_balanced_complete_bipartite(complete_bipartite(1, 3))


def _triangles_on(base, count):
    for _ in range(count):
        base = one_sum(base, base.n - 1, complete_graph(3), 0)
    return base


def test_recognizers_match_explicit_definitions():
    k4_minus_e = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    special = [
        Graph(1, (0,)),
        # disconnected K4 + 2K3 on 10 vertices: the block sizes of a
        # maximizer, but 12 edges, not 15
        from_edges(10, [(i, j) for i in range(4) for j in range(i + 1, 4)]
                   + [(4, 5), (5, 6), (4, 6), (7, 8), (8, 9), (7, 9)]),
        _triangles_on(cycle_graph(4), 3),
        _triangles_on(k4_minus_e, 3),
        _triangles_on(complete_graph(4), 3),
        _triangles_on(complete_graph(3), 3),
    ]
    graphs = [g for n in range(1, 8) for g in generate_all(n)] + special + seeded_cacti()
    assert max(g.n for g in graphs) == 31
    maxima = 0
    for g in graphs:
        star = ref_is_complete_bipartite(g, 1)
        balanced = ref_is_complete_bipartite(g, g.n // 2)
        maximizer = ref_is_conjectured_maximizer(g)
        assert complete_multipartite_parts(g) == ref_complete_multipartite_parts(g)
        assert is_star(g) == star
        assert is_balanced_complete_bipartite(g) == balanced
        assert is_conjectured_maximizer(g) == maximizer
        maxima += maximizer
        expected = (STAR if star else BALANCED_COMPLETE_BIPARTITE if balanced
                    else (ONE_SUM_OF_TRIANGLES if g.n % 2 else K4_PLUS_TRIANGLES)
                    if maximizer else NO_CLASS)
        assert classify_extremal(g) == expected
    # both outcomes of the maximizer test are exercised on many cacti
    assert 300 < maxima < len(graphs) - 300


def test_classify_extremal_counts_edges_once(monkeypatch):
    calls = []
    count = formulas.edge_count
    monkeypatch.setattr(formulas, "edge_count", lambda g: calls.append(g) or count(g))
    graphs = [g for n in range(1, 7) for g in generate_all(n)]
    tags = [classify_extremal(g) for g in graphs]
    assert calls == graphs
    assert set(tags) == {STAR, BALANCED_COMPLETE_BIPARTITE, ONE_SUM_OF_TRIANGLES,
                         K4_PLUS_TRIANGLES, NO_CLASS}


def test_complete_multipartite_parts_detection():
    assert complete_multipartite_parts(complete_bipartite(2, 3)) == [2, 3]
    assert complete_multipartite_parts(complete_graph(4)) == [1, 1, 1, 1]
    assert complete_multipartite_parts(complete_multipartite([1, 2, 3])) == [1, 2, 3]
    assert complete_multipartite_parts(path_graph(4)) is None
    assert complete_multipartite_parts(empty_graph(3)) == [3]


def test_formula_dispatch_matches_decomposition(capsys):
    for parts in ([1, 1], [1, 3], [2, 2], [1, 1, 1], [1, 1, 2], [1, 2, 3], [2, 2, 2]):
        g = complete_multipartite(parts)
        code = main(["count", "--graph6", emit_graph6(g), "--method", "formula"])
        assert (code, capsys.readouterr().out) == (0, f"{count_facets(g)}\n")
