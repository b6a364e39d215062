import pytest

from sepfacets.facets import count_facets
from sepfacets.formulas import (
    BALANCED_COMPLETE_BIPARTITE,
    K4_PLUS_TRIANGLES,
    NO_CLASS,
    ONE_SUM_OF_TRIANGLES,
    STAR,
    bipartite_minimum,
    classify_extremal,
    complete_multipartite_parts,
    conjecture_bounds,
    double_suspension_check,
    is_balanced_complete_bipartite,
    is_k4_plus_triangles,
    is_one_sum_of_triangles,
    is_star,
    join_upper_bound,
    n_complete_bipartite,
    n_complete_multipartite,
    n_from_multipartite_parts,
    suspension_recursion_check,
)
from sepfacets.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    join,
    one_sum,
    path_graph,
    star_graph,
)

from conftest import empty_graph, n_one_sum

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


def test_bipartite_minimum_values():
    assert bipartite_minimum(2) == 2
    assert bipartite_minimum(5) == 10
    assert bipartite_minimum(6) == 14
    for n in range(2, 8):
        assert bipartite_minimum(n) == count_facets(
            complete_bipartite(n // 2, (n + 1) // 2))


def test_recursion_equality_branch_triangle():
    # the closed neighborhood of any triangle vertex covers the base
    result = suspension_recursion_check(complete_graph(3), 0, count_facets)
    assert result.equality_branch and result.passed
    assert result.total == 14
    assert result.deleted == 6 and result.contracted == 6
    assert result.middle is None
    assert result.lower == result.upper == 14


def test_recursion_equality_branch_path_middle():
    result = suspension_recursion_check(path_graph(3), 1, count_facets)
    assert result.equality_branch and result.passed
    assert (result.total, result.deleted, result.contracted) == (12, 4, 6)


def test_recursion_bound_branch_path_end():
    result = suspension_recursion_check(path_graph(4), 0, count_facets)
    assert not result.equality_branch and result.passed
    assert result.total == 28
    assert result.middle == 6
    assert result.lower == 24 and result.upper == 36


def test_double_suspension_examples():
    r = double_suspension_check(empty_graph(2), count_facets)
    assert (r.once, r.twice, r.addend, r.passed) == (4, 12, 8, True)
    r = double_suspension_check(complete_graph(2), count_facets)
    assert (r.once, r.twice, r.passed) == (6, 14, True)
    r = double_suspension_check(empty_graph(3), count_facets)
    assert (r.once, r.twice, r.addend, r.passed) == (8, 24, 16, True)


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
    assert is_one_sum_of_triangles(triple)
    assert not is_one_sum_of_triangles(K4_K3)
    assert is_k4_plus_triangles(one_sum(K4_K3, 0, complete_graph(3), 1))
    assert not is_k4_plus_triangles(one_sum(complete_graph(4), 0,
                                            complete_graph(4), 0))
    assert not is_star(cycle_graph(4))
    assert not is_balanced_complete_bipartite(complete_bipartite(1, 3))


def test_complete_multipartite_parts_detection():
    assert complete_multipartite_parts(complete_bipartite(2, 3)) == [2, 3]
    assert complete_multipartite_parts(complete_graph(4)) == [1, 1, 1, 1]
    assert complete_multipartite_parts(complete_multipartite([1, 2, 3])) == [1, 2, 3]
    assert complete_multipartite_parts(path_graph(4)) is None
    assert complete_multipartite_parts(empty_graph(3)) == [3]


def test_formula_dispatch_matches_decomposition():
    for parts in ([1, 1], [1, 3], [2, 2], [1, 1, 1], [1, 1, 2], [1, 2, 3], [2, 2, 2]):
        g = complete_multipartite(parts)
        assert n_from_multipartite_parts(parts) == count_facets(g)
