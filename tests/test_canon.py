import itertools
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from sepfacets.canon import (
    ALL_CLASS_COUNTS,
    CONNECTED_CLASS_COUNTS,
    canonical_form,
    generate_all,
    generate_connected,
)
from sepfacets.graphs import (
    GraphError,
    complete_bipartite,
    complete_graph,
    from_edges,
    is_connected,
    path_graph,
    star_graph,
)

from conftest import graph_strategy, labeled_graphs, ref_is_isomorphic, relabel

# Twin-heavy graphs up to n = 7: the orderings the twin pruning skips.
TWIN_HEAVY = (
    [complete_graph(n) for n in range(1, 8)]
    + [star_graph(n) for n in range(2, 8)]
    + [complete_bipartite(a, b) for a in range(1, 4) for b in range(a, 8 - a)]
)


def brute_force_certificate(g):
    """The certificate by definition: the smallest column-major upper-triangle
    bit string over every degree-sorted vertex ordering, zero-padded to bytes
    and prefixed by n."""
    n = g.n
    deg = [bin(row).count("1") for row in g.adj]
    best = None
    for order in itertools.permutations(range(n)):
        if any(deg[order[k]] > deg[order[k + 1]] for k in range(n - 1)):
            continue
        bits = "".join(
            str(g.adj[order[i]] >> order[j] & 1) for j in range(1, n) for i in range(j)
        )
        if best is None or bits < best:
            best = bits
    best += "0" * (-len(best) % 8)
    return bytes([n]) + bytes(int(best[k:k + 8], 2) for k in range(0, len(best), 8))


def with_examples(graphs):
    def decorate(test):
        for g in graphs:
            test = example(g)(test)
        return test

    return decorate


def test_cert_invariant_under_relabeling():
    k3 = complete_graph(3)
    assert canonical_form(k3) == canonical_form(relabel(k3, [2, 0, 1]))
    p1 = from_edges(3, [(0, 1), (1, 2)])
    p2 = from_edges(3, [(1, 0), (0, 2)])
    assert canonical_form(p1) == canonical_form(p2)


def test_cert_separates_degree_sequences():
    assert canonical_form(star_graph(4)) != canonical_form(path_graph(4))


def test_cert_rejects_large_n():
    with pytest.raises(GraphError):
        canonical_form(from_edges(11, [(0, 1)]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cert_equality_is_isomorphism_exhaustive(n):
    graphs = list(labeled_graphs(n))
    for g1, g2 in itertools.combinations(graphs, 2):
        same_cert = canonical_form(g1) == canonical_form(g2)
        assert same_cert == ref_is_isomorphic(g1, g2)


def test_cert_classes_match_brute_force_at_n5():
    # grouping all 2^10 labeled graphs by cert must give the known class count
    buckets = defaultdict(list)
    for g in labeled_graphs(5):
        buckets[canonical_form(g)].append(g)
    assert len(buckets) == ALL_CLASS_COUNTS[4]
    # each bucket is one isomorphism class: spot-check the largest bucket
    biggest = max(buckets.values(), key=len)
    for g in biggest[1:20]:
        assert ref_is_isomorphic(biggest[0], g)


@settings(max_examples=60, deadline=None)
@given(graph_strategy(max_n=6), st.randoms(use_true_random=False))
def test_cert_stable_under_random_permutation(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(g) == canonical_form(relabel(g, perm))


@settings(max_examples=60, deadline=None)
@with_examples(TWIN_HEAVY)
@given(graph_strategy(max_n=6))
def test_cert_is_minimum_over_degree_sorted_orderings(g):
    assert canonical_form(g) == brute_force_certificate(g)


def test_generate_connected_counts():
    for n, expected in enumerate(CONNECTED_CLASS_COUNTS, start=1):
        assert len(list(generate_connected(n))) == expected


def test_generate_all_counts():
    for n, expected in enumerate(ALL_CLASS_COUNTS, start=1):
        assert len(list(generate_all(n))) == expected


def test_generate_connected_count_at_n8(monkeypatch):
    # OEIS A001349
    monkeypatch.setenv("SEP_MAX_N", "8")
    assert len(list(generate_connected(8))) == 11117


@pytest.mark.parametrize("generate", [generate_connected, generate_all])
def test_classes_come_in_certificate_order(generate):
    for n in range(1, 8):
        certs = [canonical_form(g) for g in generate(n)]
        assert all(a < b for a, b in zip(certs, certs[1:]))


def test_generated_graphs_are_distinct_and_connected():
    seen = set()
    for g in generate_connected(5):
        assert g.n == 5 and is_connected(g)
        cert = canonical_form(g)
        assert cert not in seen
        seen.add(cert)


def test_generate_connected_brute_force_completeness():
    # every connected labeled graph must hit some generated class
    for n in (3, 4, 5):
        certs = {canonical_form(g) for g in generate_connected(n)}
        labeled = {canonical_form(g) for g in labeled_graphs(n) if is_connected(g)}
        assert labeled == certs


def test_generator_rejects_large_n(monkeypatch):
    monkeypatch.delenv("SEP_MAX_N", raising=False)
    with pytest.raises(GraphError):
        generate_connected(8)


def test_env_override_controls_caps(monkeypatch):
    from sepfacets.limits import canonical_limit, generator_limit, max_vertices

    # SEP_MAX_N raises a cap above its default and never lowers one.
    monkeypatch.setenv("SEP_MAX_N", "3")
    assert (max_vertices(), generator_limit(), canonical_limit()) == (64, 7, 10)
    assert len(list(generate_connected(7))) == 853
    with pytest.raises(GraphError):
        generate_connected(8)
    monkeypatch.setenv("SEP_MAX_N", "12")
    assert generator_limit() == 12
    assert canonical_limit() == 12
    assert max_vertices() == 64
    monkeypatch.setenv("SEP_MAX_N", "100")
    assert max_vertices() == 100
