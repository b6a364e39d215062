import hashlib
import itertools
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from sepfacets import canon
from sepfacets.canon import canonical_form, generate_all, generate_connected
from sepfacets.formats import emit_graph6
from sepfacets.graphs import (
    GraphError,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    from_edges,
    is_connected,
    path_graph,
    star_graph,
)

from conftest import (
    graph_strategy,
    labeled_graphs,
    ref_automorphisms,
    ref_is_isomorphic,
    ref_orbit_minima,
    ref_passes_deletion_rule,
    relabel,
)

# Isomorphism classes of connected graphs and of all graphs on n = 1..7
# vertices (OEIS A001349 and A000088).
CONNECTED_CLASS_COUNTS = (1, 1, 2, 6, 21, 112, 853)
ALL_CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044)

# Twin-heavy graphs up to n = 7: the orderings the twin pruning skips.
TWIN_HEAVY = (
    [complete_graph(n) for n in range(1, 8)]
    + [star_graph(n) for n in range(2, 8)]
    + [complete_bipartite(a, b) for a in range(1, 4) for b in range(a, 8 - a)]
)

PETERSEN = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])

# sha256 of repr((certificate, generators)) + "\n" from canon._search, over
# generate_all(1..7), TWIN_HEAVY and PETERSEN in that order, as recorded from
# the search that sliced and compared the best prefix at every option. The
# order of the generators fixes the orbit closure's work and the search count
# that test_cold_generation_search_count pins.
SEARCH_SHA256 = "1c83e2ca89533f7728a7073b1731c18d1f3ad2de24968da9da2cd63dfe3bbedb"

# sha256 of the graph6 lines of generate_all(n) and generate_connected(n) for
# n = 1..7, as recorded from the generator that extended each parent by every
# neighbourhood; connected n = 7 is also the CI pin of `generate --n 7`.
GENERATED_SHA256 = {
    generate_all: (
        "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
        "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
        "a1680d75ef87e824903a43a0f5a4c37577b6945842554674563d48ca3cc90e3d",
        "c1cc56ec6713ec87751c99609f10783e62c4137859fb06daf248e8fcdc0da6ad",
        "43b7ec73c196ba85812398ecb1a41ebf4347f8f2c145256cff82c22f706e59c9",
        "3e109ab13dd8e261697e27f7ee907367c811f1d21e2a65d43f050c35227b2776",
        "c0fc6e76fdc8f2159c71a3a11673f2b265e5f06ed7232fac4aad1f7db881dfc1",
    ),
    generate_connected: (
        "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
        "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9",
        "e53a5e15924c562ea91b2e31166da62399d58c4af1027d8ef1aa54ab3235fac4",
        "0e985c9d32b5f7eae59993e5f23387776d3ba9c42f29e41031765976d9eb8cca",
        "b512b4169641c295691bc0161e7c5486c64485fda04bc4037cc44e3f5683f4ee",
        "c70cd64a07a2905d8d482e081f20b234638e6f24c24e7dc1714975196f4b94fb",
        "d34422af8d2645fba1c20f9636af35c3c2e672b5111730d1b40132ac088d8daf",
    ),
}


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


@pytest.mark.parametrize("generate", [generate_connected, generate_all])
def test_representatives_are_pinned(generate):
    for n, digest in enumerate(GENERATED_SHA256[generate], start=1):
        lines = "".join(emit_graph6(g) + "\n" for g in generate(n))
        assert hashlib.sha256(lines.encode()).hexdigest() == digest, n


def assert_generators_give_the_group(g):
    group = ref_automorphisms(g)
    generators = canon._search(g.adj)[1]
    assert {tuple(perm) for perm in generators} <= set(group)
    assert canon._orbit_minima(generators, g.n, 0) == ref_orbit_minima(group, g.n)


@pytest.mark.parametrize("n", range(1, 8))
def test_search_generators_give_the_group_on_all_small_graphs(n):
    for g in generate_all(n):
        assert_generators_give_the_group(g)


@pytest.mark.parametrize("g", [cycle_graph(10), PETERSEN, complete_bipartite(5, 5),
                               complete_multipartite([3, 3, 3])],
                         ids=["C10", "Petersen", "K5,5", "K3,3,3"])
def test_search_generators_give_the_group_on_symmetric_graphs(g):
    assert_generators_give_the_group(g)


def test_search_output_is_pinned():
    graphs = [g for n in range(1, 8) for g in generate_all(n)] + TWIN_HEAVY + [PETERSEN]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(repr(canon._search(g.adj)).encode() + b"\n")
    assert len(graphs) == 1278
    assert digest.hexdigest() == SEARCH_SHA256


# A triangle and a K4 hung from vertex 0. Its child with the neighbourhood
# {1, 2, 3} passes the deletion rule only because deleting vertex 0 would cut
# off the K4, which the new vertex misses. No connected parent on 7 vertices
# or fewer tells this apart: asking the new vertex to meet some piece of
# parent - u, not every piece, gives the same verdicts on all of them.
CUT_PARENT = from_edges(8, [(0, 1), (0, 4)] + list(itertools.combinations(range(1, 4), 2))
                        + list(itertools.combinations(range(4, 8), 2)))


@pytest.mark.parametrize("connected_only", [True, False])
def test_deletion_rule_matches_definition(connected_only):
    generate = generate_connected if connected_only else generate_all
    for g in [g for n in range(1, 7) for g in generate(n)] + [CUT_PARENT]:
        passes = canon._deletion_rule(g.adj, connected_only)
        for nbhd in range(1 << g.n):
            assert passes(nbhd) == ref_passes_deletion_rule(g, nbhd, connected_only), (g, nbhd)


def test_cold_generation_search_count(monkeypatch):
    # One search per parent for its generators, then one per orbit-least
    # neighbourhood that passes the deletion rule.
    calls = 0
    search = canon._search

    def counted(adj):
        nonlocal calls
        calls += 1
        return search(adj)

    monkeypatch.setattr(canon, "_search", counted)
    counts = []
    for generate in (generate_connected, generate_all):
        canon._classes.cache_clear()
        calls = 0
        list(generate(7))
        counts.append(calls)
    assert counts == [1504, 1847]


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
    monkeypatch.setenv("SEP_MAX_N", "abc")
    with pytest.raises(ValueError, match="^SEP_MAX_N must be an integer, got 'abc'$"):
        max_vertices()
