"""Acceptance criteria, one test per criterion.

Each test prints a single "ACCEPTANCE <k> PASS|FAIL ..." line (visible with
pytest -s) and then asserts. Everything is exact; the sweeps are exhaustive
over isomorphism classes at the stated sizes.
"""

import random
import time

from sepfacets.canon import canonical_form, generate_connected
from sepfacets.facets import (
    count_facets,
    enumerate_facet_subgraphs,
    enumerate_facets_oracle,
)
from sepfacets.formats import emit_graph6, parse_graph6
from sepfacets.formulas import conjecture_bounds, is_conjectured_maximizer
from sepfacets.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    edge_count,
    from_edges,
    is_connected,
    one_sum,
    star_graph,
)
from sepfacets.harness import (
    check_bipartite_minimum,
    check_bipartite_monotonicity,
    check_double_suspension,
    check_join_bounds,
    check_multipartite_formulas,
    check_suspension_domination,
    check_suspension_recursion,
    sweep_conjecture,
)

EXAMPLE = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (2, 4)])


def report(k, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {k} {status}{suffix}")
    assert not failures, failures[:10]


def test_criterion_1_example_graph():
    start = time.monotonic()
    failures = []
    if len(enumerate_facets_oracle(EXAMPLE)) != 22:
        failures.append("oracle count != 22")
    if count_facets(EXAMPLE) != 22:
        failures.append("decomposition count != 22")
    subs = enumerate_facet_subgraphs(EXAMPLE)
    if len(subs) != 7:
        failures.append(f"expected 7 facet subgraphs, got {len(subs)}")
    mus = sorted(mu for _, mu in subs)
    if mus != [2, 2, 2, 2, 4, 4, 6]:
        failures.append(f"mu multiset {mus}")
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    report(1, failures, f"example graph, {elapsed * 1000:.0f} ms")


def test_criterion_2_closed_forms():
    start = time.monotonic()
    checked, bad = check_multipartite_formulas(7)
    failures = [f"{v.graph6} ({v.bound}={v.value})" for v in bad]
    if checked != 41:  # K_{l,m} with l + m <= 8, multipartite with >= 3 parts up to 7
        failures.append(f"coverage {checked}")
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    report(2, failures, f"{checked} closed forms, {elapsed:.2f} s")


def test_criterion_3_golden_counts():
    failures = []
    golden = [
        (complete_graph(2), 2),
        (complete_graph(3), 6),
        (complete_graph(4), 14),
        (one_sum(complete_graph(3), 0, complete_graph(3), 0), 36),
        (one_sum(complete_graph(4), 0, complete_graph(3), 0), 84),
    ]
    golden += [(star_graph(n), 2 ** (n - 1)) for n in range(2, 9)]
    for g, expected in golden:
        got = count_facets(g)
        if got != expected:
            failures.append(f"{emit_graph6(g)}: {got} != {expected}")
    report(3, failures, f"{len(golden)} golden values")


def test_criterion_4_conjecture_sweep():
    start = time.monotonic()
    failures = []
    expected_sizes = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    for n, size in expected_sizes.items():
        sweep = sweep_conjecture(n)
        rows = sweep.rows
        if sweep.report.violations:
            failures.append(f"n={n}: {len(sweep.report.violations)} violations")
        if sweep.report.graphs_checked != size:
            failures.append(f"n={n}: checked {sweep.report.graphs_checked}")
        bounds = conjecture_bounds(n)
        min_hits = {canonical_form(parse_graph6(r.graph6))
                    for r in rows if r.facet_count == bounds.lower}
        max_hits = {canonical_form(parse_graph6(r.graph6))
                    for r in rows if r.facet_count == bounds.upper}
        expected_min = {canonical_form(complete_bipartite(n // 2, (n + 1) // 2))}
        expected_max = {canonical_form(g) for g in generate_connected(n)
                        if is_conjectured_maximizer(g)}
        if min_hits != expected_min:
            failures.append(f"n={n}: minima not exactly balanced bipartite")
        if max_hits != expected_max or not expected_max:
            failures.append(f"n={n}: maxima not exactly the triangle families")
    elapsed = time.monotonic() - start
    if elapsed >= 600.0:
        failures.append(f"took {elapsed:.0f}s, budget 600s single core")
    report(4, failures, f"n=3..7 exhaustive, {elapsed:.1f} s")


def _random_connected_graph(rng, n):
    while True:
        es = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = from_edges(n, es)
        if is_connected(g):
            return g


def test_criterion_5_route_equivalence():
    failures = []
    checked = 0
    for n in range(2, 7):
        for g in generate_connected(n):
            checked += 1
            if len(enumerate_facets_oracle(g)) != count_facets(g):
                failures.append(emit_graph6(g))
    rng = random.Random(20250811)
    for _ in range(100):
        g = _random_connected_graph(rng, 8)
        checked += 1
        if len(enumerate_facets_oracle(g)) != count_facets(g):
            failures.append(emit_graph6(g))
    report(5, failures, f"{checked} graphs (n<=6 exhaustive + 100 random n=8)")


def test_criterion_6_suspension_identities():
    failures = []
    dom_checked, dom_bad = check_suspension_domination(7)
    failures += [f"domination: {v.graph6}" for v in dom_bad]
    cor_checked, cor_bad = check_double_suspension(7)
    failures += [f"double suspension: {v.graph6}" for v in cor_bad]
    rec_checked, rec_bad = check_suspension_recursion(7)
    failures += [f"recursion: {v.graph6}" for v in rec_bad]
    if dom_checked != 208:  # all graphs on 1..6 vertices
        failures.append(f"domination coverage {dom_checked}")
    if cor_checked != 51:  # all graphs on 2..5 vertices
        failures.append(f"double suspension coverage {cor_checked}")
    if rec_checked != 1166:  # all (graph, vertex) pairs, 2..6 vertices
        failures.append(f"recursion coverage {rec_checked}")
    report(6, failures,
           f"{dom_checked}+{cor_checked}+{rec_checked} identity checks")


def _all_trees(n):
    """Isomorphism classes of trees on n vertices, grown leaf by leaf."""
    level = [Graph(1, (0,))]
    for size in range(2, n + 1):
        seen = {}
        for tree in level:
            for attach in range(tree.n):
                rows = [row | ((attach == v) << (size - 1))
                        for v, row in enumerate(tree.adj)]
                rows.append(1 << attach)
                bigger = Graph(size, tuple(rows))
                cert = canonical_form(bigger)
                if cert not in seen:
                    seen[cert] = bigger
        level = [seen[c] for c in sorted(seen)]
    return level


def test_criterion_7_bipartite_properties():
    failures = []
    tree_counts = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}
    trees_checked = 0
    for n in range(2, 9):
        trees = _all_trees(n)
        if len(trees) != tree_counts[n]:
            failures.append(f"tree generation at n={n}: {len(trees)}")
        for tree in trees:
            trees_checked += 1
            if edge_count(tree) != n - 1 or not is_connected(tree):
                failures.append(f"not a tree: {emit_graph6(tree)}")
            if count_facets(tree) != 2 ** (n - 1):
                failures.append(f"tree {emit_graph6(tree)}")
    mono_checked, mono_bad = check_bipartite_monotonicity(6)
    failures += [f"monotonicity: {v.graph6}" for v in mono_bad]
    min_checked, min_bad = check_bipartite_minimum(7)
    failures += [f"minimum: {v.graph6} ({v.bound})" for v in min_bad]
    report(7, failures,
           f"{trees_checked} trees, {mono_checked} deletions, {min_checked} minima")


def test_criterion_8_join_bounds():
    checked, bad = check_join_bounds(7)
    failures = [f"{v.graph6} ({v.bound}={v.value})" for v in bad]
    if checked != 719:  # ordered pairs of all-graph classes, n1+n2 <= 7
        failures.append(f"coverage {checked}")
    report(8, failures, f"{checked} ordered pairs")


def test_criterion_9_graph6_conformance():
    failures = []
    checked = 0
    for n in range(1, 8):
        for g in generate_connected(n):
            checked += 1
            line = emit_graph6(g)
            if parse_graph6(line) != g or emit_graph6(parse_graph6(line)) != line:
                failures.append(line)
    if parse_graph6("A_") != complete_graph(2):
        failures.append("A_ decode")
    if parse_graph6("C~") != complete_graph(4):
        failures.append("C~ decode")
    report(9, failures, f"{checked} round trips")
