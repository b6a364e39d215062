import hashlib
import json
from collections import Counter

import pytest

from sepfacets import facets, formulas, harness
from sepfacets.canon import canonical_form, generate_connected
from sepfacets.cli import main
from sepfacets.facets import count_facets
from sepfacets.formats import emit_graph6, parse_graph6
from sepfacets.graphs import (
    GraphError,
    complete_bipartite,
    complete_graph,
    from_edges,
    one_sum,
    path_graph,
)
from sepfacets.harness import (
    IDENTITY_SUITES,
    report_to_dict,
    report_to_json,
    sweep_conjecture,
    verify_identities,
    write_rows_csv,
)


def certs(graph6_strings):
    return {canonical_form(parse_graph6(s)) for s in graph6_strings}


def hits_by_bound(report, bounds):
    lows, highs = set(), set()
    for hit in report.extremal_hits:
        count = count_facets(parse_graph6(hit.graph6))
        if count == bounds.lower:
            lows.add(hit.graph6)
        if count == bounds.upper:
            highs.add(hit.graph6)
    return lows, highs


def test_sweep_n3():
    from sepfacets.formulas import conjecture_bounds

    report = sweep_conjecture(3).report
    assert report.n == 3 and report.graphs_checked == 2
    assert not report.violations
    lows, highs = hits_by_bound(report, conjecture_bounds(3))
    assert certs(lows) == {canonical_form(path_graph(3))}
    assert certs(highs) == {canonical_form(complete_graph(3))}


def test_sweep_n4():
    from sepfacets.formulas import conjecture_bounds

    report = sweep_conjecture(4).report
    assert report.graphs_checked == 6 and not report.violations
    lows, highs = hits_by_bound(report, conjecture_bounds(4))
    assert certs(lows) == {canonical_form(complete_bipartite(2, 2))}
    assert certs(highs) == {canonical_form(complete_graph(4))}


def test_sweep_n5_extremes():
    from sepfacets.formulas import conjecture_bounds

    report = sweep_conjecture(5).report
    assert report.graphs_checked == 21 and not report.violations
    lows, highs = hits_by_bound(report, conjecture_bounds(5))
    bowtie = one_sum(complete_graph(3), 0, complete_graph(3), 0)
    assert certs(lows) == {canonical_form(complete_bipartite(2, 3))}
    assert certs(highs) == {canonical_form(bowtie)}


def test_sweep_accepts_graph6_stream():
    stream = [emit_graph6(g) for g in generate_connected(4)]
    report = sweep_conjecture(4, graphs=stream).report
    assert report.graphs_checked == 6 and not report.violations


def test_sweep_rows_hold_the_bare_graph6():
    sweep = sweep_conjecture(4, graphs=[" C~ ", ">>graph6<<C~", "\tCq\n"])
    assert [r.graph6 for r in sweep.rows] == ["C~", "C~", "Cq"]
    # the extremal hits are the rows at a bound
    assert sweep.report.extremal_hits == sweep.rows[:2]
    assert [r.cls for r in sweep.rows[:2]] == ["k4_plus_triangles"] * 2


def test_sweep_ingests_external_n8_corpus():
    # beyond the internal generator cap; counts pinned by both routes and,
    # for the first three, by closed forms (2^8-2, 2^7, binom(8,4))
    corpus = {
        "G~~~~{": 254,  # complete
        "GsaCC?": 128,  # star
        "GhCGKC": 70,   # 8-cycle
        "Gr`HOk": 38,   # cube
    }
    sweep = sweep_conjecture(8, graphs=list(corpus))
    assert sweep.report.graphs_checked == 4
    assert not sweep.report.violations and not sweep.input_errors
    assert [r.facet_count for r in sweep.rows] == list(corpus.values())
    assert all(r.lower == 30 and r.upper == 504 for r in sweep.rows)


def test_sweep_worker_count_does_not_change_results():
    serial = sweep_conjecture(5, jobs=1)
    parallel = sweep_conjecture(5, jobs=4)
    assert serial.rows == parallel.rows
    assert serial.report.violations == parallel.report.violations
    assert serial.report.extremal_hits == parallel.report.extremal_hits


def test_sweep_pool_has_no_more_workers_than_tasks(monkeypatch):
    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr("sepfacets.harness.Pool", FakePool)
    graphs = [emit_graph6(g) for g in
              (path_graph(4), complete_graph(4), complete_bipartite(2, 2))]
    sweep = sweep_conjecture(4, graphs, jobs=8)
    assert sizes == [3]
    assert sweep.rows == sweep_conjecture(4, graphs, jobs=1).rows
    with pytest.raises(ValueError, match="jobs must be at least 1, got 0"):
        sweep_conjecture(4, graphs, jobs=0)
    assert sizes == [3]


def test_disconnected_graph_is_input_error_not_violation():
    from sepfacets.graphs import from_edges

    disconnected = emit_graph6(from_edges(4, [(0, 1), (2, 3)]))
    good = emit_graph6(complete_graph(4))
    sweep = sweep_conjecture(4, graphs=[good, disconnected])
    assert sweep.report.graphs_checked == 1
    assert not sweep.report.violations
    assert sweep.input_errors == [(disconnected, "disconnected")]
    assert [r.cls for r in sweep.rows] == ["k4_plus_triangles", "input_error"]


def test_sweep_floods_each_graph_once(monkeypatch):
    # count_facets checks connectivity; the harness and classify_extremal
    # must not flood a sweep graph again
    floods = []
    for module in (harness, facets, formulas):
        if hasattr(module, "is_connected"):
            flood = module.is_connected
            monkeypatch.setattr(module, "is_connected",
                                lambda g, flood=flood: floods.append(g) or flood(g))
    disconnected = from_edges(6, [(0, 1), (2, 3), (4, 5)])
    graphs = list(generate_connected(6)) + [disconnected]
    sweep = sweep_conjecture(6, graphs)
    assert floods == graphs
    assert sweep.input_errors == [(emit_graph6(disconnected), "disconnected")]


def test_mismatched_size_is_input_error():
    sweep = sweep_conjecture(4, graphs=[emit_graph6(complete_graph(3))])
    assert sweep.report.graphs_checked == 0
    assert len(sweep.input_errors) == 1


def test_report_json_fields():
    report = sweep_conjecture(3).report
    payload = json.loads(report_to_json(report))
    assert sorted(payload) == ["extremal_hits", "graphs_checked", "n",
                               "runtime_ms", "violations"]
    assert payload["n"] == 3 and payload["graphs_checked"] == 2
    assert payload["violations"] == []
    for hit in payload["extremal_hits"]:
        assert sorted(hit) == ["class", "graph6"]
    assert report_to_dict(report)["extremal_hits"]


def test_csv_columns(tmp_path):
    sweep = sweep_conjecture(3)
    out = tmp_path / "rows.csv"
    with open(out, "w", newline="") as fp:
        write_rows_csv(sweep.rows, fp)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "graph6,n,facet_count,lower,upper,class"
    assert len(lines) == 3
    assert lines[1].split(",")[1:] == ["3", "4", "4", "6", "star"]


def test_identities_pass_small():
    for n_max in (2, 4):
        report = verify_identities(n_max)
        assert not report.violations
        assert report.graphs_checked > 0


def test_identities_n5():
    report = verify_identities(5)
    assert not report.violations


def test_identities_n6():
    report = verify_identities(6)
    assert not report.violations


def test_route_equivalence_exhaustive_n7():
    from sepfacets.harness import check_route_equivalence

    checked, bad = check_route_equivalence(7)
    assert checked == 995 and not bad


def test_one_sum_products_full_range():
    from sepfacets.harness import check_one_sum_products

    checked, bad = check_one_sum_products(7)
    assert checked > 0 and not bad


def test_q_bound_bases_up_to_six():
    from sepfacets.harness import check_q_bound

    checked, bad = check_q_bound(7)
    assert checked == 208 and not bad


def test_suspension_bounds_bases_up_to_six():
    from sepfacets.harness import check_suspension_bounds

    checked, bad = check_suspension_bounds(7)
    assert checked == 208 and not bad


# (suite, checks at n_max = 4, checks at n_max = 6): the counts the benchmark
# pins in perfbench/reference.json, in the order verify_identities runs them.
SUITE_CHECKS = [
    ("route_equivalence", 9, 142),
    ("suspension_domination", 7, 52),
    ("q_bound", 7, 52),
    ("bipartite_monotonicity", 4, 80),
    ("bipartite_minimum", 5, 27),
    ("decomposition_sanity", 9, 142),
    ("multipartite_formulas", 9, 26),
    ("one_sum_products", 16, 454),
    ("suspension_bounds", 7, 52),
    ("join_bounds", 17, 183),
    ("suspension_recursion", 16, 230),
    ("double_suspension", 2, 17),
]

# verify_identities(4) with every cached count raised by 2: 77 violations
# over 11 bounds, and the sha256 of their "tag bound value" lines joined by
# newlines. The counts were recorded before the suites became rows of one
# table; the digest since each tag names the whole case. The 17
# join_upper_bound_gap lines came with that exact check; without them the
# list is the earlier 60 lines, digest eb97c5ad...584f10.
PERTURBED_BOUNDS = {
    "q_bound": 3,
    "bipartite_minimum_equality": 3,
    "complete_bipartite_formula": 6,
    "complete_multipartite_formula": 3,
    "one_sum_product": 16,
    "suspension_lower_equality": 3,
    "suspension_upper_equality": 5,
    "suspension_upper": 2,
    "join_conjecture_bound": 5,
    "join_upper_bound_gap": 17,
    "suspension_recursion": 14,
}
PERTURBED_DIGEST = "25c89465709dd336cf828839c1f20908aec2d918e1c452b18652fc178eb761ef"


def test_identity_sweep_shares_the_generator_cap(monkeypatch):
    monkeypatch.setattr("sepfacets.harness.IDENTITY_SUITES", ())
    monkeypatch.delenv("SEP_MAX_N", raising=False)
    with pytest.raises(GraphError, match="n_max <= 7"):
        verify_identities(8)
    monkeypatch.setenv("SEP_MAX_N", "8")
    assert verify_identities(8).graphs_checked == 0


def test_identity_suite_check_counts():
    assert [s.__name__ for s in IDENTITY_SUITES] == [
        f"check_{name}" for name, _, _ in SUITE_CHECKS]
    for suite, (_, at4, at6) in zip(IDENTITY_SUITES, SUITE_CHECKS):
        assert suite(4) == (at4, [])
        assert suite(6) == (at6, [])
    assert sum(at6 for _, _, at6 in SUITE_CHECKS) == 1457


def test_identities_report_every_failed_check(monkeypatch, capsys):
    monkeypatch.setattr("sepfacets.harness.cached_count_facets",
                        lambda g: count_facets(g) + 2)
    report = verify_identities(4)
    lines = [f"{v.graph6} {v.bound} {v.value}" for v in report.violations]
    assert report.graphs_checked == 108 and len(lines) == 77
    assert Counter(v.bound for v in report.violations) == PERTURBED_BOUNDS
    assert len(set(lines)) == len(lines)
    assert "A_|A_:0,1 one_sum_product 6" in lines
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PERTURBED_DIGEST
    assert main(["verify", "--n", "4", "--identities"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "identities n_max=4 checks=108 violations=77"
    assert out[1:] == [f"violation {line}" for line in lines]


# (harness name, its planted replacement, suite, bound, checks at n_max = 4):
# each fault makes every case of the suite fail the bound.
PLANTED_FAULTS = [
    ("count_facets", lambda g: count_facets(g) + 2,
     "route_equivalence", "route_equivalence", 9),
    ("count_suspension_via_domination",
     lambda g: facets.count_suspension_via_domination(g) + 2,
     "suspension_domination", "suspension_domination", 7),
    ("enumerate_facet_subgraphs",
     lambda g: [(part2, mu + 2) for part2, mu in facets.enumerate_facet_subgraphs(g)],
     "decomposition_sanity", "mu_sanity", 9),
    ("oracle_parity_classes",
     lambda g: {odd: count - (k == 0)
                for k, (odd, count) in enumerate(facets.oracle_parity_classes(g).items())},
     "decomposition_sanity", "mu_sanity", 9),
    ("cached_count_facets", lambda g: 2 * sum(row.bit_count() for row in g.adj),
     "bipartite_monotonicity", "bipartite_monotonicity", 4),
    ("cached_count_facets", lambda g: 0, "bipartite_minimum", "bipartite_minimum", 5),
    ("cached_count_facets", lambda g: 0, "suspension_bounds", "suspension_lower", 7),
    ("join_upper_bound", lambda *args: 0, "join_bounds", "join_upper_bound", 17),
    ("cached_count_facets", lambda g: g.n, "double_suspension", "double_suspension", 2),
]


# Each fault is named by its bound; a second fault on one bound adds the
# name it replaces.
FAULT_IDS: list[str] = []
for name, _, _, bound, _ in PLANTED_FAULTS:
    FAULT_IDS.append(f"{bound}-{name}" if bound in FAULT_IDS else bound)


@pytest.mark.parametrize("name, fault, suite, bound, checks", PLANTED_FAULTS, ids=FAULT_IDS)
def test_planted_fault_fails_every_case(monkeypatch, name, fault, suite, bound, checks):
    run = next(s for s in IDENTITY_SUITES if s.name == suite)
    # A clean run first: per-class state kept from it would hide the fault.
    assert run(4) == (checks, [])
    monkeypatch.setattr(f"sepfacets.harness.{name}", fault)
    checked, bad = run(4)
    assert checked == checks
    assert sum(v.bound == bound for v in bad) == checks
