"""Batch verification sweeps over exhaustively generated graph families.

The conjecture sweep checks every connected isomorphism class on n vertices
against the conjectured facet-count bracket and records bound violations and
equality hits. The identity sweep replays the structural identities (route
equivalence, suspension formulas, closed forms, 1-sum products, join and
bipartite bounds) over the same families. Violations are data, not crashes:
both sweeps return reports and leave judgment to the caller.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from multiprocessing import Pool
from typing import IO, Iterable, Sequence

from . import formulas
from .canon import generate_all, generate_connected
from .facets import (
    count_facets,
    count_suspension_via_domination,
    enumerate_facet_subgraphs,
    enumerate_facets_oracle,
    mu_of,
    subgraph_component_value,
)
from .formats import emit_graph6, parse_graph6
from .formulas import (
    classify_extremal,
    conjecture_bounds,
    double_suspension_check,
    is_balanced_complete_bipartite,
    is_k4_plus_triangles,
    is_one_sum_of_triangles,
    is_star,
    join_upper_bound,
    n_complete_bipartite,
    n_complete_multipartite,
    suspension_recursion_check,
)
from .graphs import (
    Graph,
    GraphError,
    bipartition,
    closed_neighborhood,
    component_count,
    complete_bipartite,
    complete_multipartite,
    delete_edge,
    edges,
    full_mask,
    is_connected,
    join,
    one_sum,
    suspension,
)


@dataclass(frozen=True)
class Violation:
    graph6: str
    bound: str
    value: int


@dataclass(frozen=True)
class ExtremalHit:
    graph6: str
    cls: str


@dataclass
class VerificationReport:
    n: int
    graphs_checked: int
    violations: list[Violation]
    extremal_hits: list[ExtremalHit]
    runtime_ms: int

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class SweepRow:
    graph6: str
    n: int
    facet_count: int | None
    lower: int
    upper: int
    cls: str


@dataclass
class ConjectureSweep:
    report: VerificationReport
    rows: list[SweepRow]
    input_errors: list[tuple[str, str]] = field(default_factory=list)


@lru_cache(maxsize=1 << 16)
def cached_count_facets(g: Graph) -> int:
    return count_facets(g)


def _conjecture_task(args: tuple[str, int]) -> tuple:
    g6, n = args
    try:
        g = parse_graph6(g6)
        if g.n != n:
            return ("error", g6, f"expected {n} vertices, got {g.n}")
        if not is_connected(g):
            return ("error", g6, "disconnected")
        return ("ok", g6, count_facets(g), classify_extremal(g))
    except (GraphError, ValueError) as exc:
        return ("error", g6, str(exc))


def sweep_conjecture(
    n: int,
    graphs: Iterable[Graph | str] | None = None,
    jobs: int = 1,
) -> ConjectureSweep:
    """Check the conjectured bounds for each input graph (default: all
    connected classes on n vertices). Results keep the input order."""
    start = time.monotonic()
    if graphs is None:
        graphs = generate_connected(n)
    g6s = [g if isinstance(g, str) else emit_graph6(g) for g in graphs]
    bounds = conjecture_bounds(n)

    tasks = [(g6, n) for g6 in g6s]
    if jobs > 1 and len(tasks) > 1:
        with Pool(jobs) as pool:
            results = pool.map(_conjecture_task, tasks,
                               chunksize=max(1, len(tasks) // (jobs * 4)))
    else:
        results = [_conjecture_task(t) for t in tasks]

    rows: list[SweepRow] = []
    violations: list[Violation] = []
    hits: list[ExtremalHit] = []
    input_errors: list[tuple[str, str]] = []
    checked = 0
    for result in results:
        if result[0] == "error":
            _, g6, reason = result
            input_errors.append((g6, reason))
            rows.append(SweepRow(g6, n, None, bounds.lower, bounds.upper,
                                 "input_error"))
            continue
        _, g6, count, cls = result
        checked += 1
        rows.append(SweepRow(g6, n, count, bounds.lower, bounds.upper, cls))
        if count < bounds.lower:
            violations.append(Violation(g6, "lower", count))
        if count > bounds.upper:
            violations.append(Violation(g6, "upper", count))
        if count == bounds.lower or count == bounds.upper:
            hits.append(ExtremalHit(g6, cls))

    runtime_ms = int((time.monotonic() - start) * 1000)
    report = VerificationReport(n, checked, violations, hits, runtime_ms)
    return ConjectureSweep(report, rows, input_errors)


def verify_conjecture(
    n: int,
    graphs: Iterable[Graph | str] | None = None,
    jobs: int = 1,
) -> VerificationReport:
    return sweep_conjecture(n, graphs, jobs).report


# --- identity suites ------------------------------------------------------
#
# Each suite returns (number of checks performed, violations). The graph6
# field of a violation names the offending graph, or "a|b" for pair checks.


def _pair_tag(a: Graph, b: Graph) -> str:
    return f"{emit_graph6(a)}|{emit_graph6(b)}"


def check_route_equivalence(n_max: int) -> tuple[int, list[Violation]]:
    checked = 0
    bad = []
    for n in range(2, n_max + 1):
        for g in generate_connected(n):
            checked += 1
            oracle = len(enumerate_facets_oracle(g))
            decomposed = count_facets(g)
            if oracle != decomposed:
                bad.append(Violation(emit_graph6(g), "route_equivalence", decomposed))
    return checked, bad


def check_suspension_domination(n_max: int) -> tuple[int, list[Violation]]:
    checked = 0
    bad = []
    for k in range(1, n_max):
        for base in generate_all(k):
            checked += 1
            via_domination = count_suspension_via_domination(base)
            # count_facets(suspension(base)) is itself the domination route,
            # so compare with the cut scan of the whole suspension.
            direct = sum(h.mu for h in enumerate_facet_subgraphs(suspension(base)))
            if via_domination != direct:
                bad.append(Violation(emit_graph6(base), "suspension_domination",
                                     via_domination))
    return checked, bad


def check_q_bound(n_max: int) -> tuple[int, list[Violation]]:
    checked = 0
    bad = []
    for k in range(1, n_max):
        for base in generate_all(k):
            checked += 1
            count = cached_count_facets(suspension(base))
            if count > subgraph_component_value(base):
                bad.append(Violation(emit_graph6(base), "q_bound", count))
    return checked, bad


def check_bipartite_monotonicity(n_max: int) -> tuple[int, list[Violation]]:
    checked = 0
    bad = []
    for n in range(2, n_max + 1):
        for g in generate_connected(n):
            if bipartition(g) is None:
                continue
            base_count = cached_count_facets(g)
            for e in edges(g):
                smaller = delete_edge(g, *e)
                if not is_connected(smaller):
                    continue
                checked += 1
                if base_count > cached_count_facets(smaller):
                    bad.append(Violation(emit_graph6(g), "bipartite_monotonicity",
                                         base_count))
    return checked, bad


def check_bipartite_minimum(n_max: int) -> tuple[int, list[Violation]]:
    checked = 0
    bad = []
    for n in range(2, n_max + 1):
        floor = formulas.bipartite_minimum(n)
        for g in generate_connected(n):
            if bipartition(g) is None:
                continue
            checked += 1
            count = cached_count_facets(g)
            if count < floor:
                bad.append(Violation(emit_graph6(g), "bipartite_minimum", count))
            if (count == floor) != is_balanced_complete_bipartite(g):
                bad.append(Violation(emit_graph6(g), "bipartite_minimum_equality",
                                     count))
    return checked, bad


def check_decomposition_sanity(n_max: int) -> tuple[int, list[Violation]]:
    checked = 0
    bad = []
    for n in range(2, n_max + 1):
        for g in generate_connected(n):
            checked += 1
            for h in enumerate_facet_subgraphs(g):
                if h.mu < 2 or h.mu % 2 != 0 or mu_of(g, h) != h.mu:
                    bad.append(Violation(emit_graph6(g), "mu_sanity", h.mu))
                    break
    return checked, bad


def check_multipartite_formulas(n_max: int) -> tuple[int, list[Violation]]:
    checked = 0
    bad = []
    for total in range(2, n_max + 2):
        for l in range(1, total // 2 + 1):
            m = total - l
            checked += 1
            g = complete_bipartite(l, m)
            if cached_count_facets(g) != n_complete_bipartite(l, m):
                bad.append(Violation(emit_graph6(g), "complete_bipartite_formula",
                                     cached_count_facets(g)))
    for total in range(3, n_max + 1):
        for parts in _partitions(total):
            if len(parts) < 3:
                continue
            checked += 1
            g = complete_multipartite(list(parts))
            if cached_count_facets(g) != n_complete_multipartite(list(parts)):
                bad.append(Violation(emit_graph6(g), "complete_multipartite_formula",
                                     cached_count_facets(g)))
    return checked, bad


def _partitions(total: int) -> Iterable[tuple[int, ...]]:
    def rec(remaining: int, biggest: int) -> Iterable[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for head in range(min(remaining, biggest), 0, -1):
            for tail in rec(remaining - head, head):
                yield (head,) + tail

    yield from rec(total, total)


def check_one_sum_products(n_max: int) -> tuple[int, list[Violation]]:
    checked = 0
    bad = []
    pools = {k: list(generate_connected(k)) for k in range(2, n_max)}
    for n1 in pools:
        for n2 in pools:
            if n1 + n2 - 1 > n_max or n1 > n2:
                continue
            for g1 in pools[n1]:
                for g2 in pools[n2]:
                    expected = cached_count_facets(g1) * cached_count_facets(g2)
                    for v1 in range(n1):
                        for v2 in range(n2):
                            checked += 1
                            glued = one_sum(g1, v1, g2, v2)
                            if cached_count_facets(glued) != expected:
                                bad.append(Violation(_pair_tag(g1, g2),
                                                     "one_sum_product",
                                                     cached_count_facets(glued)))
    return checked, bad


def check_suspension_bounds(n_max: int) -> tuple[int, list[Violation]]:
    checked = 0
    bad = []
    for k in range(1, min(6, n_max - 1) + 1):
        for base in generate_all(k):
            checked += 1
            n = k + 1
            hat = suspension(base)
            count = cached_count_facets(hat)
            g6 = emit_graph6(base)
            if count < 2 ** (n - 1):
                bad.append(Violation(g6, "suspension_lower", count))
            if (count == 2 ** (n - 1)) != is_star(hat):
                bad.append(Violation(g6, "suspension_lower_equality", count))
            if n >= 3:
                upper = conjecture_bounds(n).upper
                if count > upper:
                    bad.append(Violation(g6, "suspension_upper", count))
                at_max = is_one_sum_of_triangles(hat) if n % 2 else is_k4_plus_triangles(hat)
                if (count == upper) != at_max:
                    bad.append(Violation(g6, "suspension_upper_equality", count))
    return checked, bad


def check_join_bounds(n_max: int) -> tuple[int, list[Violation]]:
    checked = 0
    bad = []
    pools = {k: list(generate_all(k)) for k in range(1, n_max)}
    for n1 in pools:
        for n2 in pools:
            if n1 + n2 > n_max:
                continue
            for g1 in pools[n1]:
                for g2 in pools[n2]:
                    checked += 1
                    joined = join(g1, g2)
                    count = cached_count_facets(joined)
                    cap = join_upper_bound(
                        cached_count_facets(suspension(g1)),
                        cached_count_facets(suspension(g2)),
                        n1, n2, component_count(g1), component_count(g2))
                    if count > cap:
                        bad.append(Violation(_pair_tag(g1, g2), "join_upper_bound",
                                             count))
                    n = n1 + n2
                    if n >= 3:
                        bounds = conjecture_bounds(n)
                        if not bounds.lower <= count <= bounds.upper:
                            bad.append(Violation(_pair_tag(g1, g2),
                                                 "join_conjecture_bound", count))
    return checked, bad


def check_suspension_recursion(n_max: int) -> tuple[int, list[Violation]]:
    checked = 0
    bad = []
    for k in range(2, min(6, n_max - 1) + 1):
        for base in generate_all(k):
            for v in range(k):
                checked += 1
                result = suspension_recursion_check(base, v, cached_count_facets)
                covers = closed_neighborhood(base, v) == full_mask(k)
                if not result.passed or result.equality_branch != covers:
                    bad.append(Violation(emit_graph6(base), "suspension_recursion",
                                         result.total))
    return checked, bad


def check_double_suspension(n_max: int) -> tuple[int, list[Violation]]:
    checked = 0
    bad = []
    for k in range(2, min(5, n_max - 2) + 1):
        for base in generate_all(k):
            checked += 1
            result = double_suspension_check(base, cached_count_facets)
            if not result.passed:
                bad.append(Violation(emit_graph6(base), "double_suspension",
                                     result.twice))
    return checked, bad


IDENTITY_SUITES = (
    check_route_equivalence,
    check_suspension_domination,
    check_q_bound,
    check_bipartite_monotonicity,
    check_bipartite_minimum,
    check_decomposition_sanity,
    check_multipartite_formulas,
    check_one_sum_products,
    check_suspension_bounds,
    check_join_bounds,
    check_suspension_recursion,
    check_double_suspension,
)


def verify_identities(n_max: int) -> VerificationReport:
    """Run every identity suite over families up to n_max vertices."""
    if n_max > 7:
        raise GraphError("identity sweep limited to n_max <= 7")
    start = time.monotonic()
    checked = 0
    violations: list[Violation] = []
    for suite in IDENTITY_SUITES:
        suite_checked, suite_bad = suite(n_max)
        checked += suite_checked
        violations.extend(suite_bad)
    runtime_ms = int((time.monotonic() - start) * 1000)
    return VerificationReport(n_max, checked, violations, [], runtime_ms)


# --- report serialization -------------------------------------------------


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "n": report.n,
        "graphs_checked": report.graphs_checked,
        "violations": [asdict(v) for v in report.violations],
        "extremal_hits": [{"graph6": h.graph6, "class": h.cls}
                          for h in report.extremal_hits],
        "runtime_ms": report.runtime_ms,
    }


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def write_rows_csv(rows: Sequence[SweepRow], fp: IO[str]) -> None:
    writer = csv.writer(fp)
    writer.writerow(["graph6", "n", "facet_count", "lower", "upper", "class"])
    for row in rows:
        writer.writerow([
            row.graph6,
            row.n,
            "" if row.facet_count is None else row.facet_count,
            row.lower,
            row.upper,
            row.cls,
        ])
