"""Batch verification sweeps over exhaustively generated graph families.

The conjecture sweep checks every connected isomorphism class on n vertices
against the conjectured facet-count bracket and records bound violations and
equality hits. The identity sweep replays the structural identities (route
equivalence, suspension formulas, closed forms, 1-sum products, join and
bipartite bounds) from IDENTITY_SUITES, a table of family x property rows: a
family generates the cases up to n_max vertices, a property yields what each
case breaks, and one runner counts the checks and names the violations.
The labeling oracle runs once per connected class, inside decomposition
sanity: oracle_parity_classes counts its facet labelings by odd-labelled
vertex set as it walks them, building no labeling, and those counts check
every cut multiplicity of the cut scan, and so the cut sum. Route equivalence
compares count_facets (join formula and block product) with that cut sum
of the whole graph. Violations are data, not crashes: both sweeps return
reports and leave judgment to the caller.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from multiprocessing import Pool
from typing import IO, Callable, Iterable, Iterator, Sequence

from .canon import generate_all, generate_connected
from .facets import (
    count_facets,
    count_suspension_via_domination,
    enumerate_facet_subgraphs,
    # Not called here: HOOKS in perfbench/tracing.py wraps
    # harness.enumerate_facets_oracle by name, and fails on a missing name.
    enumerate_facets_oracle,  # noqa: F401
    oracle_parity_classes,
    subgraph_component_value,
)
from .formats import GRAPH6_HEADER, emit_graph6, parse_graph6
from .formulas import (
    BoundPair,
    classify_extremal,
    conjecture_bounds,
    is_balanced_complete_bipartite,
    is_conjectured_maximizer,
    is_star,
    join_upper_bound,
    n_complete_bipartite,
    n_complete_multipartite,
    suspension_recursion_bounds,
)
from .graphs import (
    Graph,
    GraphError,
    bipartition,
    complete_bipartite,
    complete_multipartite,
    components,
    delete_edge,
    edges,
    is_connected,
    join,
    one_sum,
    suspension,
)
from .limits import generator_limit


@dataclass(frozen=True)
class Violation:
    graph6: str
    bound: str
    value: int


# slots: pool workers send rows back pickled, and an unpickled row without
# slots gets a dict of its own (28 MB more at n = 9, 261 080 rows).
@dataclass(frozen=True, slots=True)
class SweepRow:
    graph6: str
    n: int
    facet_count: int | None
    lower: int
    upper: int
    cls: str


@dataclass
class VerificationReport:
    n: int
    graphs_checked: int
    violations: list[Violation]
    extremal_hits: list[SweepRow]
    runtime_ms: int


@dataclass
class ConjectureSweep:
    report: VerificationReport
    rows: list[SweepRow]
    input_errors: list[tuple[str, str]]


@lru_cache(maxsize=1 << 16)
def cached_count_facets(g: Graph) -> int:
    return count_facets(g)


def _conjecture_task(args: tuple[str, BoundPair]) -> tuple[SweepRow, str | None]:
    """The row of one graph6 line, stripped of whitespace and header, and
    why the graph was refused (None if it was counted)."""
    line, bounds = args
    g6 = line.strip().removeprefix(GRAPH6_HEADER)
    try:
        g = parse_graph6(g6)
        if g.n != bounds.n:
            reason = f"expected {bounds.n} vertices, got {g.n}"
        else:
            return SweepRow(g6, bounds.n, count_facets(g), bounds.lower, bounds.upper,
                            classify_extremal(g)), None
    except ValueError as exc:
        reason = str(exc)
    return SweepRow(g6, bounds.n, None, bounds.lower, bounds.upper, "input_error"), reason


def sweep_conjecture(
    n: int,
    graphs: Iterable[Graph | str] | None = None,
    jobs: int = 1,
) -> ConjectureSweep:
    """Check the conjectured bounds for each input graph (default: all
    connected classes on n vertices). Rows keep the input order; the
    extremal hits are the rows whose count equals a bound."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    start = time.monotonic()
    bounds = conjecture_bounds(n)
    if graphs is None:
        graphs = generate_connected(n)
    tasks = [(g if isinstance(g, str) else emit_graph6(g), bounds) for g in graphs]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with Pool(workers) as pool:
            results = pool.map(_conjecture_task, tasks,
                               chunksize=max(1, len(tasks) // (workers * 4)))
    else:
        results = map(_conjecture_task, tasks)

    report = VerificationReport(n, 0, [], [], 0)
    sweep = ConjectureSweep(report, [], [])
    for row, reason in results:
        sweep.rows.append(row)
        if reason is not None:
            sweep.input_errors.append((row.graph6, reason))
            continue
        count = row.facet_count
        report.graphs_checked += 1
        if count < row.lower:
            report.violations.append(Violation(row.graph6, "lower", count))
        if count > row.upper:
            report.violations.append(Violation(row.graph6, "upper", count))
        if count == row.lower or count == row.upper:
            report.extremal_hits.append(row)
    report.runtime_ms = int((time.monotonic() - start) * 1000)
    return sweep


# --- identity suites ------------------------------------------------------
#
# Each suite is a row of IDENTITY_SUITES: a family of cases and the property
# every case must have. Families are written once below and shared between
# rows; calling a suite with n_max runs it and returns (checks, violations).


@dataclass(frozen=True)
class IdentitySuite:
    """One identity suite, callable as check_<name>(n_max).

    cases(n_max) yields case tuples: a graph or a pair of graphs, then the
    rest of the case (vertices, a second graph, part sizes). A violation
    names the whole case by _tag. failures(*case) yields one (bound, value)
    for each way the case fails.
    """

    name: str
    cases: Callable[[int], Iterable[tuple]]
    failures: Callable[..., Iterable[tuple[str, int]]]

    @property
    def __name__(self) -> str:
        return f"check_{self.name}"

    def __call__(self, n_max: int) -> tuple[int, list[Violation]]:
        checked = 0
        bad = []
        for case in self.cases(n_max):
            checked += 1
            for bound, value in self.failures(*case):
                bad.append(Violation(_tag(case), bound, value))
        return checked, bad


def _tag(case: tuple) -> str:
    """The graph6 of a case's graph, or "a|b" for a pair, then ":" and the
    rest of the case joined by "," (a graph by its graph6, a vertex or part
    size as a number), as in A_|A_:0,1. ":" and "," lie outside the graph6
    range 63-126."""
    head, *rest = case
    graphs = [head] if isinstance(head, Graph) else head
    tag = "|".join(map(emit_graph6, graphs))
    if rest:
        tag += ":" + ",".join(emit_graph6(x) if isinstance(x, Graph) else str(x)
                              for x in rest)
    return tag


# Families of cases.


def _connected(n_max: int) -> Iterator[tuple]:
    """Connected classes on 2..n_max vertices."""
    for n in range(2, n_max + 1):
        for g in generate_connected(n):
            yield (g,)


def _bases(first: int, last: int) -> Iterator[tuple]:
    """All graph classes on first..last vertices."""
    for k in range(first, last + 1):
        for base in generate_all(k):
            yield (base,)


def _bipartite(n_max: int) -> Iterator[tuple]:
    """Connected bipartite classes on 2..n_max vertices."""
    return (case for case in _connected(n_max) if bipartition(case[0]) is not None)


def _edge_deletions(n_max: int) -> Iterator[tuple]:
    """(g, g - e) for each edge e of a connected bipartite class g whose
    deletion leaves the graph connected."""
    for (g,) in _bipartite(n_max):
        for e in edges(g):
            smaller = delete_edge(g, *e)
            if is_connected(smaller):
                yield g, smaller


def _ordered_pairs(generate: Callable[[int], Iterable[Graph]], sizes: range,
                   keep: Callable[[int, int], bool]) -> Iterator[tuple[Graph, Graph]]:
    """Ordered pairs (g1, g2) of classes from generate on n1 and n2 vertices
    in sizes, for the sizes with keep(n1, n2)."""
    pools = {k: list(generate(k)) for k in sizes}
    for n1 in pools:
        for n2 in pools:
            if keep(n1, n2):
                for g1 in pools[n1]:
                    for g2 in pools[n2]:
                        yield g1, g2


def _gluings(n_max: int) -> Iterator[tuple]:
    """((g1, g2), v1, v2) for connected g1, g2 with n1 <= n2 whose 1-sum has
    at most n_max vertices, over every pair of glued vertices."""
    pairs = _ordered_pairs(generate_connected, range(2, n_max),
                           lambda n1, n2: n1 + n2 - 1 <= n_max and n1 <= n2)
    for g1, g2 in pairs:
        for v1 in range(g1.n):
            for v2 in range(g2.n):
                yield (g1, g2), v1, v2


def _joined_pairs(n_max: int) -> Iterator[tuple]:
    """((g1, g2),) for graph classes whose join has at most n_max vertices."""
    pairs = _ordered_pairs(generate_all, range(1, n_max),
                           lambda n1, n2: n1 + n2 <= n_max)
    return ((pair,) for pair in pairs)


def _multipartite(n_max: int) -> Iterator[tuple]:
    """(K_{l,m}, l, m) with l <= m and l + m <= n_max + 1, then (g, *parts)
    for the complete multipartite graphs with at least three parts on at
    most n_max vertices."""
    for total in range(2, n_max + 2):
        for l in range(1, total // 2 + 1):
            yield complete_bipartite(l, total - l), l, total - l
    for total in range(3, n_max + 1):
        for parts in _partitions(total, total):
            if len(parts) >= 3:
                yield complete_multipartite(list(parts)), *parts


def _partitions(remaining: int, biggest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of remaining into parts of at most biggest, each listed
    largest part first, in descending order."""
    if remaining == 0:
        yield ()
        return
    for head in range(min(remaining, biggest), 0, -1):
        for tail in _partitions(remaining - head, head):
            yield (head,) + tail


def _base_vertices(n_max: int) -> Iterator[tuple]:
    """(base, v) for every vertex v of a graph class on 2..min(6, n_max - 1)
    vertices."""
    for (base,) in _bases(2, min(6, n_max - 1)):
        for v in range(base.n):
            yield base, v


# Properties.


def _route_equivalence(g: Graph) -> Iterator[tuple[str, int]]:
    # The cut sum splits neither joins nor blocks; decomposition sanity
    # ties it to the oracle.
    decomposed = count_facets(g)
    if decomposed != sum(mu for _, mu in enumerate_facet_subgraphs(g)):
        yield "route_equivalence", decomposed


def _suspension_domination(base: Graph) -> Iterator[tuple[str, int]]:
    via_domination = count_suspension_via_domination(base)
    # count_facets(suspension(base)) is itself the domination route, so
    # compare with the cut scan of the whole suspension.
    if via_domination != sum(mu for _, mu in enumerate_facet_subgraphs(suspension(base))):
        yield "suspension_domination", via_domination


def _q_bound(base: Graph) -> Iterator[tuple[str, int]]:
    count = cached_count_facets(suspension(base))
    if count > subgraph_component_value(base):
        yield "q_bound", count


def _bipartite_monotonicity(g: Graph, smaller: Graph) -> Iterator[tuple[str, int]]:
    count = cached_count_facets(g)
    if count > cached_count_facets(smaller):
        yield "bipartite_monotonicity", count


def _bipartite_minimum(g: Graph) -> Iterator[tuple[str, int]]:
    floor = n_complete_bipartite(g.n // 2, (g.n + 1) // 2)
    count = cached_count_facets(g)
    if count < floor:
        yield "bipartite_minimum", count
    if (count == floor) != is_balanced_complete_bipartite(g):
        yield "bipartite_minimum_equality", count


def _decomposition_sanity(g: Graph) -> Iterator[tuple[str, int]]:
    # A facet labeling differs by 0 or 1 on every edge, so its strict edges
    # are exactly the edges across its parity cut, vertex 0 (label 0) on the
    # even side. Each cut is therefore one parity class of the oracle's
    # labelings, and its mu is the class's count, which the oracle tallies
    # without building the labelings; a parity class the cut scan lacks
    # counts as a cut with mu 0.
    kernel = dict(enumerate_facet_subgraphs(g))
    oracle = oracle_parity_classes(g)
    for part2 in sorted(kernel.keys() | oracle.keys()):
        mu = kernel.get(part2, 0)
        if mu < 2 or mu % 2 != 0 or oracle.get(part2) != mu:
            yield "mu_sanity", mu
            return


def _multipartite_formula(g: Graph, *parts: int) -> Iterator[tuple[str, int]]:
    count = cached_count_facets(g)
    if len(parts) == 2:
        if count != n_complete_bipartite(*parts):
            yield "complete_bipartite_formula", count
    elif count != n_complete_multipartite(list(parts)):
        yield "complete_multipartite_formula", count


def _one_sum_product(pair: tuple[Graph, Graph], v1: int, v2: int) -> Iterator[tuple[str, int]]:
    g1, g2 = pair
    count = cached_count_facets(one_sum(g1, v1, g2, v2))
    if count != cached_count_facets(g1) * cached_count_facets(g2):
        yield "one_sum_product", count


def _suspension_bounds(base: Graph) -> Iterator[tuple[str, int]]:
    n = base.n + 1
    hat = suspension(base)
    count = cached_count_facets(hat)
    if count < 2 ** (n - 1):
        yield "suspension_lower", count
    if (count == 2 ** (n - 1)) != is_star(hat):
        yield "suspension_lower_equality", count
    if n >= 3:
        upper = conjecture_bounds(n).upper
        if count > upper:
            yield "suspension_upper", count
        if (count == upper) != is_conjectured_maximizer(hat):
            yield "suspension_upper_equality", count


def _join_bounds(pair: tuple[Graph, Graph]) -> Iterator[tuple[str, int]]:
    g1, g2 = pair
    count = cached_count_facets(join(g1, g2))
    c1, c2 = len(components(g1.adj)), len(components(g2.adj))
    cap = join_upper_bound(
        cached_count_facets(suspension(g1)), cached_count_facets(suspension(g2)),
        g1.n, g2.n, c1, c2)
    if count > cap:
        yield "join_upper_bound", count
    if cap - count != 2 ** (c1 + c2) - 2 ** c1 - 2 ** c2 + 4:
        yield "join_upper_bound_gap", count
    n = g1.n + g2.n
    if n >= 3:
        bounds = conjecture_bounds(n)
        if not bounds.lower <= count <= bounds.upper:
            yield "join_conjecture_bound", count


def _suspension_recursion(base: Graph, v: int) -> Iterator[tuple[str, int]]:
    count = cached_count_facets(suspension(base))
    lower, upper = suspension_recursion_bounds(base, v, cached_count_facets)
    if not lower <= count <= upper:
        yield "suspension_recursion", count


def _double_suspension(base: Graph) -> Iterator[tuple[str, int]]:
    # Suspending an n-vertex base twice adds 2^(n+1): N(S(S(G))) = N(S(G)) + 2^(n+1).
    once = cached_count_facets(suspension(base))
    twice = cached_count_facets(suspension(suspension(base)))
    if twice != once + 2 ** (base.n + 1):
        yield "double_suspension", twice


IDENTITY_SUITES = (
    IdentitySuite("route_equivalence", _connected, _route_equivalence),
    IdentitySuite("suspension_domination", lambda n_max: _bases(1, n_max - 1),
                  _suspension_domination),
    IdentitySuite("q_bound", lambda n_max: _bases(1, n_max - 1), _q_bound),
    IdentitySuite("bipartite_monotonicity", _edge_deletions, _bipartite_monotonicity),
    IdentitySuite("bipartite_minimum", _bipartite, _bipartite_minimum),
    IdentitySuite("decomposition_sanity", _connected, _decomposition_sanity),
    IdentitySuite("multipartite_formulas", _multipartite, _multipartite_formula),
    IdentitySuite("one_sum_products", _gluings, _one_sum_product),
    IdentitySuite("suspension_bounds", lambda n_max: _bases(1, min(6, n_max - 1)),
                  _suspension_bounds),
    IdentitySuite("join_bounds", _joined_pairs, _join_bounds),
    IdentitySuite("suspension_recursion", _base_vertices, _suspension_recursion),
    IdentitySuite("double_suspension", lambda n_max: _bases(2, min(5, n_max - 2)),
                  _double_suspension),
)

# Each suite under its own name, for callers that run one suite.
(check_route_equivalence, check_suspension_domination, check_q_bound,
 check_bipartite_monotonicity, check_bipartite_minimum, check_decomposition_sanity,
 check_multipartite_formulas, check_one_sum_products, check_suspension_bounds,
 check_join_bounds, check_suspension_recursion, check_double_suspension) = IDENTITY_SUITES


def verify_identities(n_max: int) -> VerificationReport:
    """Run every identity suite over families up to n_max vertices."""
    cap = generator_limit()
    if not 1 <= n_max <= cap:
        raise GraphError(f"identity sweep needs n_max >= 1, got {n_max}" if n_max < 1
                         else f"identity sweep limited to n_max <= {cap}")
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
