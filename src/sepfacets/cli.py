"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 verification failure (a sweep found
bound or identity violations). All diagnostics go to stderr; stdout carries
only the documented output so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path
from typing import Sequence

from .canon import generate_connected
from .facets import (
    count_facets,
    count_suspension_via_domination,
    enumerate_facet_subgraphs,
    enumerate_facets_oracle,
    oracle_parity_classes,
)
from .formats import (
    FormatError,
    emit_edge_spec,
    emit_graph6,
    parse_edge_list,
    parse_edge_spec,
    parse_graph6,
)
from .formulas import (
    complete_multipartite_parts,
    conjecture_bounds,
    n_complete_bipartite,
    n_complete_multipartite,
)
from .graphs import (
    Graph,
    delete_vertex,
    edges,
    full_mask,
    iter_bits,
    join,
    one_sum,
    suspension,
)
from .harness import (
    report_to_json,
    sweep_conjecture,
    verify_identities,
    write_rows_csv,
)


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliInputError(message)


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built on the first main call and reused by every
    later one in the process; importing the module builds nothing. A parse
    keeps no state in the parser, so a reused one parses as a fresh one."""
    parser = _Parser(prog="sepfacets",
                     description="Facet counts of symmetric edge polytopes")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="print the facet count of one graph")
    src = count.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", metavar="S")
    src.add_argument("--edges", metavar="SPEC", help="inline 'n m;i j;i j;...'")
    src.add_argument("--file", metavar="PATH", help="edge-list or graph6 file")
    count.add_argument("--method", default="decomposition",
                       choices=["oracle", "decomposition", "domination", "formula"])

    facets = sub.add_parser("facets", help="list facet-defining labelings")
    src = facets.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", metavar="S")
    src.add_argument("--edges", metavar="SPEC")
    facets.add_argument("--subgraphs", action="store_true",
                        help="also print the cut decomposition table")

    build = sub.add_parser("build", help="construct a graph, emit graph6")
    kind = build.add_mutually_exclusive_group(required=True)
    kind.add_argument("--suspension", metavar="S", help="graph6 of the base")
    kind.add_argument("--join", nargs=2, metavar=("A", "B"),
                      help="graph6 of the two factors")
    kind.add_argument("--one-sum", nargs=4, metavar=("A", "V", "B", "W"),
                      help="graph6 A, vertex of A, graph6 B, vertex of B")

    bounds = sub.add_parser("bounds", help="print the conjectured bracket")
    bounds.add_argument("--n", type=int, required=True)

    verify = sub.add_parser("verify", help="sweep a family against the bounds")
    src = verify.add_mutually_exclusive_group(required=True)
    src.add_argument("--n", type=int)
    src.add_argument("--graph6-file", metavar="PATH")
    verify.add_argument("--identities", action="store_true",
                        help="run the structural identity suites instead")
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--json", metavar="PATH")
    verify.add_argument("--csv", metavar="PATH")

    generate = sub.add_parser("generate",
                              help="list connected isomorphism classes")
    generate.add_argument("--n", type=int, required=True)
    generate.add_argument("--graph6", action="store_true",
                          help="emit graph6 instead of edge specs")
    return parser


def _load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "graph6", None):
        return parse_graph6(args.graph6)
    if getattr(args, "edges", None):
        return parse_edge_spec(args.edges)
    text = Path(args.file).read_text()
    # a graph6 line never starts with a digit or '-'
    if text.lstrip().removeprefix("-")[:1].isdecimal():
        return parse_edge_list(text)
    lines = text.strip().splitlines()
    if len(lines) > 1:
        raise CliInputError("--file holds more than one graph6 line; count takes "
                            "one graph, and verify --graph6-file sweeps many")
    return parse_graph6(text)


def _count(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if args.method == "oracle":
        value = sum(oracle_parity_classes(g).values())
    elif args.method == "decomposition":
        value = count_facets(g)
    elif args.method == "domination":
        apex = next((v for v in range(g.n) if g.adj[v].bit_count() == g.n - 1), None)
        if g.n < 2 or apex is None:
            raise CliInputError("--method domination needs a vertex adjacent to all others")
        value = count_suspension_via_domination(delete_vertex(g, apex))
    else:
        parts = complete_multipartite_parts(g)
        if parts is None or len(parts) < 2:
            raise CliInputError("--method formula needs a complete multipartite graph")
        value = (n_complete_bipartite(*parts) if len(parts) == 2
                 else n_complete_multipartite(parts))
    print(value)
    return 0


def _mask_csv(mask: int) -> str:
    return ",".join(str(v) for v in iter_bits(mask))


def _facets(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    for values in enumerate_facets_oracle(g):
        print(" ".join(map(str, values)))
    if args.subgraphs:
        cuts = enumerate_facet_subgraphs(g)
        print(f"subgraphs {len(cuts)}")
        all_edges = edges(g)
        full = full_mask(g.n)
        for k, (part2, mu) in enumerate(cuts, start=1):
            removed = ",".join(f"{i}-{j}" for i, j in all_edges
                               if not (part2 >> i ^ part2 >> j) & 1) or "-"
            print(f"H{k} V1={{{_mask_csv(full ^ part2)}}} V2={{{_mask_csv(part2)}}} "
                  f"removed={removed} mu={mu}")
        print(f"total {sum(mu for _, mu in cuts)}")
    return 0


def _build(args: argparse.Namespace) -> int:
    if args.suspension:
        result = suspension(parse_graph6(args.suspension))
    elif args.join:
        result = join(parse_graph6(args.join[0]), parse_graph6(args.join[1]))
    else:
        a, v, b, w = args.one_sum
        result = one_sum(parse_graph6(a), int(v), parse_graph6(b), int(w))
    print(emit_graph6(result))
    return 0


def _bounds(args: argparse.Namespace) -> int:
    pair = conjecture_bounds(args.n)
    print(f"n={pair.n} parity={pair.parity} lower={pair.lower} upper={pair.upper}")
    return 0


def _first_parsed_n(lines: list[str]) -> int:
    """Vertex count of the first of the nonempty lines that parses as
    graph6. The sweep reports the lines before it as input errors, like a
    bad line anywhere else; if no line parses, the first line's error is
    raised."""
    errors = []
    for line in lines:
        try:
            return parse_graph6(line).n
        except FormatError as exc:
            errors.append(exc)
    raise errors[0]


def _verify(args: argparse.Namespace) -> int:
    if args.identities:
        if args.graph6_file:
            raise CliInputError("--identities runs on generated families; use --n")
        if args.csv:
            raise CliInputError("--identities has no per-graph rows to write; drop --csv")
        if args.jobs != 1:
            raise CliInputError("--identities runs in one process; drop --jobs")
        report = verify_identities(args.n)
        rows = []
        input_errors: list[tuple[str, str]] = []
        print(f"identities n_max={report.n} checks={report.graphs_checked} "
              f"violations={len(report.violations)}")
    else:
        if args.graph6_file:
            lines = [ln for ln in Path(args.graph6_file).read_text().splitlines()
                     if ln.strip()]
            if not lines:
                raise CliInputError("graph6 file is empty")
            sweep = sweep_conjecture(_first_parsed_n(lines), lines, jobs=args.jobs)
        else:
            sweep = sweep_conjecture(args.n, jobs=args.jobs)
        report = sweep.report
        rows = sweep.rows
        input_errors = sweep.input_errors
        print(f"conjecture n={report.n} graphs_checked={report.graphs_checked} "
              f"violations={len(report.violations)} "
              f"extremal_hits={len(report.extremal_hits)}")
        for hit in report.extremal_hits:
            print(f"hit {hit.graph6} {hit.cls}")
    for v in report.violations:
        print(f"violation {v.graph6} {v.bound} {v.value}")
    for g6, reason in input_errors:
        print(f"input error: {g6}: {reason}", file=sys.stderr)
    print(f"runtime {report.runtime_ms} ms", file=sys.stderr)
    if args.json:
        Path(args.json).write_text(report_to_json(report))
    if args.csv:
        with open(args.csv, "w", newline="") as fp:
            write_rows_csv(rows, fp)
    if report.violations:
        return 2
    if input_errors:
        return 1
    return 0


def _generate(args: argparse.Namespace) -> int:
    for g in generate_connected(args.n):
        print(emit_graph6(g) if args.graph6 else emit_edge_spec(g))
    return 0


_HANDLERS = {
    "count": _count,
    "facets": _facets,
    "build": _build,
    "bounds": _bounds,
    "verify": _verify,
    "generate": _generate,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except (CliInputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
