#!/usr/bin/env python3
"""Sweep the conjectured facet-count bounds over all connected classes.

Usage:
    python scripts/conjecture_sweep.py [--n-min 3] [--n-max 7] [--jobs K]
                                       [--out-dir reports/]

Writes one JSON report and one CSV table per n when --out-dir is given, and
prints a summary row per n either way. Exit status 2 if any sweep found a
violation (none are expected below 8 vertices), and 1 with an
"error: ..." line on stderr for an input the sweep refuses, such as n above
the generator cap (raise it with SEP_MAX_N).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sepfacets.formulas import conjecture_bounds
from sepfacets.harness import report_to_json, sweep_conjecture, write_rows_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-min", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out-dir", type=str, default=None)
    args = parser.parse_args()
    try:
        return sweep(args)
    except ValueError as exc:  # GraphError included, as in the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 1


def sweep(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'n':>2} {'classes':>8} {'lower':>6} {'upper':>8} "
          f"{'min hits':>8} {'max hits':>8} {'violations':>10} {'sec':>7}")
    any_violation = False
    for n in range(args.n_min, args.n_max + 1):
        start = time.monotonic()
        sweep = sweep_conjecture(n, jobs=args.jobs)
        elapsed = time.monotonic() - start
        bounds = conjecture_bounds(n)
        min_hits = sum(1 for r in sweep.rows if r.facet_count == bounds.lower)
        max_hits = sum(1 for r in sweep.rows if r.facet_count == bounds.upper)
        report = sweep.report
        print(f"{n:>2} {report.graphs_checked:>8} {bounds.lower:>6} "
              f"{bounds.upper:>8} {min_hits:>8} {max_hits:>8} "
              f"{len(report.violations):>10} {elapsed:>7.2f}")
        any_violation = any_violation or bool(report.violations)
        if out_dir:
            (out_dir / f"conjecture_n{n}.json").write_text(report_to_json(report))
            with open(out_dir / f"conjecture_n{n}.csv", "w", newline="") as fp:
                write_rows_csv(sweep.rows, fp)
    return 2 if any_violation else 0


if __name__ == "__main__":
    sys.exit(main())
