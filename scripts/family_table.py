#!/usr/bin/env python3
"""Print facet counts of named graph families next to the conjectured bounds.

Usage:
    python scripts/family_table.py [--n-max 8]

Families: complete, balanced complete bipartite, star, cycle, path, and the
triangle 1-sum / K4-plus-triangles maximizers of matching parity. Counts come
from the cut decomposition; closed forms are shown where one exists.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sepfacets.facets import count_facets
from sepfacets.formulas import (
    K4_PLUS_TRIANGLES,
    ONE_SUM_OF_TRIANGLES,
    classify_extremal,
    conjecture_bounds,
    is_conjectured_maximizer,
    n_complete_bipartite,
)
from sepfacets.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    one_sum,
    path_graph,
    star_graph,
)


def max_family(n):
    """The conjectured maximizer on n vertices (n >= 3)."""
    if n % 2:
        g = complete_graph(3)
        for _ in range((n - 1) // 2 - 1):
            g = one_sum(g, 0, complete_graph(3), 0)
        return g
    g = complete_graph(4)
    for _ in range(n // 2 - 2):
        g = one_sum(g, 0, complete_graph(3), 0)
    return g


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=8)
    args = parser.parse_args()

    header = (f"{'n':>2} {'lower':>6} {'K_bal':>6} {'star':>6} {'path':>6} "
              f"{'cycle':>6} {'K_n':>6} {'max fam':>8} {'upper':>8}")
    print(header)
    for n in range(3, args.n_max + 1):
        bounds = conjecture_bounds(n)
        balanced = n_complete_bipartite(n // 2, (n + 1) // 2)
        assert balanced == count_facets(complete_bipartite(n // 2, (n + 1) // 2))
        top = max_family(n)
        assert is_conjectured_maximizer(top)
        tag = ONE_SUM_OF_TRIANGLES if n % 2 else K4_PLUS_TRIANGLES
        assert classify_extremal(top) == tag
        row = [
            f"{n:>2}",
            f"{bounds.lower:>6}",
            f"{balanced:>6}",
            f"{count_facets(star_graph(n)):>6}",
            f"{count_facets(path_graph(n)):>6}",
            f"{count_facets(cycle_graph(n)):>6}",
            f"{count_facets(complete_graph(n)):>6}",
            f"{count_facets(top):>8}",
            f"{bounds.upper:>8}",
        ]
        print(" ".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
