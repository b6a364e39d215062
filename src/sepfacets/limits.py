"""Size caps: every upper bound on a vertex count is set here.

Three caps follow one rule: each is its default, raised to the environment
variable SEP_MAX_N when that is larger. SEP_MAX_N never lowers a cap, so
setting it can only let more inputs through (memory and time grow fast).

* max_vertices: any Graph, default 64 (vertex sets are bitmasks).
* generator_limit: the isomorph-free generator and the identity sweep that
  runs over its families, default 7.
* canonical_limit: canonical_form, a level-by-level search over the tied
  prefixes of degree-sorted vertex orderings that skips swaps of twin
  vertices, default 10.

Two caps are fixed, whatever SEP_MAX_N says: MAX_SCAN_VERTICES for the cut
and vertex-subset scans, a budget of about 2^32 candidates, and
MAX_ORACLE_VERTICES for the labeling oracle and for count_bipartite_strict,
which runs the oracle's labeler over 2^(n-1) sign choices.
"""

import os

DEFAULT_MAX_VERTICES = 64
DEFAULT_GENERATOR_LIMIT = 7
DEFAULT_CANONICAL_LIMIT = 10

# Largest vertex count of one cut scan or vertex-subset scan (dominating sets,
# subgraph_component_value) in facets.py.
# A scan over n vertices visits 2^(n-1) cuts or 2^n sets, 2^12 at a time in
# the bit lanes of big-int masks (the reference cut scan behind
# enumerate_facet_subgraphs one cut at a time): the 2^28 sets of a 28-vertex
# cycle take about 2.5 s. A larger scan (2^32 sets or more) is refused.
# Joins, trees and 1-sums of small blocks are counted without a scan this
# large.
MAX_SCAN_VERTICES = 32

# Largest vertex count of enumerate_facets_oracle, which tries 3^(n-1)
# labelings: 3^20 < 2^32 <= 3^21, the scans' budget. count_bipartite_strict
# takes the same cap: its labeler visits every leaf in Python, and a tree
# has 2^(n-1) of them, 2^11 times more at 32 vertices than at 21.
MAX_ORACLE_VERTICES = 21


def _raised(default: int) -> int:
    """default, or SEP_MAX_N when that is larger."""
    raw = os.environ.get("SEP_MAX_N")
    if raw is None:
        return default
    try:
        return max(default, int(raw))
    except ValueError:
        raise ValueError(f"SEP_MAX_N must be an integer, got {raw!r}") from None


def max_vertices() -> int:
    """Largest permitted vertex count for any Graph."""
    return _raised(DEFAULT_MAX_VERTICES)


def generator_limit() -> int:
    """Largest n served by the isomorph-free generator and the identity sweep."""
    return _raised(DEFAULT_GENERATOR_LIMIT)


def canonical_limit() -> int:
    """Largest n accepted by canonical_form, whose ordering search is exponential in n."""
    return _raised(DEFAULT_CANONICAL_LIMIT)
