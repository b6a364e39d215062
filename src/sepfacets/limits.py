"""Size caps for graphs and the internal generator.

Everything is tuned for desk-scale experiments: vertex sets are bitmasks,
the generator enumerates isomorphism classes exhaustively, and canonical
forms are found by a branch-and-bound search over degree-sorted vertex
orderings that skips swaps of twin vertices. Both grow exponentially with
n (n = 8 takes a few seconds), so the caps keep those paths honest.
SEP_MAX_N lifts them at your own risk (memory and time grow fast). The
facet scans have a fixed cap, MAX_SCAN_VERTICES, that SEP_MAX_N does not
change.
"""

import os

DEFAULT_MAX_VERTICES = 64
DEFAULT_GENERATOR_LIMIT = 7
DEFAULT_CANONICAL_LIMIT = 10

# Largest vertex count of one cut scan or dominating-set scan in facets.py.
# A scan over n vertices visits 2^(n-1) cuts or 2^n sets, so a larger one
# (2^32 sets or more) could not finish and is refused. Joins, trees and
# 1-sums of small blocks are counted without a scan this large.
MAX_SCAN_VERTICES = 32

_ENV_VAR = "SEP_MAX_N"


def _env_override() -> int | None:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{_ENV_VAR} must be positive, got {value}")
    return value


def max_vertices() -> int:
    """Largest permitted vertex count for any Graph."""
    override = _env_override()
    if override is not None:
        return max(override, DEFAULT_MAX_VERTICES)
    return DEFAULT_MAX_VERTICES


def generator_limit() -> int:
    """Largest n served by the internal isomorph-free generator."""
    override = _env_override()
    if override is not None:
        return override
    return DEFAULT_GENERATOR_LIMIT


def canonical_limit() -> int:
    """Largest n accepted by canonical_form, whose ordering search is exponential in n."""
    return max(DEFAULT_CANONICAL_LIMIT, generator_limit())
