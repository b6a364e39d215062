"""Seeded workload inputs and a graph6 codec that shares no code with sepfacets.

Graphs are (n, rows) pairs where rows[v] is the adjacency bitmask of v. The
program only ever receives the graph6 strings built here, so a workload's
inputs depend on nothing but its parameters and the seed.
"""

from __future__ import annotations

import random

GENERATOR = ("random.Random(seed): sweep8 G(n, p) with p ~ U(lo, hi), count_large "
             "G(n, m) with m edges drawn uniformly; each redrawn until connected")

# A second seed, never used while tuning the benchmark, for confirming a
# claimed gain on inputs the change was not written against.
CONFIRM_SEED = 9173

# Each workload call takes 0.5 to 4 s and splits into parts of at most about
# 1 s, so that a run holds many calls and each part is timed many times.
# count_large draws its random graphs with a fixed edge count, and six of the
# sparse ones, because the cost of a sparse graph varies widely from seed to
# seed (by 46 % of the mean at G(14, 0.3), 21 % at 24 edges on 13 vertices);
# the sparse ones give the largest quotients.
FULL = {
    "sweep8": {"n": 8, "graphs": 1000, "chunk": 50, "p_lo": 0.25, "p_hi": 0.95},
    "generate7": {"n": 7},
    "identities6": {"n_max": 6},
    "count_large": {"complete": 14, "triangles": [13, 15],
                    "random": [[13, 47]] * 2 + [[13, 24]] * 6},
}

# Same code paths at a size that finishes in well under a second, for the self-tests.
TINY = {
    "sweep8": {"n": 8, "graphs": 40, "chunk": 10, "p_lo": 0.25, "p_hi": 0.95},
    "generate7": {"n": 5},
    "identities6": {"n_max": 4},
    "count_large": {"complete": 8, "triangles": [7, 9], "random": [[8, 14], [8, 9]]},
}


def encode_graph6(n: int, rows: list[int]) -> str:
    """graph6 for n < 63: one size byte, then the upper triangle column by column."""
    if not 1 <= n < 63:
        raise ValueError(f"encoder handles 1 <= n < 63, got {n}")
    bits = [rows[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = value << 1 | b
        out.append(chr(value + 63))
    return "".join(out)


def decode_graph6(s: str) -> tuple[int, list[int]]:
    n = ord(s[0]) - 63
    if not 1 <= n < 63:
        raise ValueError(f"unsupported graph6 size byte in {s!r}")
    need = (n * (n - 1) // 2 + 5) // 6
    body = [ord(ch) - 63 for ch in s[1:]]
    if len(body) != need or any(not 0 <= b < 64 for b in body):
        raise ValueError(f"malformed graph6 body in {s!r}")
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if body[k // 6] >> (5 - k % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return n, rows


def is_connected(n: int, rows: list[int]) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        grown = 0
        v = 0
        while frontier >> v:
            if frontier >> v & 1:
                grown |= rows[v]
            v += 1
        frontier = grown & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def random_connected(rng: random.Random, n: int, p: float) -> list[int]:
    while True:
        rows = [0] * n
        for j in range(1, n):
            for i in range(j):
                if rng.random() < p:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        if is_connected(n, rows):
            return rows


def random_connected_edges(rng: random.Random, n: int, m: int) -> list[int]:
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    while True:
        rows = [0] * n
        for i, j in rng.sample(pairs, m):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        if is_connected(n, rows):
            return rows


def complete(n: int) -> list[int]:
    full = (1 << n) - 1
    return [full ^ (1 << v) for v in range(n)]


def triangle_one_sum(rng: random.Random, n: int) -> list[int]:
    """(n - 1) / 2 triangles, each glued at one vertex to a random earlier vertex."""
    if n % 2 == 0 or n < 3:
        raise ValueError(f"a 1-sum of triangles has odd n >= 3, got {n}")
    rows = [0] * n
    triangles = [(0, 1, 2)] + [(rng.randrange(a), a, a + 1) for a in range(3, n, 2)]
    for a, b, c in triangles:
        rows[a] |= 1 << b | 1 << c
        rows[b] |= 1 << a | 1 << c
        rows[c] |= 1 << a | 1 << b
    return rows


def sweep8_inputs(seed: int, p: dict) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(p["graphs"]):
        density = rng.uniform(p["p_lo"], p["p_hi"])
        out.append(encode_graph6(p["n"], random_connected(rng, p["n"], density)))
    return out


def count_large_inputs(seed: int, p: dict) -> list[dict]:
    """Fixed-size graphs for `sepfacets count`, each tagged with what its count must be."""
    rng = random.Random(seed)
    k = p["complete"]
    out = [{"name": f"K{k}", "graph6": encode_graph6(k, complete(k)),
            "expect": 2 ** k - 2}]
    for n in p["triangles"]:
        out.append({"name": f"triangles{n}",
                    "graph6": encode_graph6(n, triangle_one_sum(rng, n)),
                    "expect": 6 ** ((n - 1) // 2)})
    for k, (n, m) in enumerate(p["random"]):
        out.append({"name": f"G({n},m={m})#{k}",
                    "graph6": encode_graph6(n, random_connected_edges(rng, n, m)),
                    "expect": None})
    return out


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """Parameters and generated inputs of one workload, as sent to the worker."""
    params = (TINY if size == "tiny" else FULL)[workload]
    if workload == "sweep8":
        inputs = sweep8_inputs(seed, params)
    elif workload == "count_large":
        inputs = count_large_inputs(seed, params)
    else:
        inputs = None
    return {"workload": workload, "params": params, "inputs": inputs}
