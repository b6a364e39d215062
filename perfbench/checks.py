"""Correctness gates for each workload, built on references outside sepfacets.

Nothing here imports sepfacets. The references are the paper's closed forms,
OEIS A001349, the conjectured bracket written out from its formula, parity
(facets of a centrally symmetric polytope come in pairs), a labeling counter
and an isomorphism test written for this file, and reference.json: the
identity suites' check counts, and values recorded from the program when the
benchmark was added (sweep8 count digests and count_large random-graph
counts, checked only for the seeds listed there; for other seeds the
labeling counter recounts the count_large random graphs). Each gate returns
(attempted, failed, notes): the number of results it judged and how many
were wrong or missing.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from inputs import decode_graph6, is_connected

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Connected graphs on n unlabeled vertices, n = 0..9 (OEIS A001349).
A001349 = (1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080)

# sweep8 graphs recounted by the labeling reference in each run.
SWEEP_SAMPLE = 100


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fp:
        return json.load(fp)


def bracket(n: int) -> tuple[int, int]:
    """The conjectured facet-count bracket for connected graphs on n >= 3 vertices."""
    if n % 2:
        return 3 * 2 ** ((n - 1) // 2) - 2, 6 ** ((n - 1) // 2)
    return 2 ** (n // 2 + 1) - 2, 14 * 6 ** (n // 2 - 2)


def facet_count_reference(n: int, rows: list[int]) -> int:
    """Labelings f with f(0) = 0, |f(u) - f(v)| <= 1 on edges, whose strict
    edges reach every vertex from vertex 0 (Higashitani, Jochemko & Michalek).

    Labels are assigned depth-first in BFS order of the graph, so every
    vertex after 0 has a labeled neighbour to stay within one of.
    """
    order, parent = [0], [-1] * n
    seen = 1
    for u in order:
        for v in range(n):
            if rows[u] >> v & 1 and not seen >> v & 1:
                seen |= 1 << v
                parent[v] = u
                order.append(v)
    earlier = [[u for u in order[:k] if rows[v] >> u & 1] for k, v in enumerate(order)]
    label = [0] * n
    full = (1 << n) - 1

    def spans() -> bool:
        reached, frontier = 1, 1
        while frontier:
            grown = 0
            for u in range(n):
                if frontier >> u & 1:
                    for v in range(n):
                        if rows[u] >> v & 1 and label[u] != label[v]:
                            grown |= 1 << v
            frontier = grown & ~reached
            reached |= frontier
        return reached == full

    def extend(k: int) -> int:
        if k == n:
            return 1 if spans() else 0
        v = order[k]
        total = 0
        for x in (label[parent[v]] - 1, label[parent[v]], label[parent[v]] + 1):
            if all(abs(label[u] - x) <= 1 for u in earlier[k]):
                label[v] = x
                total += extend(k + 1)
        return total

    return extend(1)


def _wl_colours(graphs: list[tuple[int, list[int]]], rounds: int = 3) -> list[list[int]]:
    """Colour refinement with one palette shared by all graphs, so that equal
    colour multisets are comparable across graphs."""
    palette: dict = {}
    colours = [[rows[v].bit_count() for v in range(n)] for n, rows in graphs]
    for r in range(rounds):
        for k, (n, rows) in enumerate(graphs):
            c = colours[k]
            colours[k] = [palette.setdefault(
                (r, c[v], tuple(sorted(c[u] for u in range(n) if rows[v] >> u & 1))),
                len(palette)) for v in range(n)]
    return colours


def _isomorphic(a: list[int], ca: list[int], b: list[int], cb: list[int]) -> bool:
    """Backtracking isomorphism test that maps vertices only to equal colours."""
    n = len(a)
    image = [-1] * n
    used = [False] * n

    def place(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or cb[w] != ca[v]:
                continue
            if all((a[v] >> u & 1) == (b[w] >> image[u] & 1) for u in range(v)):
                image[v], used[w] = w, True
                if place(v + 1):
                    return True
                used[w] = False
        return False

    return place(0)


def duplicate_classes(graphs: list[tuple[int, list[int]]]) -> int:
    """How many graphs are isomorphic to an earlier graph in the list."""
    colours = _wl_colours(graphs)
    buckets: dict[tuple, list[int]] = {}
    for k, c in enumerate(colours):
        buckets.setdefault(tuple(sorted(c)), []).append(k)
    duplicates = 0
    for members in buckets.values():
        kept: list[int] = []
        for k in members:
            if any(_isomorphic(graphs[k][1], colours[k], graphs[j][1], colours[j])
                   for j in kept):
                duplicates += 1
            else:
                kept.append(k)
    return duplicates


def digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


def check_sweep8(req: dict, out: dict, seed: int, ref: dict) -> tuple[int, int, dict]:
    lines, counts = req["inputs"], out["counts"]
    n = req["params"]["n"]
    lower, upper = bracket(n)
    bad = {i for i, c in enumerate(counts)
           if not isinstance(c, int) or not lower <= c <= upper or c % 2}
    bad |= set(range(len(counts), len(lines)))
    flagged = set(out["violations"])
    bad |= {i for i, g6 in enumerate(lines) if g6 in flagged}
    rng = random.Random(f"sweep8-sample-{seed}")
    sample = rng.sample(range(len(lines)), min(SWEEP_SAMPLE, len(lines)))
    for i in sample:
        if i < len(counts) and counts[i] != facet_count_reference(*decode_graph6(lines[i])):
            bad.add(i)
    notes = {"digest": digest(counts), "sample_checked": len(sample),
             "input_errors": out["input_errors"]}
    pinned = ref.get("sweep8_digests", {}).get(f"{len(lines)}:{seed}")
    if pinned is not None:
        notes["pinned_digest"] = pinned
    failed = len(bad)
    if pinned is not None and pinned != notes["digest"] and not failed:
        failed = 1
    return len(lines), failed, notes


def check_generate7(req: dict, out: dict) -> tuple[int, int, dict]:
    n = req["params"]["n"]
    expected = A001349[n]
    graphs, malformed = [], 0
    for g6 in out["graph6"]:
        try:
            m, rows = decode_graph6(g6)
        except (ValueError, IndexError):
            malformed += 1
            continue
        if m != n or not is_connected(m, rows):
            malformed += 1
        else:
            graphs.append((m, rows))
    duplicates = duplicate_classes(graphs)
    distinct = len(graphs) - duplicates
    failed = malformed + duplicates + max(0, expected - distinct)
    notes = {"classes": len(out["graph6"]), "expected": expected,
             "malformed_or_disconnected": malformed, "isomorphic_duplicates": duplicates,
             "digest": digest(out["graph6"])}
    return max(expected, len(out["graph6"])), failed, notes


def check_identities6(req: dict, out: dict, ref: dict) -> tuple[int, int, dict]:
    pinned = ref["identity_checks"][str(req["params"]["n_max"])]
    got = {name: checked for name, checked, _ in out["suites"]}
    violations = sum(bad for _, _, bad in out["suites"])
    failed = violations + sum(abs(pinned[name] - got.get(name, 0)) for name in pinned)
    failed += sum(checked for name, checked in got.items() if name not in pinned)
    if out["checks"] != sum(got.values()) or out["violations"] != violations:
        failed += 1
    attempted = max(sum(pinned.values()), out["checks"])
    notes = {"checks": out["checks"], "violations": out["violations"], "suites": got}
    return attempted, failed, notes


def check_count_large(req: dict, out: dict, seed: int, ref: dict) -> tuple[int, int, dict]:
    pins = ref.get("count_large_random", {}).get(str(seed), {})
    failed = 0
    counts = {}
    for item, (rc, text) in zip(req["inputs"], out["runs"]):
        n = ord(item["graph6"][0]) - 63
        lower, upper = bracket(n)
        try:
            value = int(text)
        except ValueError:
            value = None
        counts[item["name"]] = value
        expect = item["expect"] if item["expect"] is not None else pins.get(item["name"])
        if expect is None:
            # A random graph of a seed without pins is recounted here (under 1 s each).
            expect = facet_count_reference(*decode_graph6(item["graph6"]))
        ok = (rc == 0 and value is not None and lower <= value <= upper
              and value % 2 == 0 and value == expect)
        failed += not ok
    failed += max(0, len(req["inputs"]) - len(out["runs"]))
    return len(req["inputs"]), failed, {"counts": counts}


def check(req: dict, out: dict, seed: int) -> tuple[int, int, dict]:
    ref = load_reference()
    workload = req["workload"]
    if workload == "sweep8":
        return check_sweep8(req, out, seed, ref)
    if workload == "generate7":
        return check_generate7(req, out)
    if workload == "identities6":
        return check_identities6(req, out, ref)
    return check_count_large(req, out, seed, ref)
