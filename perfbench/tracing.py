"""In-memory spans around sepfacets' public functions, and the layer metrics they give.

A span is (name, start, end, parent, note). Spans are opened by wrappers that
the benchmark installs on module attributes of sepfacets in the traced worker
process only; the program's files are not touched. Each wrapper replaces the
name in the module whose code looks it up, so calls made inside the program
are seen too (harness calls `count_facets` through its own namespace, for
example).
"""

from __future__ import annotations

import gzip
import json
import statistics
from time import perf_counter

# (module, attribute, span name, note kind). The note records what a counter
# needs from the call: the input size (n), the result, or both.
HOOKS = (
    ("canon", "canonical_form", "canon.canonical_form", "result"),
    ("harness", "generate_connected", "canon.generate", None),
    ("harness", "generate_all", "canon.generate", None),
    ("harness", "count_facets", "facets.cut_scan", "n"),
    ("cli", "count_facets", "facets.cut_scan", "n"),
    ("harness", "enumerate_facet_subgraphs", "facets.cut_scan", "n"),
    ("facets", "count_bipartite_strict", "facets.strict", "n_result"),
    ("facets", "contract_edges", "graphs.contract", None),
    ("harness", "enumerate_facets_oracle", "facets.oracle", "n_len"),
    ("harness", "count_suspension_via_domination", "facets.domination", None),
    ("harness", "suspension", "graphs.construct", None),
    ("harness", "join", "graphs.construct", None),
    ("harness", "one_sum", "graphs.construct", None),
    ("formulas", "suspension", "graphs.construct", None),
    ("harness", "parse_graph6", "formats.parse_graph6", None),
    ("cli", "parse_graph6", "formats.parse_graph6", None),
    ("harness", "emit_graph6", "formats.emit_graph6", None),
    ("harness", "classify_extremal", "formulas.classify", None),
)

SUITE_PREFIX = "harness.suite."


def _note(kind, args, result):
    if kind == "n":
        return args[0].n
    if kind == "n_result":
        return (args[0].n, result)
    if kind == "n_len":
        return (args[0].n, len(result))
    return result


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: list = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note: str | None = None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, notes, stack = self.parents, self.notes, self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            notes.append(None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if note is not None:
                notes[idx] = _note(note, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        for mod_name, attr, name, note in HOOKS:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, note))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines, written once the run is over."""
        with gzip.open(path, "wt") as fp:
            for i, name in enumerate(self.names):
                fp.write(json.dumps([i, name, self.starts[i], self.ends[i],
                                     self.parents[i]]) + "\n")


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer totals, self times and work counters from the recorded spans."""
    n_spans = len(tr.names)
    child_time = [0.0] * n_spans
    for i in range(n_spans):
        p = tr.parents[i]
        if p >= 0:
            child_time[p] += tr.ends[i] - tr.starts[i]

    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, name in enumerate(tr.names):
        dur = tr.ends[i] - tr.starts[i]
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child_time[i]
        calls[name] = calls.get(name, 0) + 1

    scans = [i for i, name in enumerate(tr.names) if name == "facets.cut_scan"]
    scan_set = set(scans)
    cuts_scanned = sum((1 << (tr.notes[i] - 1)) - 1 for i in scans)
    strict = [i for i, name in enumerate(tr.names) if name == "facets.strict"]
    cuts_accepted = sum(1 for i in strict if tr.parents[i] in scan_set)
    q_sizes = sorted(tr.notes[i][0] for i in strict)
    strict_candidates = sum(1 << (q - 1) for q in q_sizes)
    strict_facets = sum(tr.notes[i][1] for i in strict)
    oracle = [tr.notes[i] for i, name in enumerate(tr.names) if name == "facets.oracle"]
    oracle_candidates = sum(3 ** (n - 1) for n, _ in oracle)
    forms = [i for i, name in enumerate(tr.names) if name == "canon.canonical_form"]
    form_ms = sorted((tr.ends[i] - tr.starts[i]) * 1000.0 for i in forms)

    def ratio(a: int, b: int) -> float:
        return a / b if b else 0.0

    out = {
        "canon.generate_s": total.get("canon.generate", 0.0),
        "canon.canonical_form_calls": len(forms),
        "canon.classes_per_form": ratio(len({tr.notes[i] for i in forms}), len(forms)),
        "canon.canonical_form_ms.p50": _percentile(form_ms, 0.50),
        "canon.canonical_form_ms.p99": _percentile(form_ms, 0.99),
        "facets.cut_scan_self_s": self_time.get("facets.cut_scan", 0.0),
        "facets.cuts_scanned": cuts_scanned,
        "facets.cuts_accepted": cuts_accepted,
        "facets.cut_accept_ratio": ratio(cuts_accepted, cuts_scanned),
        "facets.strict_s": total.get("facets.strict", 0.0),
        "facets.strict_candidates": strict_candidates,
        "facets.strict_accept_ratio": ratio(strict_facets, strict_candidates),
        "facets.quotient_size.p50": statistics.median_low(q_sizes) if q_sizes else 0,
        "facets.quotient_size.max": q_sizes[-1] if q_sizes else 0,
        "facets.oracle_s": total.get("facets.oracle", 0.0),
        "facets.oracle_candidates": oracle_candidates,
        "facets.oracle_accept_ratio": ratio(sum(k for _, k in oracle), oracle_candidates),
        "facets.domination_s": total.get("facets.domination", 0.0),
        "graphs.contract_s": total.get("graphs.contract", 0.0),
        "graphs.quotients_built": calls.get("graphs.contract", 0),
        "graphs.construct_s": total.get("graphs.construct", 0.0),
        "formats.parse_graph6_s": total.get("formats.parse_graph6", 0.0),
        "formats.emit_graph6_s": total.get("formats.emit_graph6", 0.0),
        "formulas.classify_s": total.get("formulas.classify", 0.0),
        "harness.sweep_self_s": self_time.get("harness.sweep", 0.0),
        "cli.count_self_s": self_time.get("cli.main", 0.0),
        "trace.spans": n_spans,
    }
    for name, value in total.items():
        if name.startswith(SUITE_PREFIX):
            out[name + "_s"] = value
    return out
