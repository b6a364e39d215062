"""One workload call in a fresh interpreter, so every sepfacets cache starts cold.

Reads a JSON request on stdin and writes one JSON result on stdout. The
request carries `t_spawn`, the CLOCK_MONOTONIC reading taken by the parent
just before it started this process, so set-up time runs from interpreter
start to the timed call. Run from the root of a sepfacets checkout; the
package is imported from ./src.

Each part of the call is timed between two runs of a fixed reference
computation (reference_time), which measure how fast the machine runs at
that moment; run.py reports each part as a multiple of that reference.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import redirect_stdout

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import sepfacets  # noqa: E402
from sepfacets import canon, cli, facets, formulas, harness  # noqa: E402


def _suite_name(fn) -> str:
    return fn.__name__.removeprefix("check_")


# The reference computation: the benchmark's own labeling counter (checks.py)
# on a fixed 8-cycle with two chords, 306 facets. It is pure-Python bitmask
# code like the program's, takes about 10 ms, and shares no code with it, so
# a change to the program never changes it.
REF_N = 8
REF_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (0, 4), (2, 6))
REF_FACETS = 306


def reference_time() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the reference computation."""
    from checks import facet_count_reference  # imported after set-up is timed

    rows = [0] * REF_N
    for u, v in REF_EDGES:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    w, c = time.perf_counter(), time.process_time()
    facets_counted = facet_count_reference(REF_N, rows)
    w, c = time.perf_counter() - w, time.process_time() - c
    if facets_counted != REF_FACETS:
        raise RuntimeError(f"reference computation counted {facets_counted}, not {REF_FACETS}")
    return w, c


class Parts:
    """Wall and CPU seconds of each part of the timed call, in call order, each
    with the mean wall and CPU seconds of the reference runs just before and
    just after it."""

    def __init__(self) -> None:
        self.times: list[list] = []

    def time(self, label: str, fn, *args, **kwargs):
        rw, rc = reference_time()
        w, c = time.perf_counter(), time.process_time()
        result = fn(*args, **kwargs)
        w, c = time.perf_counter() - w, time.process_time() - c
        rw2, rc2 = reference_time()
        self.times.append([label, w, c, (rw + rw2) / 2, (rc + rc2) / 2])
        return result


def _install_suite_counters(suites_seen: list, parts: Parts, tracer) -> None:
    """Time each identity suite and record its check count as verify_identities runs it."""

    def counted(suite):
        name = _suite_name(suite)
        inner = suite
        if tracer is not None:
            from tracing import SUITE_PREFIX

            inner = tracer.wrap(SUITE_PREFIX + name, suite)

        def run(n_max):
            checked, bad = parts.time(name, inner, n_max)
            suites_seen.append([name, checked, len(bad)])
            return checked, bad

        return run

    harness.IDENTITY_SUITES = tuple(counted(s) for s in harness.IDENTITY_SUITES)


def _count(main, graph6: str) -> list:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["count", "--graph6", graph6])
    return [rc, buf.getvalue().strip()]


def run_workload(req: dict, tracer) -> tuple[Parts, int, dict]:
    """The timed call, split into parts. Returns the parts, the items and the outputs.

    sweep8 sweeps its graphs in chunks of params["chunk"], identities6 is
    split at its suites and count_large at its graphs, so that a run can time
    each part across many calls.
    """
    name, p, inputs = req["workload"], req["params"], req["inputs"]
    sweep = harness.sweep_conjecture
    generate = sepfacets.generate_connected
    emit = sepfacets.emit_graph6
    main = cli.main
    if tracer is not None:
        sweep = tracer.wrap("harness.sweep", sweep)
        generate = tracer.wrap("canon.generate", generate)
        emit = tracer.wrap("formats.emit_graph6", emit)
        main = tracer.wrap("cli.main", main)
    parts = Parts()

    if name == "sweep8":
        chunk = req.get("chunk") or p["chunk"]
        out = {"counts": [], "violations": [], "input_errors": 0}
        for k in range(0, len(inputs), chunk):
            result = parts.time(f"graphs{k}", sweep, p["n"], inputs[k:k + chunk],
                                jobs=req.get("jobs", 1))
            out["counts"] += [row.facet_count for row in result.rows]
            out["violations"] += [v.graph6 for v in result.report.violations]
            out["input_errors"] += len(result.input_errors)
        items = len(inputs)
    elif name == "generate7":
        classes = parts.time("generate", lambda: list(generate(p["n"])))
        out = {"graph6": parts.time("emit", lambda: [emit(g) for g in classes])}
        items = len(classes)
    elif name == "identities6":
        suites: list = []
        _install_suite_counters(suites, parts, tracer)
        report = harness.verify_identities(p["n_max"])
        out = {"checks": report.graphs_checked, "violations": len(report.violations),
               "suites": suites}
        items = report.graphs_checked
    else:
        out = {"runs": [parts.time(item["name"], _count, main, item["graph6"])
                        for item in inputs]}
        items = len(inputs)
    return parts, items, out


def cache_hit_ratio() -> float:
    info = harness.cached_count_facets.cache_info()
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


def peak_rss_mb() -> float:
    """This process's own peak RSS. ru_maxrss is not used: Linux carries the
    parent's high-water mark across exec, so a child started by a larger
    parent would report the parent's peak."""
    with open("/proc/self/status") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    req = json.load(sys.stdin)
    t_start = time.monotonic()
    reply = {"setup_s": t_start - req["t_spawn"], "package": sepfacets.__file__}
    # The first reference run pays one-time costs; the second is the set-up's reference.
    reference_time()
    reply["setup_reference_s"] = reference_time()[0]
    if not req.get("setup_only"):
        tracer = None
        if req.get("trace"):
            import tracing  # only traced runs pay for importing it

            tracer = tracing.Tracer()
            tracer.install({"canon": canon, "cli": cli, "facets": facets,
                            "formulas": formulas, "harness": harness})
        parts, items, out = run_workload(req, tracer)
        reply.update(parts=parts.times, items=items, output=out,
                     wall_s=sum(w for _, w, _, _, _ in parts.times),
                     cpu_s=sum(c for _, _, c, _, _ in parts.times))
        if tracer is not None:
            tracer.uninstall()
            layers = tracing.layer_metrics(tracer)
            layers["harness.count_cache_hit_ratio"] = cache_hit_ratio()
            reply["layers"] = layers
            if req.get("spans_path"):
                tracer.write(req["spans_path"])
    reply["peak_rss_mb"] = peak_rss_mb()
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
