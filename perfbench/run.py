"""The sepfacets benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload sweep8 --seed 1 --seconds 28 --trace 0

Run it from the root of a sepfacets checkout. Each workload call runs in a
new worker process (perfbench/worker.py), so the program's caches start cold
as they do for a user, with a single client calling in a closed loop. With
--trace 0 the workload is repeated for --seconds and each part of the call
is reported as its median across the calls, in units of a reference
computation timed beside it (see README.md for why). With
--trace 1 untraced calls alternate with calls traced by spans around each
layer, and the per-layer metrics and the tracing overhead are reported.
Every output is checked (checks.py).

The last line of stdout is {"correct", "attempted", "failed", "metrics"}. The
line before it holds the full record: provenance, seed, generator, every
sample and the check notes; a copy goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import checks
from inputs import CONFIRM_SEED, GENERATOR, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".bench_out"
WORKLOADS = ("sweep8", "generate7", "identities6", "count_large")

# setup_s is in seconds at this reference speed: the reference computation
# (worker.reference_time) takes about 8 ms on an unloaded 2-vCPU Intel Xeon
# host with Python 3.11, so setup_s reads as seconds on such a host.
REF_SPEED_S = 0.008

# Untraced/traced call pairs in a --trace 1 run.
TRACE_ROUNDS = 2
# The whole run must end within 180 s; no worker may outlive this.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "items_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SUITES = tuple(checks.load_reference()["identity_checks"]["6"])

PER_LAYER = {
    "canon.generate_s": "s",
    "canon.canonical_form_calls": "count",
    "canon.classes_per_form": "ratio",
    "canon.canonical_form_ms.p50": "ms",
    "canon.canonical_form_ms.p99": "ms",
    "facets.cut_scan_self_s": "s",
    "facets.cuts_scanned": "count",
    "facets.cuts_accepted": "count",
    "facets.cut_accept_ratio": "ratio",
    "facets.strict_s": "s",
    "facets.strict_candidates": "count",
    "facets.strict_accept_ratio": "ratio",
    "facets.quotient_size.p50": "vertices",
    "facets.quotient_size.max": "vertices",
    "facets.oracle_s": "s",
    "facets.oracle_candidates": "count",
    "facets.oracle_accept_ratio": "ratio",
    "facets.domination_s": "s",
    "graphs.contract_s": "s",
    "graphs.quotients_built": "count",
    "graphs.construct_s": "s",
    "formats.parse_graph6_s": "s",
    "formats.emit_graph6_s": "s",
    "formulas.classify_s": "s",
    "harness.sweep_self_s": "s",
    **{f"harness.suite.{name}_s": "s" for name in SUITES},
    **{f"harness.suite.{name}.checks": "count" for name in SUITES},
    "harness.count_cache_hit_ratio": "ratio",
    "harness.pool.efficiency": "ratio",
    "cli.count_self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    try:
        with open(os.path.join(".git", "HEAD")) as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fp:
                return fp.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def worker_env() -> dict:
    """The caller's environment with hashing pinned and the size caps at their defaults."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("SEP_MAX_N", None)
    return env


def spawn(req: dict, env: dict, deadline: float, **extra) -> dict:
    """Run one worker to completion and return its reply."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True)
    try:
        out, err = proc.communicate(json.dumps(dict(req, t_spawn=t_spawn, **extra)),
                                    timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish within the run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err[-4000:]}")
    reply = json.loads(out)
    src = os.path.realpath("src")
    if not os.path.realpath(reply["package"]).startswith(src + os.sep):
        raise BenchError(f"worker imported sepfacets from {reply['package']}, not ./src")
    reply["process_s"] = time.monotonic() - t_spawn
    return reply


class Verdicts:
    """Checks each distinct output once; repeated identical outputs reuse the verdict."""

    def __init__(self, req: dict, seed: int) -> None:
        self.req, self.seed = req, seed
        self.attempted = self.failed = 0
        self.notes: list[dict] = []
        self._seen: dict[str, tuple[int, int]] = {}

    def add(self, output: dict) -> None:
        key = json.dumps(output, sort_keys=True)
        if key not in self._seen:
            attempted, failed, notes = checks.check(self.req, output, self.seed)
            self._seen[key] = (attempted, failed)
            self.notes.append(notes)
        attempted, failed = self._seen[key]
        self.attempted += attempted
        self.failed += failed


def timed_run(req: dict, env: dict, seconds: int, verdicts: Verdicts, limit: float) -> tuple[dict, dict]:
    start = time.monotonic()
    samples, setups, longest = [], [], 0.0
    while True:
        # Set-up is cheap, so each call also gets a worker that only sets up.
        setups.append(spawn(req, env, limit, setup_only=True))
        reply = spawn(req, env, limit)
        verdicts.add(reply.pop("output"))
        samples.append(reply)
        longest = max(longest, reply["process_s"])
        if time.monotonic() + longest > start + seconds:
            break
    setups = [(s["setup_s"], s["setup_reference_s"]) for s in setups + samples]
    labels = [part[0] for part in samples[0]["parts"]]
    by_label = [{part[0]: part[1:] for part in s["parts"]} for s in samples]

    def per_part(pick, time_k: int, ref_k: int | None = None) -> float:
        """Sum over the parts of pick() over the calls of time k, over reference time ref_k if given."""
        return sum(pick(p[label][time_k] / (p[label][ref_k] if ref_k is not None else 1.0)
                        for p in by_label) for label in labels)

    # Load elsewhere on a shared machine slows every process by up to 1.9x for
    # stretches of seconds to minutes. Each part is timed beside the reference
    # computation, which slows with it, so each part is reported as its
    # median across the run's calls in units of the reference's time. Set-up
    # is taken relative to the reference run in the same worker and reported
    # in seconds at the reference speed REF_SPEED_S.
    wall_ref = per_part(statistics.median, 0, 2)
    metrics = {
        "wall_ref": wall_ref,
        "cpu_ref": per_part(statistics.median, 1, 3),
        "items_per_ref": samples[0]["items"] / wall_ref,
        "setup_s": statistics.median(t / r for t, r in setups) * REF_SPEED_S,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    seconds = {"wall_s.median": per_part(statistics.median, 0),
               "wall_s.fastest": per_part(min, 0),
               "cpu_s.median": per_part(statistics.median, 1),
               "reference_s.median": statistics.median(t[2] for p in by_label for t in p.values()),
               "setup_s.median": statistics.median(t for t, _ in setups),
               "setup_s.fastest": min(t for t, _ in setups)}
    return metrics, {"seconds": seconds, "samples": samples, "setup_samples": setups}


def traced_run(req: dict, env: dict, seed: int, verdicts: Verdicts, limit: float) -> tuple[dict, dict]:
    """Untraced and traced calls alternate for TRACE_ROUNDS rounds. The layer
    numbers come from the fastest traced call, and the overhead compares the
    fastest call of each kind."""
    # sweep8 makes one sweep call here, so that the pooled call compares like with like.
    whole = {"chunk": len(req["inputs"])} if req["workload"] == "sweep8" else {}
    plain, traced, pooled = [], [], []
    for k in range(TRACE_ROUNDS):
        plain.append(spawn(req, env, limit, **whole))
        spans_path = os.path.join(OUT_DIR, f"spans-{req['workload']}-seed{seed}-{k}.jsonl.gz")
        traced.append(spawn(req, env, limit, trace=1, spans_path=spans_path, **whole))
        if req["workload"] == "sweep8":
            pooled.append(spawn(req, env, limit, jobs=2, **whole))
    suites = traced[0]["output"].get("suites", [])
    for reply in plain + traced + pooled:
        verdicts.add(reply.pop("output"))

    def fastest(replies: list) -> dict:
        return min(replies, key=lambda r: r["wall_s"])

    best = fastest(traced)
    layers = dict(best["layers"])
    layers["trace.wall_s"] = best["wall_s"]
    layers["trace.overhead_s"] = best["wall_s"] - fastest(plain)["wall_s"]
    for suite, checked, _ in suites:
        layers[f"harness.suite.{suite}.checks"] = checked
    if pooled:
        # jobs=1 over twice the jobs=2 wall time: 1.0 is a perfect two-worker pool.
        layers["harness.pool.efficiency"] = fastest(plain)["wall_s"] / (2 * fastest(pooled)["wall_s"])
    metrics = {name: layers.get(name, 0) for name in PER_LAYER}
    return metrics, {"untraced": plain, "traced": traced, "pooled": pooled, "layers": layers}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same code paths in about a second (self-tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "sepfacets", "__init__.py")):
        print("error: run from the root of a sepfacets checkout (no src/sepfacets here)",
              file=sys.stderr)
        return 2
    limit = time.monotonic() + RUN_LIMIT_S
    load_start = os.getloadavg()
    req = make_inputs(args.workload, args.seed, args.size)
    env = worker_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    verdicts = Verdicts(req, args.seed)
    try:
        if args.trace:
            metrics, detail = traced_run(req, env, args.seed, verdicts, limit)
            units = PER_LAYER
        else:
            metrics, detail = timed_run(req, env, args.seconds, verdicts, limit)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "generator": GENERATOR, "confirm_seed": CONFIRM_SEED,
        "provenance": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "SEP_MAX_N": env.get("SEP_MAX_N"),
            "git_commit": _git_commit(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
        "metrics": metrics,
        "attempted": verdicts.attempted, "failed": verdicts.failed,
        "fail_frac": verdicts.failed / verdicts.attempted,
        "checks": verdicts.notes,
        **detail,
    }
    line = json.dumps(record)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fp:
        fp.write(line + "\n")
    print(line)
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
