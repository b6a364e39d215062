"""Self-tests of the benchmark, at a size that finishes in under a minute.

    python3 perfbench/selftest.py

From the root of a sepfacets checkout. For every workload it runs run.py at
the tiny size untraced and traced twice, and checks that the run passes its
correctness gate, that every metric named in BENCHMARK.json is emitted with
its unit, and that the work counters repeat exactly. It also checks that the
benchmark refuses to run where there is no program. Exits non-zero on the
first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
# Timed metrics, and the pool efficiency (a ratio of two times), vary by run.
TIMED_UNITS = ("s", "ms")
TIMED_RATIOS = ("harness.pool.efficiency",)


def run(spec: dict, workload: str, trace: int, cwd: str = ".") -> tuple[int, str]:
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def result_of(spec: dict, workload: str, trace: int) -> dict:
    code, out = run(spec, workload, trace)
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited with {code}")
    result = json.loads(out.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace={trace} failed its checks: {result}")
    return result


def expect_metrics(result: dict, declared: list[dict], label: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{label}: emitted {got}, BENCHMARK.json declares {want}")


def main() -> int:
    with open("BENCHMARK.json") as fp:
        spec = json.load(fp)
    if set(spec) != SPEC_KEYS:
        raise AssertionError(f"BENCHMARK.json keys are {sorted(spec)}")
    for workload in (w["name"] for w in spec["workloads"]):
        plain = result_of(spec, workload, 0)
        expect_metrics(plain, spec["end_to_end"], f"{workload} trace=0")
        if any(m["value"] <= 0 for m in plain["metrics"].values()):
            raise AssertionError(f"{workload}: an end-to-end metric is not positive")
        first, second = result_of(spec, workload, 1), result_of(spec, workload, 1)
        expect_metrics(first, spec["per_layer"], f"{workload} trace=1")
        counters = {name: m["value"] for name, m in first["metrics"].items()
                    if m["unit"] not in TIMED_UNITS and name not in TIMED_RATIOS}
        again = {name: second["metrics"][name]["value"] for name in counters}
        if counters != again:
            changed = sorted(k for k in counters if counters[k] != again[k])
            raise AssertionError(f"{workload}: counters differ between runs: {changed}")
        print(f"ok {workload}: {plain['attempted']} results checked, "
              f"{len(counters)} counters repeat")

    bare = os.path.join(".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run(spec, spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or out.strip():
        raise AssertionError("the benchmark ran without a program to measure")
    print("ok refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
