#!/usr/bin/env python3
"""Self-test of the benchmark, at the tiny self-test size (about ten seconds).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs `perfbench/run.py --tiny`
untraced and traced, and checks that the last output line is a result whose
metric names equal the file's `end_to_end` and `per_layer` lists,
with every op passing its output checks. It also checks that the script
refuses to run, printing no result, in a copy of the benchmark without the
hieremb sources.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BARE = ROOT / ".perfbench_work" / "selftest-bare"


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_result(stdout: str, expected: list[dict]) -> list[str]:
    result = json.loads(stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"attempted={result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    got = set(metrics)
    want = {m["name"] for m in expected}
    if got != want:
        errors.append(f"metrics differ: extra {sorted(got - want)}, missing {sorted(want - got)}")
    for name, m in metrics.items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            errors.append(f"{name}={m['value']!r}")
    return errors


def check_spec(spec: dict) -> list[str]:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    if len(names) != len(set(names)):
        errors.append("a name is used twice")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            errors.append(f"{m['name']}: bound {m['bound']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s must be an end-to-end metric in s, lower better")
    return errors


def check_refuses_without_sources() -> list[str]:
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", BARE)
        shutil.copytree(BENCH, BARE / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(BARE, "--workload", "grid-default", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    finally:
        shutil.rmtree(BARE)
        if not any(BARE.parent.iterdir()):
            BARE.parent.rmdir()
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = check_spec(spec)
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload['name']} --trace {trace}"
            proc = run(ROOT, "--workload", workload["name"], "--seed", "1",
                       "--seconds", "1", "--trace", str(trace), "--tiny")
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            failures += [f"{label}: {e}" for e in check_result(proc.stdout, spec[group])]
            print(f"ok {label}")
    failures += check_refuses_without_sources()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest passed" if not failures else f"selftest failed: {len(failures)} problems")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
