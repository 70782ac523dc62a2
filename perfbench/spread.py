#!/usr/bin/env python3
"""Repeat the benchmark over seeds, interleaving the workloads, and report
the spread of every metric.

Run from the repository root:

    python3 perfbench/spread.py --runs 10            # every workload, seeds 1..10

Each run is a separate `perfbench/run.py` process; one seed's runs of all
workloads come before the next seed's, and the workload order rotates, so a
slow stretch of the machine falls on every workload alike. Per workload and
metric it prints the median and quartiles over the runs, as
`statistics.quantiles(values, n=4)` gives them, and the quartile distance
as a share of the median next to the metric's bound in BENCHMARK.json. The
summary also goes to `.perfbench_out/spread-<time>.json`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    units: dict[str, str] = {}
    totals = {w: {"attempted": 0, "failed": 0, "incorrect_runs": 0} for w in workloads}
    for i in range(args.runs):
        seed = 1 + i
        for w in workloads[i % len(workloads):] + workloads[: i % len(workloads)]:
            command = [sys.executable, str(BENCH / "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
            started = time.perf_counter()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            took = time.perf_counter() - started
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{w} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            totals[w]["attempted"] += result["attempted"]
            totals[w]["failed"] += result["failed"]
            totals[w]["incorrect_runs"] += not result["correct"]
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{w} seed {seed}: {took:.1f} s, correct={result['correct']}", file=sys.stderr)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    print(f"{'workload':13} {'metric':22} {'unit':5} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        summary[w] = {"totals": totals[w], "metrics": {}}
        for name, series in values[w].items():
            q1, median, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else [series[0]] * 3
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            if bound is None:
                verdict = ""
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
            summary[w]["metrics"][name] = {
                "unit": units[name], "values": series, "q1": q1, "median": median, "q3": q3,
                "spread": spread, "bound": bound,
            }
            print(f"{w:13} {name:22} {units[name]:5} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound if bound is not None else '':>6}  {verdict}")
        print(f"{w:13} attempted {totals[w]['attempted']}, failed {totals[w]['failed']}, "
              f"incorrect runs {totals[w]['incorrect_runs']}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
