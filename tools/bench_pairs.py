#!/usr/bin/env python3
"""Alternate `perfbench/run.py` between a parent checkout and this one, and
write every run's record and a per-metric summary to one BENCH JSON file.

Run from the repository root, with the parent commit checked out elsewhere
(for example by `git clone` and `git checkout <commit>`):

    python3 tools/bench_pairs.py --parent ../parent --workload staged-large \\
        --seeds 1-10 --seconds 40 --out BENCH_<n>.json

Each seed runs once per side, one process at a time, untraced. Odd seeds run
the parent first and even seeds the change first, so neither side always
meets a warmer machine. A run's record is the environment and result lines
`run.py` prints last; a run whose result is not `"correct": true` with 0
failed ops stops the script, naming its side and seed. The summary gives, per metric,
each side's median and quartiles (as `statistics.quantiles(values, n=4)`
gives them). For the end-to-end metrics of BENCHMARK.json it adds:
  - `pairs_won`: the number of seeds whose change run beats its parent run;
  - `gain`: the change wins at least 9 in 10 pairs, and its median beats the
    parent's by more than the parent's q3 - q1;
  - `regressed`: the change's median is worse than the parent's by more than
    the metric's bound, a fraction of the parent's median.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, check=True)
    record, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return {"seed": seed, "record": record, "result": result}


def summary(runs: dict[str, list[dict]]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"]: metric for metric in spec["end_to_end"]}
    report = {}
    for name in runs["parent"][0]["result"]["metrics"]:
        values = {side: [run["result"]["metrics"][name]["value"] for run in side_runs]
                  for side, side_runs in runs.items()}
        report[name] = quartiles = {
            side: dict(zip(("q1", "median", "q3"), statistics.quantiles(series, n=4)))
            for side, series in values.items()
        }
        if name in end_to_end:
            sign = 1 if end_to_end[name]["better"] == "higher" else -1
            won = sum(sign * (change - parent) > 0
                      for parent, change in zip(values["parent"], values["change"]))
            parent, change = quartiles["parent"], quartiles["change"]
            gap = sign * (change["median"] - parent["median"])  # > 0: the change is better
            report[name] |= {
                "pairs_won": won,
                "gain": 10 * won >= 9 * len(values["parent"]) and gap > parent["q3"] - parent["q1"],
                "regressed": -gap > end_to_end[name]["bound"] * abs(parent["median"]),
            }
    return report


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    if last <= first:
        parser.error("--seeds needs at least two seeds for quartiles")
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {side: [] for side in sides}
    for seed in range(first, last + 1):
        order = list(sides) if seed % 2 else list(sides)[::-1]
        for side in order:
            run = run_once(sides[side], args.workload, seed, args.seconds)
            result = run["result"]
            if result["correct"] is not True or result["failed"] != 0:
                raise SystemExit(f"bench_pairs: the {side} run of seed {seed} is not correct: "
                                 f"{result['failed']} of {result['attempted']} ops failed")
            runs[side].append(run)
            print(side, seed, json.dumps(run["result"]["metrics"]), flush=True)
    report = {
        "command": f"perfbench/run.py --workload {args.workload} --seconds {args.seconds:g} --trace 0",
        "seeds": [first, last],
        "summary": summary(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
