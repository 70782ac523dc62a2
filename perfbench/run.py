#!/usr/bin/env python3
"""Benchmark of the hieremb pipeline: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload grid-default --seed 1 --seconds 40 --trace 0

The package is imported from `src/` next to this directory; without it the
script exits with status 2 and prints no result. One warm-up iteration at
the self-test size comes first. Untraced (`--trace 0`), whole iterations of
the workload then repeat until the next would likely overrun `--seconds`;
times are medians over them, throughputs sum work and time over them.
Traced (`--trace 1`), untraced and traced iterations alternate in the same
time budget, the per-layer metrics are medians over the traced iterations,
and the spans go to `.perfbench_out/`. Metric units are read from
`BENCHMARK.json`.

Every iteration's outputs are checked (files present, metrics finite and in
range, equal to `reference.json` for seed 0, equal across iterations). The
last line of standard output is the result:
`{"correct", "attempted", "failed", "metrics"}`, where an op is one
fold x combination cell, the `run` command itself, or one staged command.
The line before it records the environment and the per-iteration figures.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import sys
import threading
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"


def import_package() -> None:
    if not (SRC / "hieremb" / "__init__.py").is_file():
        print(f"perfbench: no hieremb source tree under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hieremb

    if Path(hieremb.__file__).resolve().parent != SRC / "hieremb":
        print(f"perfbench: imported hieremb from {hieremb.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


# -- environment record ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked of the library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python_threads": threading.active_count(),
        "git_commit": _git_commit(),
    }


# -- measurement --------------------------------------------------------------------


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: tiny trees, one epoch, no reference check")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    import_package()
    from measure import Runner
    from workloads import WORKLOADS, load_reference

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    # The metrics warn when they skip terms; the traced run counts those.
    warnings.simplefilter("ignore")

    start = time.perf_counter()
    runner = Runner(workload, args.seed, args.tiny, load_reference(workload, args.seed, args.tiny),
                    WORK / f"{workload.name}-s{args.seed}-{os.getpid()}")
    try:
        runner.warm_up()
        deadline = time.perf_counter() + args.seconds
        measure = runner.traced if args.trace else runner.untraced
        metrics, iterations = measure(deadline)
    finally:
        runner.close()
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "elapsed_s": time.perf_counter() - start,
        "environment": environment(),
        "iterations": [{k: v for k, v in it.items() if k != "root"} for it in iterations],
        "spread": {
            name: _quartiles([it[name] for it in iterations if not it["traced"]])
            for name in ("wall_s", "setup_s", "cpu_s")
        },
        "failures": runner.failures,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-s{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({**detail, "result": result}, indent=1))
    if args.trace:
        with open(OUT / f"spans-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": runner.spans}, fh)
    for name, error in runner.failures:
        print(f"perfbench: FAILED {name}: {error}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
