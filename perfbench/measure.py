"""The timing loops of one benchmark run.

A run warms up once at the self-test size, then either times whole untraced
iterations (end-to-end metrics), or alternates untraced and traced
iterations (per-layer metrics). Every iteration's outputs are checked as
soon as its clock stops.
"""
from __future__ import annotations

import gc
import resource
import shutil
import statistics
import time
from pathlib import Path

from tracing import Patcher, Probe, Tracer
from workloads import Workload, check_ops, check_repeat, run_iteration

# Throughputs sum the work and the time of all iterations of the run.
THROUGHPUTS = {
    "train_triplets_per_s": ("triplets", "fit_s"),
    "eval_pairs_per_s": ("eval_pairs", "eval_s"),
}


class Runner:
    """Measures one workload on one seed; iteration outputs go under `work`."""

    def __init__(self, workload: Workload, seed: int, tiny: bool, reference, work: Path):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.reference = reference
        self.work = work
        self.patcher = Patcher()
        self.probe = Probe(self.patcher)
        self.first_ops = None
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.spans: list[list] = []

    def close(self) -> None:
        self.patcher.restore()
        shutil.rmtree(self.work, ignore_errors=True)

    def warm_up(self) -> None:
        out = self.work / "warmup"
        run_iteration(self.workload, self.seed, out, tiny=True)
        shutil.rmtree(out)

    def iteration(self, label: str, tracer: Tracer | None = None) -> dict:
        out = self.work / label
        self.probe.reset()
        gc.collect()
        root = tracer.begin(tracer.ROOT) if tracer else None
        t0, c0 = time.perf_counter(), time.process_time()
        ops = run_iteration(self.workload, self.seed, out, self.tiny)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer:
            tracer.end(root)
        check_ops(ops, self.reference)
        if self.first_ops is None:
            self.first_ops = ops
        else:
            check_repeat(ops, self.first_ops)
        shutil.rmtree(out)
        self.attempted += len(ops)
        self.failures += [(f"{label}/{op.name}", op.error) for op in ops if op.error]
        probe = self.probe
        fit_start = probe.first_fit_start if probe.first_fit_start is not None else t0 + wall
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "setup_s": fit_start - t0,
            "triplets": probe.triplets,
            "fit_s": probe.fit_s,
            "eval_pairs": probe.eval_pairs,
            "eval_s": probe.eval_s,
            "traced": tracer is not None,
            "root": root,
        }

    def untraced(self, deadline: float) -> tuple[dict, list[dict]]:
        """End-to-end metrics over whole iterations, repeated until the next
        one would likely end after `deadline`: medians of the per-iteration
        times, throughputs over all iterations together. With the two to
        six iterations a run holds, the median varies less between runs
        than the minimum does (see README.md)."""
        iterations = []
        while True:
            iterations.append(self.iteration(f"iter{len(iterations)}"))
            typical = statistics.median(it["wall_s"] for it in iterations)
            if time.perf_counter() + typical > deadline:
                break
        metrics = {name: statistics.median(it[name] for it in iterations)
                   for name in ("wall_s", "setup_s", "cpu_s")}
        for name, (work, seconds) in THROUGHPUTS.items():
            metrics[name] = sum(it[work] for it in iterations) / sum(it[seconds] for it in iterations)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return metrics, iterations

    def traced(self, deadline: float) -> tuple[dict, list[dict]]:
        """Per-layer metrics: medians over traced iterations. An untraced
        iteration precedes each traced one, and the tracing overhead is the
        difference between the medians of the two series."""
        tracer = Tracer()
        untraced, traced, per_layer = [], [], []
        while True:
            untraced.append(self.iteration(f"untraced{len(untraced)}"))
            tracer.reset()
            tracer.run_id = f"{self.workload.name}-s{self.seed}-t{len(traced)}"
            patcher = Patcher()
            tracer.install(patcher)
            try:
                it = self.iteration(f"traced{len(traced)}", tracer)
            finally:
                patcher.restore()
            it["command_s"] = tracer.stage_seconds(it["root"])
            per_layer.append(tracer.layer_metrics(it["root"]))
            traced.append(it)
            if time.perf_counter() + untraced[-1]["wall_s"] + it["wall_s"] > deadline:
                break
        self.spans = tracer.spans
        metrics = {name: statistics.median(m[name] for m in per_layer) for name in per_layer[0]}
        metrics["trace.wall_s"] = statistics.median(it["wall_s"] for it in traced)
        metrics["trace.untraced_wall_s"] = statistics.median(it["wall_s"] for it in untraced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        return metrics, untraced + traced
