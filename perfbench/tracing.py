"""Instrumentation of the hieremb pipeline from outside the package.

Every layer is reached through a module or class attribute (for example
`hieremb.cli.ndcg` or `EmbeddingModel.forward_batch`). The benchmark
replaces those attributes with wrappers while a workload runs and puts the
originals back afterwards, so the package itself carries no timing code.

Two levels exist:

- `Probe` is always on. It times the few calls the end-to-end metrics need
  (`fit`, `evaluate_model`, per-epoch triplet draws), a few dozen calls per
  iteration, so its cost does not show in the untraced figures.
- `Tracer` records one span (name, start, end, parent, run id) per call of
  every layer in `SPAN_POINTS`, plus counters, and tallies every public
  `Taxonomy` method, while it is installed. Spans stay in memory until the
  run writes them out.
"""
from __future__ import annotations

import os
import re
import time
import warnings
from collections import defaultdict

import hieremb.cli as cli
import hieremb.losses as losses
import hieremb.model as model
from hieremb.model import EmbeddingModel
from hieremb.taxonomy import Taxonomy


class Patcher:
    """Replaces attributes and restores the originals on `restore`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        wrapper = make(original)
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _partition_size(split, subset: str) -> int:
    return sum(1 for name in split.partition.values() if name == subset)


class Probe:
    """Per-iteration totals behind the end-to-end throughputs and set-up time."""

    def __init__(self, patcher: Patcher):
        self.reset()
        patcher.wrap(cli, "fit", self._timed_fit)
        patcher.wrap(cli, "evaluate_model", self._timed_evaluate)
        patcher.wrap(model, "instantiate_epoch", self._counted_epoch)

    def reset(self) -> None:
        self.first_fit_start: float | None = None
        self.fit_s = 0.0
        self.triplets = 0
        self.eval_s = 0.0
        self.eval_pairs = 0

    def _timed_fit(self, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            if self.first_fit_start is None:
                self.first_fit_start = start
            try:
                return fn(*args, **kwargs)
            finally:
                self.fit_s += time.perf_counter() - start

        return wrapper

    def _timed_evaluate(self, fn):
        def wrapper(model_, taxonomy, dataset, split, subset):
            start = time.perf_counter()
            try:
                return fn(model_, taxonomy, dataset, split, subset)
            finally:
                self.eval_s += time.perf_counter() - start
                n = _partition_size(split, subset)
                self.eval_pairs += n * (n - 1)

        return wrapper

    def _counted_epoch(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if kwargs.get("subset", "train") == "train":
                self.triplets += len(result)
            return result

        return wrapper


# -- traced run -------------------------------------------------------------------


def _count_file_bytes(key):
    def observe(tracer, args, kwargs, result):
        tracer.counts[key] += os.path.getsize(args[0])

    return observe


def _observe_epoch(tracer, args, kwargs, result):
    if kwargs.get("skip_infeasible"):
        tracer.counts["sampler.val_instances"] += len(result)
        tracer.counts["sampler.val_triples"] += len(args[3])
    else:
        tracer.counts["sampler.instances"] += len(result)


def _observe_hinges(tracer, args, kwargs, result):
    values = result[0]
    tracer.counts["losses.triplet_active"] += int((values > 0).sum())
    tracer.counts["losses.triplet_hinges"] += values.size


def _observe_ranked(tracer, args, kwargs, result):
    n = len(result)  # one ranked list per pool member
    tracer.counts["metrics.sim_matrix_bytes"] = max(
        tracer.counts["metrics.sim_matrix_bytes"], n * n * 8
    )


def _observe_ndcg(tracer, args, kwargs, result):
    tracer.counts["metrics.ndcg.queries"] += len(args[0])


def _observe_mnr(tracer, args, kwargs, result):
    ranked, taxonomy = args[0], args[1]
    # the unwrapped method, so the benchmark's own call is not tallied
    levels = Taxonomy.levels_with_multiple_classes.__wrapped__(taxonomy)
    tracer.counts["metrics.mnr.level_terms"] += len(ranked) * len(levels)


def _observe_acc_aware(tracer, args, kwargs, result):
    tracer.counts["metrics.acc_aware.samples"] += len(args[2])


# Warnings the metrics emit when they skip terms, and the counter each feeds.
SKIP_WARNINGS = {
    "metrics.ndcg": (re.compile(r"NDCG skipped (\d+) queries"), "metrics.ndcg.skipped"),
    "metrics.mnr": (re.compile(r"MNR skipped (\d+) query-level"), "metrics.mnr.skipped_levels"),
    "metrics.acc_aware": (
        re.compile(r"acc_aware skipped (\d+) samples"),
        "metrics.acc_aware.skipped",
    ),
}

# (owner, attribute, span name, observer). The attribute is the one the
# caller looks up at call time, so wrapping it catches every call.
SPAN_POINTS = [
    (cli, "cmd_gen_data", "cli.gen_data", None),
    (cli, "cmd_split", "cli.split", None),
    (cli, "cmd_train", "cli.train", None),
    (cli, "cmd_evaluate", "cli.evaluate", None),
    (cli, "cmd_run", "cli.run", None),
    (cli, "generate", "synthdata.generate", None),
    (cli, "save_dataset", "dataset.save_dataset", _count_file_bytes("dataset.jsonl_bytes")),
    (cli, "load_dataset", "dataset.load_dataset", None),
    (cli, "make_fold_splits", "datasplit.make_fold_splits", None),
    (cli, "fit", "model.fit", None),
    (model, "pruned_seen_taxonomy", "datasplit.pruned_seen_taxonomy", None),
    (model, "build_head_layout", "model.build_head_layout", None),
    (model, "build_target_table", "model.build_target_table", None),
    (model, "enumerate_node_triples", "sampler.enumerate_node_triples", None),
    (model, "instantiate_epoch", "sampler.instantiate_epoch", _observe_epoch),
    (model, "train_step", "model.train_step", None),
    (model, "batch_loss_and_grads", "model.batch_loss_and_grads", None),
    (model, "adam_update", "model.adam_update", None),
    (model, "validation_loss", "model.validation_loss", None),
    (EmbeddingModel, "forward_batch", "model.forward_batch", None),
    (losses, "triplet_loss_batch", "losses.triplet_loss_batch", _observe_hinges),
    (losses, "softmax_cross_entropy_batch", "losses.softmax_cross_entropy_batch", None),
    (losses, "binary_cross_entropy_nodes_batch", "losses.binary_cross_entropy_nodes_batch", None),
    (cli, "save_checkpoint", "model.save_checkpoint", _count_file_bytes("model.save_checkpoint.bytes")),
    (cli, "load_checkpoint", "model.load_checkpoint", None),
    (cli, "evaluate_model", "cli.evaluate_model", None),
    (cli, "head_argmax", "cli.head_argmax", None),
    (cli, "build_ranked_lists", "metrics.build_ranked_lists", _observe_ranked),
    (cli, "ndcg", "metrics.ndcg", _observe_ndcg),
    (cli, "mnr", "metrics.mnr", _observe_mnr),
    (cli, "rp_at_k", "metrics.rp_at_k", None),
    (cli, "leaf_f1", "metrics.leaf_f1", None),
    (cli, "acc_blind", "metrics.acc_blind", None),
    (cli, "acc_aware", "metrics.acc_aware", _observe_acc_aware),
]

STAGE_SPANS = ("cli.gen_data", "cli.split", "cli.train", "cli.evaluate", "cli.run")

TAXONOMY_METHODS = sorted(
    name for name, value in vars(Taxonomy).items()
    if callable(value) and not name.startswith("_")
)


class Tracer:
    """Spans and counters of the traced iterations of one run."""

    ROOT = "iteration"

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = ""
        self._stack: list[int] = []
        self._in_taxonomy = False

    def install(self, patcher: Patcher) -> None:
        """Wrap every traced attribute; `patcher.restore()` removes them."""
        for owner, attr, name, observe in SPAN_POINTS:
            patcher.wrap(owner, attr, self._span(name, observe))
        for attr in TAXONOMY_METHODS:
            patcher.wrap(Taxonomy, attr, self._tally)

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _span(self, name: str, observe):
        skip = SKIP_WARNINGS.get(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                index = self.begin(name)
                try:
                    if skip is None:
                        result = fn(*args, **kwargs)
                    else:
                        with warnings.catch_warnings(record=True) as caught:
                            warnings.simplefilter("always")
                            result = fn(*args, **kwargs)
                        pattern, key = skip
                        for item in caught:
                            found = pattern.search(str(item.message))
                            if found:
                                self.counts[key] += int(found.group(1))
                finally:
                    self.end(index)
                if observe is not None:
                    observe(self, args, kwargs, result)
                return result

            return wrapper

        return make

    def _tally(self, fn):
        # Time only the outermost Taxonomy call; nested calls are counted.
        def wrapper(*args, **kwargs):
            self.counts["taxonomy.calls"] += 1
            if self._in_taxonomy:
                return fn(*args, **kwargs)
            self._in_taxonomy = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counts["taxonomy.s"] += time.perf_counter() - start
                self._in_taxonomy = False

        return wrapper

    def layer_metrics(self, root: int) -> dict[str, float]:
        """Per-layer figures of one traced iteration: the spans from index
        `root` (its root span) onwards and the counters since `reset`."""
        spans = self.spans[root:]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans[1:]:
            covered[parent - root] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - covered[i]
            calls[name] += 1
        c = self.counts
        metrics = {f"{name}.s": total[name] for name in TIMED_LAYERS}
        metrics.update({f"{name}.self_s": own[name] for name in SELF_TIMED_LAYERS})
        metrics.update({f"{name}.calls": calls[name] for name in CALLED_LAYERS})
        metrics.update({name: c[name] for name in COUNTERS})
        metrics["sampler.val_feasible_frac"] = _ratio(
            c["sampler.val_instances"], c["sampler.val_triples"]
        )
        metrics["losses.triplet_active_frac"] = _ratio(
            c["losses.triplet_active"], c["losses.triplet_hinges"]
        )
        for name, parts in MERGED_LAYERS.items():
            metrics[name] = sum(total[part] for part in parts)
        metrics["cli.stage_self_s"] = sum(own[name] for name in STAGE_SPANS)
        metrics["trace.unattributed_s"] = own[self.ROOT]
        metrics["trace.spans"] = len(spans)
        return metrics

    def stage_seconds(self, root: int) -> dict[str, float]:
        """Seconds per CLI command of the iteration whose root span is `root`."""
        seconds: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans[root:]:
            if name in STAGE_SPANS:
                seconds[name] += end - start
        return dict(seconds)

    def reset(self) -> None:
        self.counts.clear()


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


# Layers reported by inclusive time (`<name>.s`). Every workload reaches
# each of them, so none reads a constant 0; the staged-only layers are merged
# below, and per-command times go to the run's detail record instead.
TIMED_LAYERS = (
    "synthdata.generate",
    "datasplit.make_fold_splits",
    "dataset.save_dataset",
    "datasplit.pruned_seen_taxonomy",
    "model.build_head_layout",
    "model.build_target_table",
    "sampler.enumerate_node_triples",
    "sampler.instantiate_epoch",
    "losses.triplet_loss_batch",
    "losses.softmax_cross_entropy_batch",
    "losses.binary_cross_entropy_nodes_batch",
    "model.fit",
    "model.train_step",
    "model.forward_batch",
    "model.adam_update",
    "model.validation_loss",
    "model.save_checkpoint",
    "metrics.build_ranked_lists",
    "metrics.ndcg",
    "metrics.mnr",
    "metrics.rp_at_k",
    "metrics.leaf_f1",
    "metrics.acc_blind",
    "metrics.acc_aware",
    "cli.head_argmax",
)
# Written by every workload, read back only by the staged one.
MERGED_LAYERS = {
    "dataset.io.s": ("dataset.save_dataset", "dataset.load_dataset"),
    "model.checkpoint_io.s": ("model.save_checkpoint", "model.load_checkpoint"),
}
# Layers whose own work sits between their children (`<name>.self_s`).
SELF_TIMED_LAYERS = ("model.fit", "model.batch_loss_and_grads", "cli.evaluate_model")
CALLED_LAYERS = ("dataset.load_dataset", "sampler.instantiate_epoch", "model.train_step")
COUNTERS = (
    "taxonomy.calls",
    "taxonomy.s",
    "dataset.jsonl_bytes",
    "model.save_checkpoint.bytes",
    "sampler.instances",
    "sampler.val_triples",
    "losses.triplet_hinges",
    "metrics.sim_matrix_bytes",
    "metrics.ndcg.skipped",
    "metrics.ndcg.queries",
    "metrics.mnr.skipped_levels",
    "metrics.mnr.level_terms",
    "metrics.acc_aware.skipped",
    "metrics.acc_aware.samples",
)

