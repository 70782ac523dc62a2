"""Experiment pipeline: generate or ingest data, split, train, evaluate, report.

Every stage reads and writes plain files under the output directory, so a
full experiment can equally be driven by `run` in one shot or by chaining
the stage subcommands; both paths share the code below and produce the
same artifacts. All randomness derives from the base seed: fold seed =
base seed + fold index, epoch seed = fold seed + epoch index, with fixed
derived streams for model init, validation triplets, and batch shuffling.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import json
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .dataset import (LabeledSample, atomic_open, features_matrix, load_dataset, named,
                      read_json, save_dataset)
from .datasplit import (
    SplitAssignment,
    SplitError,
    load_split,
    make_fold_splits,
    partition_samples,
    pruned_seen_taxonomy,
    split_to_json,
)
from .losses import LossConfig, combo_name, parse_combo
from .metrics import (
    MetricError,
    MetricsReport,
    acc_aware,
    acc_blind,
    build_ranked_lists,
    leaf_f1,
    mnr,
    ndcg,
    per_query_diagnostics,
    rp_at_k,
    score_pool,
)
from .model import (
    EmbeddingModel,
    ModelConfig,
    fit,
    load_checkpoint,
    save_checkpoint,
)
from .sampler import SamplerError, enumerate_node_triples, instantiate_epoch
from .synthdata import SynthConfig, generate
from .taxonomy import Taxonomy, TaxonomyError, load_taxonomy, save_taxonomy

VALID_COMBOS = (
    frozenset({"L"}),
    frozenset({"L", "T"}),
    frozenset({"PL"}),
    frozenset({"PL", "T"}),
    frozenset({"PL", "B"}),
    frozenset({"PL", "B", "T"}),
)

AGGREGATE_COLUMNS = (
    ("test", "leaf_f1", "test_leaf_f1"),
    ("test", "leaf_rp_at_5", "test_leaf_rp5"),
    ("test", "mnr", "test_mnr"),
    ("test", "ndcg_sum", "test_ndcg"),
    ("prediction", "acc_blind", "pred_acc_blind"),
    ("prediction", "acc_aware", "pred_acc_aware"),
    ("prediction", "ratio_blind_aware", "pred_ratio"),
    ("prediction", "ndcg_sum", "pred_ndcg"),
)
AGGREGATE_HEADER = ["combo"] + [column for _, _, column in AGGREGATE_COLUMNS]

RP_K = 5  # the k of the test set's leaf RP@k; a test pool needs k + 1 samples


@dataclass
class ExperimentConfig:
    out: str = "runs"
    taxonomy: str | None = None
    dataset: str | None = None
    combos: tuple[frozenset[str], ...] = VALID_COMBOS
    seed: int = 0
    k_folds: int = 5
    margin: float = 0.3
    epochs: int = 50
    model: ModelConfig = field(default_factory=ModelConfig, metadata={"prefix": ""})
    synth: SynthConfig = field(default_factory=SynthConfig, metadata={"prefix": "synth_"})

    def __post_init__(self):
        for name, least in (("k_folds", 2), ("epochs", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not self.margin > 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        if bool(self.taxonomy) != bool(self.dataset):
            raise ValueError("taxonomy and dataset paths must be given together")
        if not self.combos:  # `combos = ,`: a run would train nothing
            raise ValueError("combos lists no loss combination")
        for combo in self.combos:
            if combo not in VALID_COMBOS:
                raise ValueError(
                    f"{combo_name(combo)!r} is not one of the six supported combinations"
                )
            if self.combos.count(combo) > 1:  # its cell would be trained twice
                raise ValueError(f"{combo_name(combo)!r} is listed more than once")


# -- config file ---------------------------------------------------------------


def read_config_file(path: str | Path) -> dict[str, str]:
    """Flat `key = value` lines; blank lines and # comments are ignored. A
    repeated key, or bytes that are not UTF-8, raise a `ValueError` naming
    the file and the line."""
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}  # the line that set each key
    with open(path, "rb") as fh:  # each line is decoded on its own, so a bad byte is placed
        for line_no, line in enumerate(fh, start=1):
            try:
                line = line.decode().split("#", 1)[0].strip()
            except UnicodeDecodeError as err:
                raise named(f"{path}:{line_no}", err) from None
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in set_on:
                first = set_on[key]
                raise ValueError(f"{path}:{line_no}: {key!r} is already set on line {first}")
            values[key], set_on[key] = value, line_no
    return values


def parse_int_range(text: str) -> tuple[int, int]:
    parts = text.split("-")
    if len(parts) == 1:
        lo = hi = int(parts[0])
    elif len(parts) == 2:
        lo, hi = int(parts[0]), int(parts[1])
    else:
        raise ValueError(f"bad range {text!r}, expected 'lo-hi'")
    return lo, hi


def parse_branching(text: str) -> tuple[tuple[int, int], ...]:
    return tuple(parse_int_range(part.strip()) for part in text.split(",") if part.strip())


def parse_combos(text: str) -> tuple[frozenset[str], ...]:
    """Combinations like `L,PL+T`; an empty value means all six."""
    return tuple(parse_combo(p) for p in text.split(",") if p.strip()) if text else VALID_COMBOS


# config values parsed otherwise than by the type of their field's default
FIELD_PARSERS = {"branching": parse_branching, "samples_per_leaf": parse_int_range,
                 "combos": parse_combos, "taxonomy": str, "dataset": str}


def config_from_values(values: dict[str, str], overrides: dict | None = None) -> ExperimentConfig:
    """The experiment config; a key this function does not read is rejected.

    Each field of `ExperimentConfig` is a key of its own name, but for the
    nested configs, whose fields are keys after the prefix in their field's
    metadata: every `ModelConfig` field but `input_dim`, and every
    `SynthConfig` field as `synth_<field>`. A key left out takes its field's
    default, except that the synth seed follows the base seed. Keys are read
    in field order, so of two bad values the first is named."""
    merged = dict(values)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = str(value)
    unread = set(merged)

    def from_fields(cls, prefix: str = "", **defaults):
        read = {}
        for f in fields(cls):
            key = prefix + f.name
            if "prefix" in f.metadata:  # a nested config; its seed, if any, follows the base seed
                read[f.name] = from_fields(f.default_factory, f.metadata["prefix"], seed=read["seed"])
            elif key in merged and f.name != "input_dim":  # input_dim is set from the data
                unread.discard(key)
                try:
                    read[f.name] = FIELD_PARSERS.get(f.name, type(f.default))(merged[key])
                except ValueError as err:  # `parse_combo`'s checks, like a dataclass's, name no key
                    raise (err if f.name == "combos" else named(key, err)) from None
            else:
                read[f.name] = defaults.get(f.name, f.default)
        return cls(**read)

    config = from_fields(ExperimentConfig)
    if unread:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unread))}")
    return config


def load_experiment_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    if not path:
        return config_from_values({}, overrides)
    values = read_config_file(path)
    try:
        return config_from_values(values, overrides)
    except ValueError as err:
        raise named(path, err) from None


# -- evaluation glue -----------------------------------------------------------


def head_argmax(model: EmbeddingModel, taxonomy: Taxonomy, logits: np.ndarray) -> dict[str, np.ndarray]:
    """Per classification head, the argmax class of each row of the fused head
    `logits` (one row per sample), as node ids of the given (full) taxonomy."""
    result = {}
    for head in model.layout.class_heads():
        class_ids = np.array([taxonomy.id_of(name) for name in head.classes], dtype=np.intp)
        result[head.name] = class_ids[logits[:, head.columns].argmax(axis=1)]
    return result


def evaluate_model(
    model: EmbeddingModel,
    taxonomy: Taxonomy,
    dataset: list[LabeledSample],
    split: SplitAssignment,
    subset: str,
) -> MetricsReport:
    """Test-set metrics (leaf F1, RP@5, MNR, NDCG) or prediction-set metrics
    (LSA accuracies, NDCG), with the candidate pool being the subset itself."""
    return _evaluate_ranked(model, taxonomy, dataset, split, subset)[0]


def _evaluate_ranked(
    model: EmbeddingModel,
    taxonomy: Taxonomy,
    dataset: list[LabeledSample],
    split: SplitAssignment,
    subset: str,
    diagnostics: bool = False,
) -> tuple[MetricsReport, list[dict] | None]:
    """`evaluate_model`'s report, plus with `diagnostics` the per-query rows
    of `per_query_diagnostics`, read from the scores the report came from."""
    if subset not in ("test", "prediction"):
        raise ValueError("subset must be 'test' or 'prediction'")
    samples = partition_samples(dataset, split, subset)
    if not samples:
        raise MetricError(f"the {subset} partition is empty")
    ids = [s.id for s in samples]
    true_leaf = np.array([taxonomy.leaf_id_for(s) for s in samples], dtype=np.intp)
    leaf_of = dict(zip(ids, true_leaf.tolist()))  # the ranking metrics read leaves by id
    # one forward pass; only the embeddings are kept through the ranking,
    # where the memory peaks
    embeddings, logits = model.forward_batch(features_matrix(samples))[:2]
    predictions = head_argmax(model, taxonomy, logits)
    del logits
    ranked = build_ranked_lists(dict(zip(ids, embeddings)), ids)
    # leaves are predicted by the leaf head, else by the deepest level head,
    # whose class set is the full leaf set
    layout = model.layout
    leaf_head = layout.leaf or (layout.levels[-1] if layout.levels else None)
    leaf_preds = predictions.get(leaf_head.name) if leaf_head else None

    report = MetricsReport()
    scores = score_pool(ranked, taxonomy, leaf_of, ranks=subset == "test" or diagnostics)
    report.ndcg_sum = ndcg(ranked, taxonomy, leaf_of, "sum", scores=scores)
    report.ndcg_max = ndcg(ranked, taxonomy, leaf_of, "max", scores=scores)
    if subset == "test":
        report.mnr = mnr(ranked, taxonomy, leaf_of, scores=scores)
        report.leaf_rp_at_5 = rp_at_k(ranked, leaf_of, k=RP_K)
        if leaf_preds is not None:
            report.leaf_f1 = leaf_f1(leaf_preds, true_leaf, sorted(split.seen_leaves))
    else:
        if leaf_preds is not None:
            report.acc_blind = acc_blind(leaf_preds, true_leaf, taxonomy, split)
        if layout.levels:
            level_predictions = {head.level: predictions[head.name] for head in layout.levels}
            level_classes = {
                head.level: {taxonomy.id_of(name) for name in head.classes}
                for head in layout.levels
            }
            report.acc_aware = acc_aware(
                level_predictions, level_classes, true_leaf, taxonomy, split
            )
            if report.acc_blind is not None and report.acc_aware:
                report.ratio_blind_aware = report.acc_blind / report.acc_aware
    return report, per_query_diagnostics(ranked, scores) if diagnostics else None


# -- experiment driver ----------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")  # one write


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    """One header line, then one line per row; the csv module writes floats
    by `repr` and None as an empty field."""
    with atomic_open(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def load_labeled_data(taxonomy_path, dataset_path) -> tuple[Taxonomy, list[LabeledSample]]:
    """The taxonomy and the dataset at these paths. A sample whose label is
    not a leaf of the taxonomy raises a `TaxonomyError` naming the dataset
    file, the sample, the label and the taxonomy file."""
    taxonomy, dataset = load_taxonomy(taxonomy_path), load_dataset(dataset_path)
    checked = set()
    for sample in dataset:
        if sample.leaf not in checked:  # one lookup per distinct label
            try:
                taxonomy.leaf_id_for(sample)
            except TaxonomyError as err:  # either file may be at fault, so both are named
                raise named(dataset_path, f"{err} in {taxonomy_path}", TaxonomyError) from None
            checked.add(sample.leaf)
    return taxonomy, dataset


def load_experiment_data(config: ExperimentConfig) -> tuple[Taxonomy, list[LabeledSample]]:
    """Load taxonomy and dataset from files, or generate them synthetically."""
    if config.dataset:  # the config holds both paths or neither
        return load_labeled_data(config.taxonomy, config.dataset)
    return generate(config.synth)


def train_cell(
    taxonomy: Taxonomy,
    dataset: list[LabeledSample],
    split: SplitAssignment,
    config: ExperimentConfig,
    combo: frozenset[str],
    out: Path,
    extra: dict | None = None,
) -> tuple[EmbeddingModel, list[dict]]:
    """Train one fold x combination cell and write its `checkpoint.json`,
    whose extra record is fold, combo and seed followed by `extra`, and its
    per-epoch `log.csv` under `out`."""
    fold_seed = config.seed + split.fold_index
    loss_config = LossConfig(active=combo, margin=config.margin)
    model_config = replace(config.model, input_dim=len(dataset[0].features))
    model, log = fit(dataset, taxonomy, split, loss_config, model_config, config.epochs, fold_seed)
    cell = {"fold": split.fold_index, "combo": combo_name(combo), "seed": fold_seed}
    save_checkpoint(out / "checkpoint.json", model, extra=cell | (extra or {}))
    _write_csv(out / "log.csv", list(dict.fromkeys(key for row in log for key in row)), log)
    return model, log


def check_pool_sizes(
    splits: list[SplitAssignment], subsets: tuple[str, ...] = ("test", "prediction")
) -> None:
    """Reject a fold whose test pool is too small for RP@k or whose prediction
    pool is too small to rank, of the given subsets: `run` checks both before
    any training, `evaluate` the one it scores."""
    for split in splits:
        for subset in subsets:
            needed = RP_K + 1 if subset == "test" else 2
            count = sum(1 for name in split.partition.values() if name == subset)
            if count < needed:
                raise MetricError(
                    f"fold {split.fold_index}: the {subset} partition holds {count} "
                    f"samples; its metrics need at least {needed}"
                )


def _format_cell(values: list[float]) -> str:
    if not values:
        return "-"
    mean = float(np.mean(values))
    sem = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return f"{100 * mean:.1f} ({100 * sem:.1f})"


def read_metrics(path: Path) -> MetricsReport:
    """A cell's `test.json` or `prediction.json`; a file that is not a JSON
    object of finite numbers and nulls under exactly `MetricsReport`'s keys
    raises a `ValueError` naming it."""
    data = read_json(path, parse_int=float)  # an integer too large to hold reads as inf
    for key, value in data.items():
        if value is not None and not (type(value) is float and np.isfinite(value)):
            raise ValueError(f"{path}: {key!r} is {value!r}, not a finite number or null")
    keys = [f.name for f in fields(MetricsReport)]
    for key in [*data, *keys]:  # an unknown key is named before a missing one
        if key not in keys:
            raise named(path, f"unknown key {key!r}")
        if key not in data:
            raise named(path, KeyError(key))
    return MetricsReport(**data)


def write_aggregate(path: Path, cells: dict[str, list[Path]]) -> list[dict[str, str]]:
    """Write to `path` and return one row per name of `cells`, which lists
    that combination's cell directories in fold order: each metric of their
    `test.json` and `prediction.json` as mean (SEM) across folds in percent,
    like `62.1 (0.3)`, or `-` where no file has it."""
    rows = []
    for name, dirs in cells.items():
        reports = {subset: [read_metrics(f) for d in dirs if (f := d / f"{subset}.json").exists()]
                   for subset in ("test", "prediction")}
        row = {"combo": name}
        for subset, metric, column in AGGREGATE_COLUMNS:
            values = [v for r in reports[subset] if (v := getattr(r, metric)) is not None]
            row[column] = _format_cell(values)
        rows.append(row)
    _write_csv(path, AGGREGATE_HEADER, rows)
    return rows


def run_experiment(config: ExperimentConfig) -> list[dict[str, str]]:
    """Full pipeline: split, train, and evaluate every fold x combination,
    then aggregate its cells into a Table-style CSV. Returns the rows."""
    out = Path(config.out)
    if out.is_dir():
        for k, fold_dir in _fold_dirs(out):
            if k >= config.k_folds:  # `report` would average it in
                raise ValueError(f"{fold_dir} is left by an earlier run with more than "
                                 f"{config.k_folds} folds; remove it or choose another --out")
    taxonomy, dataset = load_experiment_data(config)
    splits = make_fold_splits(taxonomy, dataset, config.k_folds, config.seed)
    check_pool_sizes(splits)
    if not config.dataset:
        save_taxonomy(out / "data" / "taxonomy.json", taxonomy)
        save_dataset(out / "data" / "dataset.jsonl", dataset)
    for split in splits:
        fold_dir = out / f"fold_{split.fold_index}"
        _write_json(fold_dir / "split.json", split_to_json(taxonomy, split))
        for combo in config.combos:
            run_dir = fold_dir / combo_name(combo)
            model, _ = train_cell(taxonomy, dataset, split, config, combo, run_dir)
            for subset in ("test", "prediction"):
                report = evaluate_model(model, taxonomy, dataset, split, subset)
                _write_json(run_dir / f"{subset}.json", report.to_json())
    # the cells run, in config order
    cells = {combo_name(c): [out / f"fold_{s.fold_index}" / combo_name(c) for s in splits]
             for c in config.combos}
    return write_aggregate(out / "aggregate.csv", cells)


# -- subcommands -----------------------------------------------------------------


def cmd_gen_data(args) -> None:
    config = load_experiment_config(args.config, {"seed": args.seed})
    out = Path(args.out)
    taxonomy, dataset = generate(config.synth)
    save_taxonomy(out / "taxonomy.json", taxonomy)
    save_dataset(out / "dataset.jsonl", dataset)
    print(f"wrote {out / 'taxonomy.json'} ({len(taxonomy)} nodes, "
          f"{len(taxonomy.leaf_ids)} leaves) and {out / 'dataset.jsonl'} "
          f"({len(dataset)} samples)")


def cmd_split(args) -> None:
    taxonomy, dataset = load_labeled_data(args.taxonomy, args.dataset)
    splits = make_fold_splits(taxonomy, dataset, args.folds, args.seed)
    out = Path(args.out)
    for split in splits:
        _write_json(out / f"split_fold_{split.fold_index}.json", split_to_json(taxonomy, split))
    print(f"wrote {len(splits)} fold splits under {out}")


def cmd_sample_triplets(args) -> None:
    taxonomy, dataset = load_labeled_data(args.taxonomy, args.dataset)
    split = load_split(args.split, taxonomy, dataset)
    try:
        pruned = pruned_seen_taxonomy(taxonomy, split)
        triples = enumerate_node_triples(pruned)
        instances = instantiate_epoch(pruned, dataset, split, triples, args.epoch_seed)
    except (SplitError, SamplerError) as err:  # a partition too small to sample from
        raise named(args.split, err, type(err)) from None
    out = Path(args.out)
    with atomic_open(out) as fh:
        for triple, inst in zip(triples, instances):
            fh.write(
                json.dumps(
                    {
                        "anchor": inst.anchor_id,
                        "positive": inst.positive_id,
                        "negative": inst.negative_id,
                        "anchor_node": triple.anchor_node,
                        "positive_node": triple.positive_node,
                        "negative_node": triple.negative_node,
                        "anchor_node_name": pruned.name(triple.anchor_node),
                        "positive_node_name": pruned.name(triple.positive_node),
                        "negative_node_name": pruned.name(triple.negative_node),
                    }
                )
                + "\n"
            )
    print(f"wrote {len(instances)} triplets to {out}")


def cmd_train(args) -> None:
    overrides = {"seed": args.seed, "taxonomy": args.taxonomy, "dataset": args.dataset}
    config = load_experiment_config(args.config, overrides)
    taxonomy, dataset = load_experiment_data(config)
    split = load_split(args.split, taxonomy, dataset)
    if args.fold is not None and args.fold != split.fold_index:
        raise SplitError(f"{args.split}: the split is for fold {split.fold_index}, not --fold {args.fold}")
    combo = parse_combo(args.losses)
    if combo not in VALID_COMBOS:
        raise SystemExit(f"unsupported loss combination {args.losses!r}")
    paths = None
    if config.taxonomy:
        paths = {"taxonomy": config.taxonomy, "dataset": config.dataset, "split": args.split}
    out = Path(args.out)
    try:
        _, log = train_cell(taxonomy, dataset, split, config, combo, out, paths)
    except (SplitError, SamplerError) as err:  # a partition too small to train on
        raise named(args.split, err, type(err)) from None
    print(f"trained {combo_name(combo)} fold {split.fold_index}: "
          f"final validation loss {log[-1]['val_total']:.4f}; wrote {out / 'checkpoint.json'}")


def cmd_evaluate(args) -> None:
    model, extra = load_checkpoint(args.checkpoint)
    paths = {key: getattr(args, key) or extra.get(key) for key in ("taxonomy", "dataset", "split")}
    for label, value in paths.items():
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{args.checkpoint}: 'extra' records {label} {value!r}, not a path")
        if not value:
            raise SystemExit(f"--{label} required (checkpoint does not record a {label} path)")
    taxonomy, dataset = load_labeled_data(paths["taxonomy"], paths["dataset"])
    # the heads name nodes of the training tree; the embedder reads fixed-length features
    names = {taxonomy.name(nid) for nid in range(len(taxonomy))}
    height = taxonomy.height_and_diameter()[0]
    for head in model.layout.heads():
        unknown = [name for name in head.classes if name not in names]
        if unknown:
            raise ValueError(f"{args.checkpoint}: head {head.name} class {unknown[0]!r} "
                             f"is not a node of {paths['taxonomy']}")
        if head.level is not None and not 1 <= head.level <= height:
            raise ValueError(f"{args.checkpoint}: head {head.name} is not at a level "
                             f"1-{height} of {paths['taxonomy']}")
    width = model.config.input_dim
    if dataset and len(dataset[0].features) != width:
        raise ValueError(f"{args.checkpoint}: the model reads {width} features, but the samples "
                         f"of {paths['dataset']} have {len(dataset[0].features)}")
    split = load_split(paths["split"], taxonomy, dataset)
    try:
        check_pool_sizes([split], subsets=(args.set,))
    except MetricError as err:
        raise named(paths["split"], err, MetricError) from None
    # only the pool is kept: the other samples and the sidecar's feature block,
    # which views of its rows would hold, are freed before the ranking
    pool = [replace(s, features=s.features.copy()) for s in partition_samples(dataset, split, args.set)]
    del dataset
    if not args.diagnostics:
        report = evaluate_model(model, taxonomy, pool, split, args.set)
    else:
        report, rows = _evaluate_ranked(model, taxonomy, pool, split, args.set, diagnostics=True)
        _write_csv(Path(args.diagnostics), list(rows[0]), rows)
    _write_json(Path(args.out), report.to_json())
    print(f"wrote {args.set} metrics to {args.out}")


def _fold_dirs(runs: Path) -> list[tuple[int, Path]]:
    """The `fold_<k>` directories in `runs` as (k, path), in k order."""
    folds = []
    for d in runs.iterdir():
        if d.is_dir() and d.name.startswith("fold_"):
            index = d.name.removeprefix("fold_")
            if not (index.isascii() and index.isdigit()):
                raise ValueError(f"{d.name!r} in {runs} is not a fold_<number> directory")
            folds.append((int(index), d))
    return sorted(folds)


def cmd_report(args) -> None:
    runs = Path(args.runs)
    cells: dict[str, list[Path]] = {}
    for _, fold_dir in _fold_dirs(runs):
        for run_dir in sorted(d for d in fold_dir.iterdir() if d.is_dir()):
            if (run_dir / "test.json").exists() or (run_dir / "prediction.json").exists():
                cells.setdefault(run_dir.name, []).append(run_dir)
    known = [combo_name(c) for c in VALID_COMBOS]
    names = sorted(cells, key=lambda n: (known.index(n) if n in known else len(known), n))
    write_aggregate(Path(args.out), {name: cells[name] for name in names})
    print(f"wrote aggregate of {sum(map(len, cells.values()))} runs to {args.out}")


def cmd_run(args) -> None:
    overrides = {"seed": args.seed, "out": args.out}
    config = load_experiment_config(args.config, overrides)
    try:
        rows = run_experiment(config)
    except (SplitError, SamplerError, MetricError) as err:  # data that do not fit the config
        raise (named(args.config, err, type(err)) if args.config else err) from None
    if rows:
        columns = list(rows[0].keys())
        widths = [max(len(c), max(len(r[c]) for r in rows)) for c in columns]
        print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
        for row in rows:
            print("  ".join(row[c].ljust(w) for c, w in zip(columns, widths)))


def _one_blas_thread() -> contextlib.ExitStack:
    """Set the OpenBLAS that numpy loaded to one thread until the returned
    stack closes. A training step's products (96 x 32 x 186 on a 180-leaf
    tree) cross OpenBLAS's threading threshold but are too small to pay for a
    second thread, which spin-waits between steps. Other BLAS are left alone."""
    stack = contextlib.ExitStack()
    with contextlib.suppress(OSError):  # no /proc (not Linux), or a mapped file since deleted
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip()
                            for line in maps if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                         "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
                get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
                if get and put:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    stack.callback(put, get())
                    put(1)
                    break
    return stack


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="hieremb",
        description="Hierarchy-aware embedding learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic taxonomy and dataset")
    p.add_argument("--config", help="experiment config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the base seed")
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("split", help="write per-fold seen/unseen splits")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--folds", type=int, default=ExperimentConfig.k_folds)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("sample-triplets", help="dump one epoch's triplets as JSON Lines")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--epoch-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_sample_triplets)

    p = sub.add_parser("train", help="train one fold and loss combination")
    p.add_argument("--config", help="experiment config file")
    p.add_argument("--taxonomy")
    p.add_argument("--dataset")
    p.add_argument("--split", required=True, help="split JSON for the fold")
    p.add_argument("--fold", type=int, help="if given, must equal the split file's fold")
    p.add_argument("--losses", required=True, help="e.g. PL+T")
    p.add_argument("--seed", type=int, help="override the base seed")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="compute metrics for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--taxonomy", help="defaults to the path recorded in the checkpoint")
    p.add_argument("--dataset", help="defaults to the path recorded in the checkpoint")
    p.add_argument("--split", help="defaults to the path recorded in the checkpoint")
    p.add_argument("--set", choices=["test", "prediction"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--diagnostics", help="also dump per-query ranks and NDCG as CSV")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("report", help="aggregate per-run metrics into a CSV")
    p.add_argument("--runs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("run", help="run the whole experiment pipeline")
    p.add_argument("--config", help="experiment config file")
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--seed", type=int, help="override the base seed")
    p.set_defaults(handler=cmd_run)

    args = parser.parse_args(argv)
    with _one_blas_thread():  # library callers keep their own threading
        args.handler(args)


if __name__ == "__main__":
    main(sys.argv[1:])
