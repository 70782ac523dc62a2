"""Workloads: the inputs one seed makes, one iteration through the hieremb
CLI, and the checks of what that iteration wrote.

Each tree is given an exact branching per level and an exact sample count
per leaf, so every seed yields the same amount of work; the seed changes
the tree's means, the features, the fold assignment and all training draws.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from hieremb import cli

REFERENCE = Path(__file__).resolve().parent / "reference.json"
ABS_TOL = 1e-4  # metric values may move by float reordering, not more
RANGE_SLACK = 1e-9  # a perfect NDCG can come out one rounding step above 1
DEFAULT_SEED = 0  # the seed whose metric values REFERENCE holds
STAGED_COMBO = "PL+B+T"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run": one `hieremb run`; "staged": the stage-by-stage chain
    config: dict  # config-file keys
    tiny: dict  # overrides for the self-test size

    def settings(self, tiny: bool) -> dict:
        return {**self.config, **self.tiny} if tiny else dict(self.config)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-default",
            "run",
            {
                "synth_depth": 4,
                "synth_branching": "3,4,4",
                "synth_samples_per_leaf": 30,
                "k_folds": 5,
                "combos": "L,PL+T,PL+B+T",
                "epochs": 12,
            },
            {"synth_branching": "2,2,3", "synth_samples_per_leaf": 12, "epochs": 1},
        ),
        Workload(
            "staged-large",
            "staged",
            {
                "synth_depth": 4,
                "synth_branching": "3,4,4",
                "synth_samples_per_leaf": 240,
                "k_folds": 5,
                "epochs": 20,
            },
            {"synth_branching": "2,2,3", "synth_samples_per_leaf": 12, "epochs": 1},
        ),
        Workload(
            "wide-tree",
            "run",
            {
                "synth_depth": 4,
                "synth_branching": "6,6,5",
                "synth_samples_per_leaf": 14,
                "k_folds": 5,
                "combos": STAGED_COMBO,
                "epochs": 2,
            },
            {"synth_branching": "3,3,2", "synth_samples_per_leaf": 12, "epochs": 1},
        ),
    )
}


@dataclass
class Op:
    """One fold x combination cell, the `run` command's aggregate, or one
    staged command, with the files it must leave behind."""

    name: str
    metric_files: dict[str, Path]  # subset -> metrics JSON
    other_files: tuple[Path, ...]
    combo: str | None = None
    error: str | None = None
    metrics: dict | None = None  # subset -> metric values, once checked


def write_config(path: Path, settings: dict) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))


def run_iteration(workload: Workload, seed: int, out: Path, tiny: bool) -> list[Op]:
    """Drive one iteration through `hieremb.cli.main`; return its ops with
    any exception recorded. Output checks are left to `check_ops`."""
    settings = workload.settings(tiny)
    out.mkdir(parents=True)
    config = out / "experiment.cfg"
    write_config(config, settings)
    if workload.kind == "run":
        commands = [("run", ["run", "--config", str(config), "--out", str(out / "runs"),
                             "--seed", str(seed)])]
        ops = _run_ops(out / "runs", settings)
    else:
        commands, ops = _staged_plan(out, config, settings, seed)
    by_name = {op.name: op for op in ops}
    for name, argv in commands:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
        except (Exception, SystemExit) as exc:
            # later ops then fail the check for the files they lack
            by_name[name].error = f"{type(exc).__name__}: {exc}"
            break
    return ops


def _run_ops(runs: Path, settings: dict) -> list[Op]:
    ops = []
    for fold in range(int(settings["k_folds"])):
        for combo in str(settings["combos"]).split(","):
            cell = runs / f"fold_{fold}" / combo
            ops.append(
                Op(
                    name=f"fold_{fold}/{combo}",
                    metric_files={s: cell / f"{s}.json" for s in ("test", "prediction")},
                    other_files=(cell / "checkpoint.json", cell / "log.csv",
                                 runs / f"fold_{fold}" / "split.json"),
                    combo=combo,
                )
            )
    ops.append(Op(name="run", metric_files={}, other_files=(runs / "aggregate.csv",)))
    return ops


def _staged_plan(out: Path, config: Path, settings: dict, seed: int):
    data, splits, run = out / "data", out / "splits", out / "run"
    taxonomy, dataset = data / "taxonomy.json", data / "dataset.jsonl"
    folds = int(settings["k_folds"])
    checkpoint = run / "checkpoint.json"
    commands = [
        ("gen-data", ["gen-data", "--config", str(config), "--out", str(data),
                      "--seed", str(seed)]),
        ("split", ["split", "--taxonomy", str(taxonomy), "--dataset", str(dataset),
                   "--folds", str(folds), "--seed", str(seed), "--out", str(splits)]),
        ("train", ["train", "--config", str(config), "--taxonomy", str(taxonomy),
                   "--dataset", str(dataset), "--split", str(splits / "split_fold_0.json"),
                   "--fold", "0", "--losses", STAGED_COMBO, "--seed", str(seed),
                   "--out", str(run)]),
    ]
    ops = [
        Op("gen-data", {}, (taxonomy, dataset)),
        Op("split", {}, tuple(splits / f"split_fold_{i}.json" for i in range(folds))),
        Op("train", {}, (checkpoint, run / "log.csv")),
    ]
    for subset in ("test", "prediction"):
        name = f"evaluate-{subset}"
        target = run / f"{subset}.json"
        commands.append((name, ["evaluate", "--checkpoint", str(checkpoint),
                                "--set", subset, "--out", str(target)]))
        ops.append(Op(name, {subset: target}, (), combo=STAGED_COMBO))
    return commands, ops


# -- output checks ------------------------------------------------------------------

# Metrics each subset must report for a combination with a leaf or level head
# (every combination the workloads train), and those needing level heads.
REQUIRED = {
    "test": ("leaf_f1", "leaf_rp_at_5", "mnr", "ndcg_sum", "ndcg_max"),
    "prediction": ("acc_blind", "ndcg_sum", "ndcg_max"),
}
REQUIRED_WITH_LEVELS = {"test": (), "prediction": ("acc_aware",)}


def _range_errors(subset: str, combo: str, values: dict) -> list[str]:
    errors = []
    required = REQUIRED[subset]
    if "PL" in combo.split("+"):
        required += REQUIRED_WITH_LEVELS[subset]
    for key in required:
        if values.get(key) is None:
            errors.append(f"{subset}.{key} missing")
    for key, value in values.items():
        if value is None:
            continue
        upper = math.inf if key == "ratio_blind_aware" else 1.0
        if not (
            isinstance(value, (int, float))
            and math.isfinite(value)
            and -RANGE_SLACK <= value <= upper + RANGE_SLACK
        ):
            errors.append(f"{subset}.{key}={value!r} out of range")
    return errors


def _reference_errors(subset: str, values: dict, expected: dict) -> list[str]:
    errors = []
    for key in sorted(set(values) | set(expected)):
        got, want = values.get(key), expected.get(key)
        if (got is None) != (want is None) or (
            got is not None and abs(got - want) > ABS_TOL
        ):
            errors.append(f"{subset}.{key}={got!r}, reference {want!r}")
    return errors


def check_ops(ops: list[Op], reference: dict | None) -> None:
    """Fill each op's `error` when a file is missing or a metric is out of
    range or, given `reference` (op name -> subset -> values), off it."""
    for op in ops:
        if op.error:
            continue
        missing = [p.name for p in (*op.other_files, *op.metric_files.values()) if not p.is_file()]
        if missing:
            op.error = f"missing {', '.join(missing)}"
            continue
        op.metrics = {}
        errors = []
        for subset, path in op.metric_files.items():
            try:
                values = json.loads(path.read_text())
            except ValueError as exc:
                errors.append(f"{path.name} is not JSON: {exc}")
                continue
            op.metrics[subset] = values
            range_errors = _range_errors(subset, op.combo, values)
            errors += range_errors
            if reference is not None and not range_errors:
                expected = reference.get(op.name, {}).get(subset)
                if expected is None:
                    errors.append(f"no reference for {subset}")
                else:
                    errors += _reference_errors(subset, values, expected)
        if errors:
            op.error = "; ".join(errors)


def check_repeat(ops: list[Op], first: list[Op]) -> None:
    """Mark ops whose metrics differ from the run's first iteration: one
    seed must give the same outputs every time."""
    for op, earlier in zip(ops, first):
        if op.error is None and earlier.metrics is not None and op.metrics != earlier.metrics:
            op.error = "metrics differ from the first iteration of this run"


def load_reference(workload: Workload, seed: int, tiny: bool) -> dict | None:
    """Op name -> subset -> metric values expected of this run, if any."""
    if tiny or seed != DEFAULT_SEED:
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload.name]
