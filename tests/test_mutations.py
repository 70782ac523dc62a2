"""Structured mutations of every input file the commands read.

Each derandomised example copies one set of inputs (a taxonomy, a dataset
with its sidecar, a fold split, a trained checkpoint, a config file, a
`run` config naming the taxonomy and the dataset, and a two-fold runs
directory), mutates one file and runs a command on the copy through
`cli.main`. It truncates the file, deletes a key (or a line), or swaps a
value for a string, a number, -1, NaN, a list, a dict or null; a fold
directory of the runs directory is renamed instead. Every outcome must be
one of two:
- success; when the mutation keeps the file's content (layout, key order,
  line order, a damaged sidecar), with the same output bytes as the
  unmutated inputs;
- a `ValueError` subclass or `SystemExit` whose message holds the mutated
  file's path. A file that its own reader accepts may instead be named at
  the other input it disagrees with: a dataset whose ids the split lacks is
  named at the split.
Anything else (a bare `KeyError`, `TypeError`, `AttributeError`,
`IndexError`, or a `JSONDecodeError` naming no file) fails the test.
"""
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hieremb.cli import main
from hieremb.dataset import load_dataset
from hieremb.taxonomy import load_taxonomy

CONFIG = {
    "synth_depth": "3",
    "synth_branching": "2-2,2-3",
    "synth_samples_per_leaf": "20-24",  # each fold's test pool then holds the 6 that `run` needs
    "synth_feature_dim": "4",
    "k_folds": "2",
    "combos": "PL+B+T",
    "epochs": "1",
    "seed": "0",
    "synth_seed": "0",
    "margin": "0.3",
    "hidden_dim": "8",
    "embedding_dim": "4",
    "learning_rate": "0.001",
    "batch_size": "8",
}
# what a swap puts in place of a value: a string, a number, -1, NaN, a
# list, a dict and null
SWAPS = ["x", 7, -1, math.nan, [1], {"k": 1}, None]
CONFIG_SWAPS = ["x", "7", "-1", "nan", "[1]", '{"k": 1}', ""]
OPS = ("truncate", "delete", "swap", "reformat")
MUTATION = st.tuples(st.sampled_from(OPS), st.integers(0, 2**20), st.integers(0, len(SWAPS) - 1))
# input key -> file under the inputs directory
FILES = {
    "taxonomy": "data/taxonomy.json",
    "dataset": "data/dataset.jsonl",
    "sidecar": "data/dataset.jsonl.npz",
    "split": "split_fold_0.json",
    "checkpoint": "cell/checkpoint.json",
    "config": "experiment.cfg",
    "run-config": "run.cfg",
    "test-metrics": "runs/fold_0/PL+B+T/test.json",
    "prediction-metrics": "runs/fold_1/PL+B+T/prediction.json",
    "fold": "runs/fold_1",
    "runs": "runs",
}
# the input whose path a fault in each of these must name
NAMED_AT = {"sidecar": "dataset", "fold": "runs"}
# what a fold directory is renamed to
FOLD_NAMES = ["fold_x", "fold_", "fold_-1", "fold_1.0", "fold_\u0661", "fold_01", "fold_2", "Fold_1"]
# the files `run` writes, under its output directory
RUN_OUTPUTS = ["aggregate.csv"] + [f"fold_{k}/{name}" for k in (0, 1) for name in (
    "split.json", "PL+B+T/checkpoint.json", "PL+B+T/log.csv", "PL+B+T/test.json", "PL+B+T/prediction.json")]
EXAMPLES = settings(max_examples=30, deadline=None, database=None, derandomize=True)


def command_line(command, work):
    """The argv of `command` on the inputs under `work`, and the files it writes."""
    paths = {key: str(work / name) for key, name in FILES.items()}
    inputs = ["--taxonomy", paths["taxonomy"], "--dataset", paths["dataset"],
              "--split", paths["split"]]
    out = work / "out"
    if command == "sample-triplets":
        return [command, *inputs, "--out", str(out / "triplets.jsonl")], ["triplets.jsonl"]
    if command == "evaluate":
        argv = [command, "--checkpoint", paths["checkpoint"], *inputs, "--set", "prediction",
                "--out", str(out / "prediction.json")]
        return argv, ["prediction.json"]
    if command == "train":
        argv = [command, "--config", paths["config"], *inputs, "--fold", "0",
                "--losses", "PL+B+T", "--out", str(out)]
        return argv, ["checkpoint.json", "log.csv"]
    if command == "run":
        return [command, "--config", paths["run-config"], "--out", str(out)], RUN_OUTPUTS
    if command == "report":
        return [command, "--runs", paths["runs"], "--out", str(out / "aggregate.csv")], ["aggregate.csv"]
    assert command == "gen-data"
    argv = [command, "--config", paths["config"], "--out", str(out)]
    return argv, ["taxonomy.json", "dataset.jsonl", "dataset.jsonl.npz"]


@pytest.fixture(scope="module")
def stage(tmp_path_factory):
    """The unmutated inputs under `inputs`, a `work` directory each example
    refills, and the bytes each command writes from the unmutated inputs."""
    base = tmp_path_factory.mktemp("mutations")
    inputs = base / "inputs"
    inputs.mkdir()
    work = base / "work"
    (inputs / FILES["config"]).write_text("".join(f"{k} = {v}\n" for k, v in CONFIG.items()))
    # `run` reads the data at the paths under `work` that its config names;
    # the training size comes first, so that what a cut leaves trains little
    run_config = {k: CONFIG[k] for k in ("epochs", "combos", "k_folds")}
    run_config |= {k: v for k, v in CONFIG.items() if not k.startswith("synth_")}
    run_config |= {"taxonomy": work / FILES["taxonomy"], "dataset": work / FILES["dataset"]}
    (inputs / FILES["run-config"]).write_text("".join(f"{k} = {v}\n" for k, v in run_config.items()))
    main(["gen-data", "--config", str(inputs / FILES["config"]), "--out", str(inputs / "data")])
    main(["split", "--taxonomy", str(inputs / FILES["taxonomy"]),
          "--dataset", str(inputs / FILES["dataset"]), "--folds", "2", "--out", str(inputs)])
    for command, out in (("train", "cell"), ("run", "runs")):
        shutil.copytree(inputs, work)
        argv, _ = command_line(command, work)
        main(argv)  # the checkpoint records the paths under `work`, as every example sees them
        shutil.copytree(work / "out", inputs / out)
        shutil.rmtree(work)
    baseline = {}
    for command in ("sample-triplets", "evaluate", "train", "gen-data", "run", "report"):
        shutil.copytree(inputs, work)
        argv, outputs = command_line(command, work)
        main(argv)
        baseline[command] = {name: (work / "out" / name).read_bytes() for name in outputs}
        shutil.rmtree(work)
    return inputs, work, baseline


def locations(value, path=()):
    """The path of `value` and of every value inside it; of a list or dict
    with more than eight entries (parameters, a partition) only the first
    and the last are entered."""
    yield path
    keys = list(value) if isinstance(value, dict) else range(len(value)) if isinstance(value, list) else []
    for key in keys if len(keys) <= 8 else [keys[0], keys[-1]]:
        yield from locations(value[key], path + (key,))


def edit_json(value, op, n, k):
    """`value` with the value at one location (picked by `n`) swapped for
    `SWAPS[k]` or deleted, or with every object's keys reversed."""
    if op == "reformat":  # the same content: keys reversed, another layout
        def reverse(v):
            if isinstance(v, dict):
                return {key: reverse(v[key]) for key in reversed(v)}
            return [reverse(x) for x in v] if isinstance(v, list) else v
        return reverse(value)
    places = list(locations(value))
    if op == "delete":
        places = places[1:]
        if not places:
            return value
    path = places[n % len(places)]
    if not path:  # the whole value
        return SWAPS[k]
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = SWAPS[k]
    return value


def mutate(kind, path, mutation):
    """Apply `mutation` to the `kind` input at `path`; True if the file's
    content is kept (its parse or its role is unchanged)."""
    op, n, k = mutation
    if kind == "fold":  # the same content when the name still reads as a fold number
        name = FOLD_NAMES[(n + k) % len(FOLD_NAMES)]
        path.rename(path.with_name(name))
        return name in ("fold_01", "fold_2")
    data = path.read_bytes()
    if op == "truncate":
        # an empty `run` config runs the default grid, which takes seconds
        path.write_bytes(data[:n % len(data) or int(kind == "run-config")])
        return kind == "sidecar"
    if kind == "sidecar":
        arrays = dict(np.load(path))
        name = sorted(arrays)[n % len(arrays)]
        if op == "delete":
            del arrays[name]
        elif op == "swap":
            arrays[name] = np.array(SWAPS[k])  # null and the dict are pickled objects
        else:  # the same arrays, stored compressed
            np.savez_compressed(path, **arrays)
            return True
        np.savez(path, **arrays)
        return True
    if kind.endswith("config"):
        lines = data.decode().splitlines()
        if op == "reformat":
            body = [f"  {line.replace(' = ', '=')}  # comment" for line in reversed(lines)]
            path.write_text("\n\n".join(["# reordered"] + body) + "\n")
            return True
        i = n % len(lines)
        if op == "delete":
            del lines[i]
        else:
            lines[i] = lines[i].split("=")[0] + "= " + CONFIG_SWAPS[k]
        path.write_text("\n".join(lines) + "\n")
        return False
    if kind == "dataset":
        records = [json.loads(line) for line in data.splitlines()]
        if op == "reformat":  # compact records, CRLF line ends, a blank line
            lines = [json.dumps(edit_json(r, op, n, k), separators=(",", ":")) for r in records]
            path.write_bytes("\r\n".join(lines[:2] + [""] + lines[2:]).encode() + b"\r\n")
            return True
        i = [0, len(records) // 2, len(records) - 1][n % 3]
        if op == "delete" and n % 7 == 0:
            del records[i]  # a whole record
        else:
            records[i] = edit_json(records[i], op, n // 3, k)
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return False
    document = edit_json(json.loads(data), op, n, k)
    path.write_text(json.dumps(document, indent=1 if op == "reformat" else None))
    return op == "reformat"


def reads_alone(kind, path) -> bool:
    """Whether the mutated taxonomy or dataset passes its own reader's checks;
    a fault in any other file is always named at that file."""
    readers = {"taxonomy": load_taxonomy, "dataset": load_dataset}
    if kind not in readers:
        return False
    try:
        readers[kind](path)
    except ValueError:
        return False
    return True


def check(stage, kind, command, mutation):
    inputs, work, baseline = stage
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(inputs, work)
    target = work / FILES[kind]
    kept = mutate(kind, target, mutation)
    argv, outputs = command_line(command, work)
    try:
        main(argv)
    except (ValueError, SystemExit) as err:
        message = str(err)
        assert not isinstance(err, (json.JSONDecodeError, UnicodeDecodeError)), message
        checked = str(work / FILES[NAMED_AT.get(kind, kind)])
        named_inputs = [key for key, name in FILES.items() if str(work / name) in message]
        assert not kept, f"{mutation} keeps the content of {kind}, but: {message}"
        assert checked in message or (named_inputs and reads_alone(kind, target)), message
        return
    if kept:
        for name in outputs:
            assert (work / "out" / name).read_bytes() == baseline[command][name], name


@pytest.mark.parametrize("command", ["sample-triplets", "evaluate"])
@EXAMPLES
@given(mutation=MUTATION)
def test_taxonomy(stage, command, mutation):
    check(stage, "taxonomy", command, mutation)


@pytest.mark.parametrize("command", ["sample-triplets", "evaluate"])
@EXAMPLES
@given(mutation=MUTATION)
def test_dataset(stage, command, mutation):
    check(stage, "dataset", command, mutation)


@EXAMPLES
@given(mutation=MUTATION)
def test_sidecar(stage, mutation):
    check(stage, "sidecar", "sample-triplets", mutation)


@pytest.mark.parametrize("command", ["sample-triplets", "evaluate"])
@EXAMPLES
@given(mutation=MUTATION)
def test_split(stage, command, mutation):
    check(stage, "split", command, mutation)


@EXAMPLES
@given(mutation=MUTATION)
def test_checkpoint(stage, mutation):
    check(stage, "checkpoint", "evaluate", mutation)


@pytest.mark.parametrize("command", ["train", "gen-data"])
@EXAMPLES
@given(mutation=MUTATION)
def test_config(stage, command, mutation):
    check(stage, "config", command, mutation)


@pytest.mark.parametrize("kind", ["taxonomy", "dataset", "sidecar", "run-config"])
@EXAMPLES
@given(mutation=MUTATION)
def test_run(stage, kind, mutation):
    check(stage, kind, "run", mutation)


@pytest.mark.parametrize("kind", ["test-metrics", "prediction-metrics", "fold"])
@EXAMPLES
@given(mutation=MUTATION)
def test_report(stage, kind, mutation):
    check(stage, kind, "report", mutation)
