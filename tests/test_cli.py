import csv
import ctypes
import json
import os
import re
import runpy
import subprocess
import sys
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hieremb import cli
from hieremb.cli import (
    VALID_COMBOS,
    ExperimentConfig,
    config_from_values,
    evaluate_model,
    load_experiment_config,
    main,
    parse_branching,
    parse_int_range,
    read_config_file,
    run_experiment,
)
from hieremb.dataset import features_matrix, save_dataset
from hieremb.datasplit import SplitError, make_fold_splits, partition_samples, split_to_json
from hieremb.losses import LossConfig
from hieremb.metrics import MetricError, build_ranked_lists, per_query_diagnostics, score_pool
from hieremb.model import ModelConfig, fit, save_checkpoint
from hieremb.sampler import SamplerError
from hieremb.synthdata import SynthConfig, generate
from hieremb.taxonomy import TaxonomyError, parse_taxonomy, save_taxonomy

from conftest import make_samples, t0_document

TINY_SYNTH = {
    "synth_depth": "3",
    "synth_branching": "2-2,2-3",
    "synth_samples_per_leaf": "60-70",
    "synth_feature_dim": "8",
    "synth_offset_scale": "2.0",
    "synth_decay": "0.7",
    "synth_noise": "0.3",
}


def write_config(path, extra=None):
    values = dict(TINY_SYNTH)
    values.update(
        {"k_folds": "2", "epochs": "2", "seed": "0", "combos": "L,PL+T",
         "hidden_dim": "16", "embedding_dim": "8"}
    )
    values.update(extra or {})
    path.write_text("# test config\n" + "\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")
    return path


# every field name of the three configs, `input_dim`, `model` and `synth`
# among them, which are not keys, and two other unknown keys
CONFIG_KEYS = ([f.name for f in fields(ExperimentConfig)] + [f.name for f in fields(ModelConfig)]
               + [f"synth_{f.name}" for f in fields(SynthConfig)] + ["colour", "synth_input_dim"])
FLOAT_KEYS = {"margin", "learning_rate", "synth_offset_scale", "synth_decay", "synth_noise"}
GOOD_VALUES = {"out": ["runs"], "taxonomy": [""], "dataset": [""], "combos": ["", "L,PL+T"],
               "synth_branching": ["2-2,2-3", "3-4"], "synth_samples_per_leaf": ["20-40", "7"]}
BAD_VALUES = ["", " ", "-1", "0", "1", "2.5", "nan", "inf", "x", "1-2-3", ",", "B", "L+T,T+L", "t.json"]


@st.composite
def config_values(draw):
    keys = draw(st.lists(st.sampled_from(CONFIG_KEYS), unique=True, max_size=6))
    good = {key: ["0.5", "1"] if key in FLOAT_KEYS else ["2", "5"] for key in keys} | GOOD_VALUES
    return {key: draw(st.one_of(st.sampled_from(good[key]), st.sampled_from(BAD_VALUES)))
            for key in keys}


class TestConfigParsing:
    def test_read_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("a = 1\n# comment\nb = two  # trailing\n\nc=3\n")
        assert read_config_file(path) == {"a": "1", "b": "two", "c": "3"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ValueError, match="key = value"):
            read_config_file(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        # the last value used to win: this file trained 3 epochs
        path = tmp_path / "exp.cfg"
        path.write_text("epochs = 1\nseed = 0\n\nepochs = 3\n")
        error = f"{path}:4: 'epochs' is already set on line 1"
        with pytest.raises(ValueError, match=re.escape(error)):
            read_config_file(path)

    def test_bytes_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"epochs = 1\nseed = \xff\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: 'utf-8' codec can't decode byte 0xff")):
            read_config_file(path)

    def test_ranges(self):
        assert parse_int_range("3-4") == (3, 4)
        assert parse_int_range("7") == (7, 7)
        assert parse_branching("3-4,2-2") == ((3, 4), (2, 2))

    def test_defaults_and_overrides(self, tmp_path):
        path = write_config(tmp_path / "exp.cfg")
        config = load_experiment_config(str(path), {"seed": 9})
        assert config.seed == 9
        assert config.k_folds == 2
        assert config.synth.branching == ((2, 2), (2, 3))
        assert config.synth.seed == 9  # synth seed follows the effective base seed
        assert [c for c in config.combos] == [frozenset({"L"}), frozenset({"PL", "T"})]
        pinned = load_experiment_config(str(path), {"seed": 9, "synth_seed": 4})
        assert pinned.synth.seed == 4

    def test_unknown_key_rejected(self, tmp_path):
        # a misspelt key used to be ignored, leaving its default in force
        path = write_config(tmp_path / "exp.cfg", {"epoch": "1"})
        with pytest.raises(ValueError, match=r"exp\.cfg: unknown config keys: epoch$"):
            load_experiment_config(str(path))
        with pytest.raises(ValueError, match="unknown config keys: colour, epoch$"):
            config_from_values({"epochs": "1", "epoch": "1", "colour": "red"})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("hidden_dim", "0", "hidden_dim must be an integer of at least 1, got 0"),
            ("embedding_dim", "-1", "embedding_dim must be an integer of at least 1, got -1"),
            ("batch_size", "0", "batch_size must be an integer of at least 1, got 0"),
            ("learning_rate", "0", "learning_rate must be positive and finite, got 0.0"),
            ("batch_size", "2.5", "batch_size: invalid literal for int() with base 10: '2.5'"),
            # these were read, and training or splitting failed naming no file
            ("epochs", "0", "epochs must be at least 1, got 0"),
            ("k_folds", "1", "k_folds must be at least 2, got 1"),
            ("seed", "-1", "seed must be at least 0, got -1"),
            ("synth_seed", "-1", "seed must be at least 0, got -1"),
            ("margin", "-1", "margin must be positive, got -1.0"),
            ("margin", "nan", "margin must be positive, got nan"),
            # these were read, and training failed on an infinite loss or
            # writing the dataset on non-finite features, naming no file
            ("margin", "inf", "margin must be finite, got inf"),
            ("synth_noise", "nan", "scales must be non-negative and finite: noise is nan"),
            ("synth_offset_scale", "inf", "scales must be non-negative and finite: offset_scale is inf"),
            # parsed to no combination, and `run` trained nothing
            ("combos", ",", "combos lists no loss combination"),
            ("synth_branching", "1-2-3", "synth_branching: bad range '1-2-3', expected 'lo-hi'"),
            ("synth_feature_dim", "1", "feature_dim must be at least 2"),
            ("synth_offset_scale", "-1", "scales must be non-negative"),
            # used to fail in load_experiment_data, naming no file
            ("taxonomy", "taxonomy.json", "taxonomy and dataset paths must be given together"),
        ],
    )
    def test_invalid_model_setting_names_the_file(self, tmp_path, key, value, message):
        path = write_config(tmp_path / "exp.cfg", {key: value})
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_experiment_config(str(path))

    def test_defaults_come_from_the_dataclasses(self):
        config = config_from_values({})
        assert config == ExperimentConfig()
        assert config.model == ModelConfig()
        assert config.synth == SynthConfig(seed=0)

    def test_readme_sample_config_is_accepted(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        sample = re.search(r"with `experiment.cfg`:\n\n```ini\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "experiment.cfg"
        path.write_text(sample)
        # and its values are the defaults
        assert load_experiment_config(str(path)) == ExperimentConfig()

    def test_invalid_combo_rejected(self):
        with pytest.raises(ValueError, match="six supported"):
            config_from_values({"combos": "B"})
        with pytest.raises(ValueError, match="six supported"):
            ExperimentConfig(combos=(frozenset({"B", "T"}),))

    def test_repeated_combo_rejected(self, tmp_path):
        # `L+T,T+L` used to train one cell twice into one directory and write
        # two identical L+T rows
        path = write_config(tmp_path / "exp.cfg", {"combos": "L+T,PL,T+L"})
        with pytest.raises(ValueError, match=re.escape(f"{path}: 'L+T' is listed more than once")):
            load_experiment_config(str(path))

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(values=config_values(), overrides=st.dictionaries(
        st.sampled_from(["seed", "synth_seed", "out", "taxonomy"]), st.sampled_from([None, 3, -1, "t.json"]),
        max_size=2))
    # several bad values: the first read is named
    @example(values={"epochs": "x", "seed": "x", "combos": "X"}, overrides={})
    @example(values={"k_folds": "1", "synth_depth": "0", "hidden_dim": "0", "colour": "red"}, overrides={})
    def test_reader_equals_the_oracle(self, values, overrides):
        # every key, its parser and its default are read through the dataclass
        # fields; the oracle writes out each experiment key by hand
        from oracles import config_oracle

        def outcome(reader):
            try:
                return repr(reader(values, overrides))  # `nan` settings compare equal
            except Exception as err:  # the same type and text, or the same config
                return type(err), str(err)

        assert outcome(config_from_values) == outcome(config_oracle)


@pytest.fixture(scope="module", name="trained")
def fixture_trained():
    config = SynthConfig(
        depth=3, branching=((2, 2), (2, 3)), samples_per_leaf=(60, 70),
        feature_dim=8, offset_scale=2.0, decay=0.7, noise=0.3, seed=0,
    )
    tax, samples = generate(config)
    from hieremb.datasplit import make_fold_splits

    split = make_fold_splits(tax, samples, k_folds=2, seed=0)[0]
    model_config = ModelConfig(input_dim=8, hidden_dim=16, embedding_dim=8)
    models = {}
    for combo in (frozenset({"L"}), frozenset({"PL", "T"})):
        models[combo], _ = fit(
            samples, tax, split, LossConfig(active=combo), model_config, 2, seed=0
        )
    return tax, samples, split, models


class TestEvaluateModel:
    def test_test_set_report(self, trained):
        tax, samples, split, models = trained
        report = evaluate_model(models[frozenset({"PL", "T"})], tax, samples, split, "test")
        assert report.leaf_f1 is not None
        assert report.leaf_rp_at_5 is not None
        assert 0.0 <= report.mnr < 1.0
        assert 0.0 <= report.ndcg_sum <= 1.0
        assert report.acc_blind is None

    def test_subset_other_than_test_or_prediction_rejected(self, trained):
        tax, samples, split, models = trained
        with pytest.raises(ValueError, match="^subset must be 'test' or 'prediction'$"):
            evaluate_model(models[frozenset({"L"})], tax, samples, split, "valid")

    def test_empty_partition_rejected(self, trained):
        tax, samples, split, models = trained
        split = replace(split, partition={k: "train" if v == "test" else v for k, v in split.partition.items()})
        with pytest.raises(MetricError, match="^the test partition is empty$"):
            evaluate_model(models[frozenset({"L"})], tax, samples, split, "test")

    def test_prediction_set_report_l_only_has_no_acc_aware(self, trained):
        tax, samples, split, models = trained
        report = evaluate_model(models[frozenset({"L"})], tax, samples, split, "prediction")
        assert report.acc_blind is not None
        assert report.acc_aware is None
        assert report.ratio_blind_aware is None
        assert report.mnr is None

    def test_prediction_set_report_pl_has_acc_aware(self, trained):
        tax, samples, split, models = trained
        report = evaluate_model(
            models[frozenset({"PL", "T"})], tax, samples, split, "prediction"
        )
        assert report.acc_aware is not None
        if report.acc_aware > 0:
            assert report.ratio_blind_aware == pytest.approx(
                report.acc_blind / report.acc_aware
            )


    @pytest.mark.parametrize("subset", ["test", "prediction"])
    def test_diagnostics_reuse_the_ranking(self, trained, tmp_path, monkeypatch, subset):
        tax, samples, split, models = trained
        model = models[frozenset({"PL", "T"})]
        save_taxonomy(tmp_path / "taxonomy.json", tax)
        save_dataset(tmp_path / "dataset.jsonl", samples)
        (tmp_path / "split.json").write_text(json.dumps(split_to_json(tax, split)))
        save_checkpoint(tmp_path / "checkpoint.json", model)

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_ranked_lists(*args, **kwargs)

        monkeypatch.setattr(cli, "build_ranked_lists", counted)
        diag = tmp_path / "diag.csv"
        main([
            "evaluate",
            "--checkpoint", str(tmp_path / "checkpoint.json"),
            "--taxonomy", str(tmp_path / "taxonomy.json"),
            "--dataset", str(tmp_path / "dataset.jsonl"),
            "--split", str(tmp_path / "split.json"),
            "--set", subset,
            "--out", str(tmp_path / "metrics.json"),
            "--diagnostics", str(diag),
        ])
        assert len(calls) == 1

        # the same rows as ranking the pool anew and reducing it directly
        pool = partition_samples(samples, split, subset)
        leaf_of = {s.id: tax.leaf_id_for(s) for s in pool}
        ids = [s.id for s in pool]
        embeddings, _, _ = model.forward_batch(features_matrix(pool))
        ranked = build_ranked_lists(dict(zip(ids, embeddings)), ids)
        expected = [
            {k: "" if v is None else str(v) for k, v in row.items()}
            for row in per_query_diagnostics(ranked, score_pool(ranked, tax, leaf_of))
        ]
        with open(diag, newline="") as fh:
            assert list(csv.DictReader(fh)) == expected
        report = evaluate_model(model, tax, samples, split, subset)
        assert json.loads((tmp_path / "metrics.json").read_text()) == report.to_json()

    @pytest.mark.parametrize("diagnostics", [False, True])
    @pytest.mark.parametrize("subset", ["test", "prediction"])
    def test_evaluate_hands_over_only_the_pool(self, trained, tmp_path, monkeypatch,
                                               subset, diagnostics):
        # the other samples, and the sidecar block their features are rows
        # of, are not kept while the pool is ranked
        _, samples, split, _ = trained
        _, _, checkpoint = write_stage_inputs(tmp_path, trained)
        handed = []
        for name in ("evaluate_model", "_evaluate_ranked"):
            def record(model, taxonomy, dataset, *args, _wrapped=getattr(cli, name), **kwargs):
                handed.append(dataset)
                return _wrapped(model, taxonomy, dataset, *args, **kwargs)

            monkeypatch.setattr(cli, name, record)
        argv = ["evaluate", "--checkpoint", str(checkpoint), "--set", subset,
                "--out", str(tmp_path / "metrics.json")]
        main(argv + (["--diagnostics", str(tmp_path / "diag.csv")] if diagnostics else []))
        pool = partition_samples(samples, split, subset)
        assert handed  # `evaluate_model` hands its list on to `_evaluate_ranked`
        assert all([s.id for s in dataset] == [s.id for s in pool] for dataset in handed)
        for loaded, sample in zip(handed[0], pool):
            assert loaded.features.base is None
            assert np.array_equal(loaded.features, sample.features)


class TestRunExperiment:
    def test_layout_and_aggregate(self, tmp_path):
        config = load_experiment_config(
            str(write_config(tmp_path / "exp.cfg")), {"out": str(tmp_path / "runs")}
        )
        rows = run_experiment(config)
        out = tmp_path / "runs"
        for fold in (0, 1):
            assert (out / f"fold_{fold}" / "split.json").exists()
            for combo in ("L", "PL+T"):
                run_dir = out / f"fold_{fold}" / combo
                for name in ("checkpoint.json", "log.csv", "test.json", "prediction.json"):
                    assert (run_dir / name).exists()
        assert (out / "aggregate.csv").exists()
        assert [r["combo"] for r in rows] == ["L", "PL+T"]
        l_row = rows[0]
        assert l_row["pred_acc_aware"] == "-"  # undefined without PL heads
        assert l_row["pred_ratio"] == "-"
        pl_row = rows[1]
        assert pl_row["pred_acc_aware"] != "-"
        # cells look like "12.3 (0.4)"
        assert "(" in l_row["test_leaf_f1"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path / "exp.cfg", {"epochs": "1", "combos": "L"})
        config = load_experiment_config(str(cfg_path), {"out": str(tmp_path / "runs")})
        run_experiment(config)
        first = (tmp_path / "runs" / "aggregate.csv").read_bytes()
        run_experiment(config)
        second = (tmp_path / "runs" / "aggregate.csv").read_bytes()
        assert first == second

    def test_zero_epochs_writes_no_checkpoint(self, tmp_path):
        cfg_path = write_config(tmp_path / "exp.cfg", {"epochs": "0", "combos": "L"})
        with pytest.raises(ValueError, match="epochs must be at least 1"):
            main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")])
        assert not list(tmp_path.glob("runs/**/checkpoint.json"))

    def test_too_small_fold_fails_before_writing(self, tmp_path):
        # fold 1 of this tree holds 4 test samples, too few for RP@5; the
        # run used to train and write cells before finding that out
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "synth_depth = 3\nsynth_branching = 2-3,2-3\nsynth_samples_per_leaf = 8-30\n"
            "synth_feature_dim = 8\nk_folds = 3\nepochs = 1\nseed = 1\ncombos = L\n"
            "hidden_dim = 16\nembedding_dim = 8\n"
        )
        with pytest.raises(
            MetricError, match="fold 1: the test partition holds 4 samples; its metrics need at least 6"
        ):
            main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")])
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("run", "margin", "inf", "margin must be finite, got inf"),
            ("run", "synth_noise", "nan", "scales must be non-negative and finite: noise is nan"),
            ("gen-data", "synth_noise", "nan", "scales must be non-negative and finite: noise is nan"),
        ],
    )
    def test_non_finite_setting_refused_when_the_config_is_read(self, tmp_path, command, key,
                                                               value, message):
        # `run` trained until the loss was infinite, and both commands wrote
        # NaN features until `save_dataset` refused them; neither named the file
        cfg_path = write_config(tmp_path / "exp.cfg", {key: value, "combos": "L+T"})
        with pytest.raises(ValueError, match=f"^{re.escape(f'{cfg_path}: {message}')}$"):
            main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fault", ["empty", "small"])
    def test_dataset_too_small_for_the_folds_names_the_config(self, tmp_path, fault):
        # the data do not fit `k_folds`: the error names the config that asked for it
        tax, samples = generate(SynthConfig(depth=3, branching=((2, 2), (2, 3)),
                                            samples_per_leaf=(16, 18), feature_dim=4, seed=0))
        save_taxonomy(tmp_path / "taxonomy.json", tax)
        save_dataset(tmp_path / "dataset.jsonl", [] if fault == "empty" else samples)
        paths = {"taxonomy": tmp_path / "taxonomy.json", "dataset": tmp_path / "dataset.jsonl"}
        cfg_path = write_config(tmp_path / "exp.cfg", paths)
        error, message = {
            "empty": (SplitError, "no leaf has enough samples to ever be seen"),
            "small": (MetricError, "fold 0: the test partition holds 3 samples; its metrics need at least 6"),
        }[fault]
        with pytest.raises(error, match=f"^{re.escape(f'{cfg_path}: {message}')}$"):
            main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")])


class TestReport:
    def test_stray_fold_directory_is_named(self, tmp_path):
        runs = tmp_path / "runs"
        (runs / "fold_0" / "L").mkdir(parents=True)
        (runs / "fold_old").mkdir()
        (runs / "fold_notes.txt").write_text("a file, not a fold\n")
        out = tmp_path / "aggregate.csv"
        with pytest.raises(
            ValueError, match=re.escape(f"'fold_old' in {runs} is not a fold_<number> directory")
        ):
            main(["report", "--runs", str(runs), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"mnr": "x"}', "'mnr' is 'x', not a finite number or null"),
            ("not json", "not a JSON file: Expecting value"),
            ("[1,2]", "not a JSON object"),
            ('{"mnr": 1e999}', "'mnr' is inf, not a finite number or null"),
            ('{"mnr": true}', "'mnr' is True, not a finite number or null"),
            ('{"leaf_f1x": 0.5}', "unknown key 'leaf_f1x'"),
            ("{}", "missing key 'leaf_f1'"),
        ],
        ids=["string", "not-json", "list", "overflow", "bool", "unknown-key", "empty"],
    )
    def test_bad_metric_file_is_named(self, tmp_path, text, error):
        # these used to escape as a bare TypeError, JSONDecodeError or
        # AttributeError, or to be aggregated as inf or 1; the last two
        # as a row of '-'
        runs = tmp_path / "runs"
        (runs / "fold_0" / "L").mkdir(parents=True)
        bad = runs / "fold_0" / "L" / "test.json"
        bad.write_text(text)
        out = tmp_path / "aggregate.csv"
        with pytest.raises(ValueError, match=re.escape(f"{bad}: {error}")):
            main(["report", "--runs", str(runs), "--out", str(out)])
        assert not out.exists()

    def test_report_on_a_run_writes_its_aggregate(self, tmp_path):
        # combos in canonical order: `run` and `report` aggregate one way
        runs = tmp_path / "runs"
        main(["run", "--config", str(write_config(tmp_path / "exp.cfg")), "--out", str(runs)])
        main(["report", "--runs", str(runs), "--out", str(tmp_path / "report.csv")])
        assert (tmp_path / "report.csv").read_bytes() == (runs / "aggregate.csv").read_bytes()

    def test_run_refuses_a_stale_fold(self, tmp_path):
        # a 3-fold run, then a 2-fold run into the same directory: `report`
        # would average the first run's fold_2 into the second's aggregate
        cfg = write_config(tmp_path / "exp.cfg", {"k_folds": "3", "epochs": "1", "combos": "L"})
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")])
        before = {p: p.read_bytes() for p in (tmp_path / "runs").rglob("*") if p.is_file()}
        cfg = write_config(tmp_path / "exp.cfg", {"k_folds": "2", "epochs": "1", "combos": "L"})
        stale = tmp_path / "runs" / "fold_2"
        with pytest.raises(ValueError, match=f"^{re.escape(str(stale))} is left by an earlier run"):
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")])
        # refused before anything is trained or written
        assert {p: p.read_bytes() for p in (tmp_path / "runs").rglob("*") if p.is_file()} == before

    def test_run_keeps_the_config_combo_order(self, tmp_path):
        runs = tmp_path / "runs"
        config = load_experiment_config(
            str(write_config(tmp_path / "exp.cfg", {"combos": "PL+T,L"})), {"out": str(runs)}
        )
        rows = run_experiment(config)
        assert [row["combo"] for row in rows] == ["PL+T", "L"]
        with open(runs / "aggregate.csv", newline="") as fh:
            assert list(csv.DictReader(fh)) == rows
        # `report` orders the same rows canonically
        main(["report", "--runs", str(runs), "--out", str(tmp_path / "report.csv")])
        with open(tmp_path / "report.csv", newline="") as fh:
            assert list(csv.DictReader(fh)) == rows[::-1]


class TestSubcommandPipeline:
    def test_t0_triplet_dump(self, tmp_path):
        tax = parse_taxonomy(t0_document())
        samples = make_samples(tax, {"a1": 10, "a2": 10, "b1": 10}, dim=4)
        save_taxonomy(tmp_path / "taxonomy.json", tax)
        save_dataset(tmp_path / "dataset.jsonl", samples)
        split_payload = {
            "fold": 0,
            "seen": ["a1", "a2", "b1"],
            "unseen": [],
            "partition": {s.id: "train" for s in samples},
        }
        (tmp_path / "split.json").write_text(json.dumps(split_payload))
        out = tmp_path / "triplets.jsonl"
        main([
            "sample-triplets",
            "--taxonomy", str(tmp_path / "taxonomy.json"),
            "--dataset", str(tmp_path / "dataset.jsonl"),
            "--split", str(tmp_path / "split.json"),
            "--epoch-seed", "0",
            "--out", str(out),
        ])
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 5
        assert {tuple((l["anchor_node_name"], l["positive_node_name"], l["negative_node_name"])) for l in lines} == {
            ("a1", "a2", "B"),
            ("a2", "a1", "B"),
            ("b1", "b1", "A"),
            ("a1", "a1", "a2"),
            ("a2", "a2", "a1"),
        }
        for line in lines:
            assert {"anchor", "positive", "negative"} <= set(line)

    def test_stage_pipeline_matches_run_experiment(self, tmp_path):
        cfg_path = write_config(tmp_path / "exp.cfg", {"combos": "PL+T"})
        # one-shot driver
        config = load_experiment_config(str(cfg_path), {"out": str(tmp_path / "auto")})
        run_experiment(config)

        # staged pipeline with the same seeds
        data_dir = tmp_path / "data"
        main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)])
        splits_dir = tmp_path / "splits"
        main([
            "split",
            "--taxonomy", str(data_dir / "taxonomy.json"),
            "--dataset", str(data_dir / "dataset.jsonl"),
            "--folds", "2", "--seed", "0",
            "--out", str(splits_dir),
        ])
        run_dir = tmp_path / "manual" / "fold_0" / "PL+T"
        auto_dir = tmp_path / "auto" / "fold_0" / "PL+T"
        # `run`'s cell function writes the cell's four files as `run` does,
        # and with no subsets only the two that `train` writes
        taxonomy, dataset = cli.load_experiment_data(config)
        split = make_fold_splits(taxonomy, dataset, config.k_folds, config.seed)[0]
        four = ["checkpoint.json", "log.csv", "prediction.json", "test.json"]
        for subsets, names in ((("test", "prediction"), four), ((), four[:2])):
            cell = tmp_path / "cell" / f"{len(subsets)}-subsets"
            cli.run_cell(taxonomy, dataset, split, config, frozenset({"PL", "T"}), cell, subsets)
            assert sorted(p.name for p in cell.iterdir()) == names
            for name in names:
                assert (cell / name).read_bytes() == (auto_dir / name).read_bytes()
        main([
            "train",
            "--config", str(cfg_path),
            "--taxonomy", str(data_dir / "taxonomy.json"),
            "--dataset", str(data_dir / "dataset.jsonl"),
            "--split", str(splits_dir / "split_fold_0.json"),
            "--fold", "0", "--losses", "PL+T",
            "--out", str(run_dir),
        ])
        # the staged cell is run's cell: the same log, and the same checkpoint
        # but for the data paths echoed into it
        assert (run_dir / "log.csv").read_bytes() == (auto_dir / "log.csv").read_bytes()
        staged = json.loads((run_dir / "checkpoint.json").read_text())
        assert staged["extra"].pop("taxonomy") == str(data_dir / "taxonomy.json")
        assert staged["extra"].pop("dataset") == str(data_dir / "dataset.jsonl")
        assert staged["extra"].pop("split") == str(splits_dir / "split_fold_0.json")
        assert staged == json.loads((auto_dir / "checkpoint.json").read_text())
        for subset in ("test", "prediction"):
            main([
                "evaluate",
                "--checkpoint", str(run_dir / "checkpoint.json"),
                "--taxonomy", str(data_dir / "taxonomy.json"),
                "--dataset", str(data_dir / "dataset.jsonl"),
                "--split", str(splits_dir / "split_fold_0.json"),
                "--set", subset,
                "--out", str(run_dir / f"{subset}.json"),
            ])
            auto = (auto_dir / f"{subset}.json").read_bytes()
            manual = (run_dir / f"{subset}.json").read_bytes()
            assert auto == manual

        report_out = tmp_path / "manual_aggregate.csv"
        main(["report", "--runs", str(tmp_path / "manual"), "--out", str(report_out)])
        with open(report_out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["combo"] == "PL+T"

        # evaluate can fall back to the paths echoed in the checkpoint and
        # dump per-query diagnostics
        diag = tmp_path / "diag.csv"
        main([
            "evaluate",
            "--checkpoint", str(run_dir / "checkpoint.json"),
            "--set", "test",
            "--out", str(tmp_path / "fallback_test.json"),
            "--diagnostics", str(diag),
        ])
        fallback = json.loads((tmp_path / "fallback_test.json").read_text())
        direct = json.loads((run_dir / "test.json").read_text())
        assert fallback == direct
        with open(diag) as fh:
            diag_rows = list(csv.DictReader(fh))
        assert {"query", "ndcg_sum", "ndcg_max"} <= set(diag_rows[0])
        assert all(r["query"] for r in diag_rows)

    def test_split_files_round_trip(self, tmp_path):
        config = SynthConfig(
            depth=2, branching=((4, 4),), samples_per_leaf=(12, 15),
            feature_dim=4, seed=2,
        )
        tax, samples = generate(config)
        save_taxonomy(tmp_path / "taxonomy.json", tax)
        save_dataset(tmp_path / "dataset.jsonl", samples)
        main([
            "split",
            "--taxonomy", str(tmp_path / "taxonomy.json"),
            "--dataset", str(tmp_path / "dataset.jsonl"),
            "--folds", "2", "--seed", "1",
            "--out", str(tmp_path / "splits"),
        ])
        for fold in (0, 1):
            payload = json.loads((tmp_path / "splits" / f"split_fold_{fold}.json").read_text())
            assert payload["fold"] == fold
            assert set(payload["partition"].values()) <= {
                "train", "valid", "test", "prediction"
            }

    @pytest.mark.parametrize("command", ["sample-triplets", "train"])
    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"fold": 0, "unseen": [], "partition": {}}', "missing key 'seen'"),
            ('{"fold": 0, "seen": ["a1"', "not a JSON file: Expecting"),
            ("[]", "not a JSON object"),
            ('{"fold": 0, "seen": ["a1", "b1"], "unseen": ["a1", "a2"], "partition": {}}',
             "seen and unseen leaf sets overlap"),
            ('{"fold": 0, "seen": ["a1", "b1"], "unseen": ["a2"], '
             '"partition": {"s00000": "holdout"}}', "unknown partition subsets: ['holdout']"),
        ],
        ids=["missing-key", "truncated", "not-an-object", "overlap", "unknown-subset"],
    )
    def test_bad_split_file_is_named(self, tmp_path, command, text, error):
        tax = parse_taxonomy(t0_document())
        save_taxonomy(tmp_path / "taxonomy.json", tax)
        save_dataset(tmp_path / "dataset.jsonl", make_samples(tax, {"a1": 10}, dim=4))
        split = tmp_path / "split.json"
        split.write_text(text)
        argv = [
            command,
            "--taxonomy", str(tmp_path / "taxonomy.json"),
            "--dataset", str(tmp_path / "dataset.jsonl"),
            "--split", str(split),
            "--out", str(tmp_path / "out"),
        ]
        if command == "train":
            argv += ["--fold", "0", "--losses", "L"]
        with pytest.raises(SplitError, match=re.escape(f"{split}: {error}")):
            main(argv)


class TestSeedFlags:
    @pytest.mark.parametrize(
        "command, flag",
        [("split", "--seed"), ("sample-triplets", "--epoch-seed"), ("gen-data", "--seed"),
         ("train", "--seed"), ("run", "--seed")],
    )
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, command, flag):
        # `split` and `sample-triplets` used to end in numpy's "expected
        # non-negative integer", which names no flag
        tax = parse_taxonomy(t0_document())
        samples = make_samples(tax, {"a1": 10, "a2": 10, "b1": 10}, dim=4)
        save_taxonomy(tmp_path / "taxonomy.json", tax)
        save_dataset(tmp_path / "dataset.jsonl", samples)
        (tmp_path / "split.json").write_text(json.dumps(
            {"fold": 0, "seen": ["a1", "a2", "b1"], "unseen": [],
             "partition": {s.id: "train" for s in samples}}))
        data = ["--taxonomy", str(tmp_path / "taxonomy.json"),
                "--dataset", str(tmp_path / "dataset.jsonl")]
        split = ["--split", str(tmp_path / "split.json")]
        inputs = {"split": data, "sample-triplets": data + split, "train": split + ["--losses", "L"]}
        with pytest.raises(SystemExit) as exit_:
            main([command, flag, "-3", "--out", str(tmp_path / "out"), *inputs.get(command, [])])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: must be a non-negative integer, got -3\n")
        assert not (tmp_path / "out").exists()


class TestEntryPoint:
    def test_module_runs_as_a_script(self, monkeypatch, capsys):
        # the `__main__` guard that `python -m hieremb.cli` runs; runpy warns
        # that the module is imported already, a RuntimeWarning that the
        # test settings would turn into an error
        monkeypatch.setattr(sys, "argv", ["hieremb", "--help"])
        with pytest.warns(RuntimeWarning, match="found in sys.modules"), \
                pytest.raises(SystemExit) as exit_:
            runpy.run_module("hieremb.cli", run_name="__main__")
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hieremb [-h]")


def write_stage_inputs(tmp_path, trained):
    """The trained fixture's taxonomy, dataset and fold as the files a stage
    command reads, plus its L model's checkpoint recording their paths;
    returns the split file's path and payload and the checkpoint's path."""
    tax, samples, split, models = trained
    paths = {
        "taxonomy": str(tmp_path / "taxonomy.json"),
        "dataset": str(tmp_path / "dataset.jsonl"),
        "split": str(tmp_path / "split.json"),
    }
    save_taxonomy(paths["taxonomy"], tax)
    save_dataset(paths["dataset"], samples)
    payload = split_to_json(tax, split)
    Path(paths["split"]).write_text(json.dumps(payload))
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(checkpoint, models[frozenset({"L"})], extra=paths)
    return Path(paths["split"]), payload, checkpoint


class TestStageInputChecks:
    @pytest.mark.parametrize("command", ["sample-triplets", "train", "evaluate"])
    @pytest.mark.parametrize("fault", ["unseen-in-train", "seen-in-prediction", "missing", "ghost"])
    def test_inconsistent_split_is_named(self, trained, tmp_path, command, fault):
        # each used to fail later without naming the file, or not at all
        _, samples, _, _ = trained
        split, payload, checkpoint = write_stage_inputs(tmp_path, trained)
        partition = payload["partition"]
        unseen = next(s for s in samples if partition[s.id] == "prediction")
        seen = next(s for s in samples if partition[s.id] == "test")
        if fault == "unseen-in-train":
            partition[unseen.id] = "train"
            error = f"sample {unseen.id!r} is in 'train', but its leaf {unseen.leaf!r} is unseen"
        elif fault == "seen-in-prediction":
            partition[seen.id] = "prediction"
            error = f"sample {seen.id!r} is in 'prediction', but its leaf {seen.leaf!r} is seen"
        elif fault == "ghost":  # for example a split written for a larger dataset
            partition["ghost"] = "train"
            error = "sample 'ghost' in the partition is not in the dataset"
        else:
            del partition[seen.id]
            error = f"sample {seen.id!r} is missing from the partition"
        split.write_text(json.dumps(payload))
        if command == "evaluate":
            argv = ["evaluate", "--checkpoint", str(checkpoint), "--set", "prediction"]
        else:
            argv = [command, "--taxonomy", str(tmp_path / "taxonomy.json"),
                    "--dataset", str(tmp_path / "dataset.jsonl"), "--split", str(split)]
            if command == "train":
                argv += ["--fold", "0", "--losses", "L"]
        with pytest.raises(SplitError, match=re.escape(f"{split}: {error}")):
            main(argv + ["--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("command, fault", [("sample-triplets", "one-train-sample"),
                                                ("train", "one-train-sample"), ("train", "no-valid-sample")])
    def test_partition_too_small_is_named(self, trained, tmp_path, command, fault):
        # a consistent split that cannot be sampled from or trained on; the
        # error used to name no file
        _, samples, _, _ = trained
        split, payload, _ = write_stage_inputs(tmp_path, trained)
        partition = payload["partition"]
        if fault == "one-train-sample":  # the other train samples of one seen leaf move to valid
            leaf = next(s.leaf for s in samples if partition[s.id] == "train")
            for s in [s for s in samples if s.leaf == leaf and partition[s.id] == "train"][1:]:
                partition[s.id] = "valid"
            error, message = SamplerError, f"{split}: node {leaf!r} has too few train samples for triple"
        else:
            partition.update({sid: "train" for sid, subset in partition.items() if subset == "valid"})
            error, message = SplitError, f"{split}: fit requires non-empty train and valid partitions"
        split.write_text(json.dumps(payload))
        argv = [command, "--taxonomy", str(tmp_path / "taxonomy.json"), "--dataset", str(tmp_path / "dataset.jsonl"),
                "--split", str(split), "--out", str(tmp_path / "out")]
        if command == "train":
            argv += ["--losses", "L"]
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            main(argv)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fold", [None, 1, 2], ids=["left-out", "matching", "other"])
    def test_train_takes_its_fold_from_the_split(self, trained, tmp_path, fold):
        # fold 1's split trains, seeds and records fold 1, whatever `--fold` says, or stops
        split, payload, _ = write_stage_inputs(tmp_path, trained)
        split.write_text(json.dumps(payload | {"fold": 1}))
        out = tmp_path / "cell"
        argv = ["train", "--config", str(write_config(tmp_path / "exp.cfg")),
                "--taxonomy", str(tmp_path / "taxonomy.json"), "--dataset", str(tmp_path / "dataset.jsonl"),
                "--split", str(split), "--losses", "L", "--out", str(out)]
        if fold is not None:
            argv += ["--fold", str(fold)]
        if fold == 2:
            with pytest.raises(SplitError, match=f"^{re.escape(f'{split}: the split is for fold 1, not --fold 2')}$"):
                main(argv)
            assert not out.exists()
            return
        main(argv)
        extra = json.loads((out / "checkpoint.json").read_text())["extra"]
        assert (extra["fold"], extra["seed"]) == (1, 1)  # seed 0 + fold 1

    @pytest.mark.parametrize("command", ["split", "sample-triplets", "train", "evaluate", "run"])
    @pytest.mark.parametrize("fault", ["internal", "unknown"])
    def test_label_off_the_leaves_is_named(self, trained, tmp_path, command, fault):
        # each used to fail with a bare TaxonomyError naming no file
        tax, samples, _, _ = trained
        split, _, checkpoint = write_stage_inputs(tmp_path, trained)
        dataset = tmp_path / "dataset.jsonl"
        bad = samples[5]
        if fault == "internal":
            label = tax.name(tax.parent(tax.id_of(bad.leaf)))
            error = "an internal node as leaf label"
        else:
            label, error = "no-such-leaf", "unknown leaf label"
        save_dataset(dataset, [replace(s, leaf=label) if s is bad else s for s in samples])
        inputs = ["--taxonomy", str(tmp_path / "taxonomy.json"), "--dataset", str(dataset)]
        if command == "split":
            argv = ["split", *inputs, "--folds", "2"]
        elif command == "evaluate":
            argv = ["evaluate", "--checkpoint", str(checkpoint), "--set", "test"]
        elif command == "run":
            paths = {"taxonomy": inputs[1], "dataset": inputs[3]}
            argv = ["run", "--config", str(write_config(tmp_path / "run.cfg", paths))]
        else:
            argv = [command, *inputs, "--split", str(split)]
            if command == "train":
                argv += ["--fold", "0", "--losses", "L"]
        error = f"{dataset}: sample {bad.id!r} has {error} {label!r} in {tmp_path / 'taxonomy.json'}"
        with pytest.raises(TaxonomyError, match=re.escape(error)):
            main(argv + ["--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda payload: payload.update(extra=["taxonomy.json"]), "'extra' must be an object"),
            (lambda payload: payload["params"].__setitem__(3, float("nan")),
             "a parameter is not finite"),
            (lambda payload: payload["layout"]["leaf"]["weights"].__setitem__(1, float("inf")),
             "head leaf has a non-finite class weight"),
            (lambda payload: payload["extra"].update(taxonomy=True),
             "'extra' records taxonomy True, not a path"),
            (lambda payload: payload["extra"].update(split=["a"]),
             "'extra' records split ['a'], not a path"),
        ],
        ids=["extra-list", "nan-parameter", "inf-class-weight", "bool-path", "list-path"],
    )
    def test_malformed_checkpoint_is_named(self, trained, tmp_path, edit, error):
        # a list `extra` used to escape as an AttributeError, a NaN parameter
        # as a dead-embedding MetricError, and an inf weight was accepted; a
        # recorded path of `true` was opened as file descriptor 1 (stdout)
        # and closed it, and a list one escaped as a TypeError
        _, _, checkpoint = write_stage_inputs(tmp_path, trained)
        payload = json.loads(checkpoint.read_text())
        edit(payload)
        checkpoint.write_text(json.dumps(payload))
        argv = ["evaluate", "--checkpoint", str(checkpoint), "--set", "test"]
        with pytest.raises(ValueError, match=re.escape(f"{checkpoint}: {error}")):
            main(argv + ["--out", str(tmp_path / "test.json")])

    def test_checkpoint_of_another_tree_is_named(self, trained, tmp_path):
        # used to die in head_argmax on a TaxonomyError naming neither file
        tax, samples, split, models = trained
        _, _, checkpoint = write_stage_inputs(tmp_path, trained)
        old = models[frozenset({"L"})].layout.leaf.classes[0]
        other = tmp_path / "other"
        other.mkdir()
        inputs = {
            "taxonomy": other / "taxonomy.json",
            "dataset": other / "dataset.jsonl",
            "split": other / "split.json",
        }
        document = json.dumps(tax.to_document()).replace(json.dumps(old), '"renamed"')
        renamed = parse_taxonomy(json.loads(document))
        save_taxonomy(inputs["taxonomy"], renamed)
        save_dataset(inputs["dataset"],
                     [replace(s, leaf="renamed") if s.leaf == old else s for s in samples])
        inputs["split"].write_text(json.dumps(split_to_json(renamed, split)))
        argv = ["evaluate", "--checkpoint", str(checkpoint), "--set", "test"]
        argv += [arg for key, path in inputs.items() for arg in (f"--{key}", str(path))]
        error = f"{checkpoint}: head leaf class {old!r} is not a node of {inputs['taxonomy']}"
        with pytest.raises(ValueError, match=re.escape(error)):
            main(argv + ["--out", str(tmp_path / "test.json")])

    @pytest.mark.parametrize("level", [3, 7, 0, -1])
    def test_level_head_off_the_tree_is_named(self, trained, tmp_path, level):
        # level 7 used to be scored silently, and -1 only warned that
        # acc_aware skipped samples
        _, _, _, models = trained
        _, _, checkpoint = write_stage_inputs(tmp_path, trained)
        paths = json.loads(checkpoint.read_text())["extra"]
        save_checkpoint(checkpoint, models[frozenset({"PL", "T"})], extra=paths)
        payload = json.loads(checkpoint.read_text())
        payload["layout"]["levels"][0]["level"] = level
        checkpoint.write_text(json.dumps(payload))
        argv = ["evaluate", "--checkpoint", str(checkpoint), "--set", "prediction"]
        error = f"{checkpoint}: head level_{level} is not at a level 1-2 of {paths['taxonomy']}"
        with pytest.raises(ValueError, match=re.escape(error)):
            main(argv + ["--out", str(tmp_path / "prediction.json")])

    def test_test_pool_too_small_is_named(self, trained, tmp_path):
        # used to die inside rp_at_k with "every query needs at least 5
        # candidates", naming neither the split file nor the fold
        split, payload, checkpoint = write_stage_inputs(tmp_path, trained)
        partition = payload["partition"]
        for sid in [sid for sid, subset in partition.items() if subset == "test"][4:]:
            partition[sid] = "train"
        split.write_text(json.dumps(payload))
        argv = ["evaluate", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "m.json")]
        error = f"{split}: fold 0: the test partition holds 4 samples; its metrics need at least 6"
        with pytest.raises(ValueError, match=re.escape(error)):
            main(argv + ["--set", "test"])
        assert not (tmp_path / "m.json").exists()
        main(argv + ["--set", "prediction"])  # only the evaluated pool is checked
        assert json.loads((tmp_path / "m.json").read_text())["ndcg_sum"] is not None

    def test_unsupported_combination_is_named(self, trained, tmp_path):
        split, _, _ = write_stage_inputs(tmp_path, trained)
        argv = ["train", "--taxonomy", str(tmp_path / "taxonomy.json"),
                "--dataset", str(tmp_path / "dataset.jsonl"), "--split", str(split),
                "--fold", "0", "--losses", "L+B", "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit, match=re.escape("unsupported loss combination 'L+B'")):
            main(argv)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("given, missing", [
        ((), "taxonomy"), (("taxonomy",), "dataset"), (("taxonomy", "dataset"), "split"),
    ])
    def test_path_a_run_checkpoint_lacks_is_named(self, trained, tmp_path, given, missing):
        # `run` records fold, combination and seed in a checkpoint, no paths
        _, _, _, models = trained
        write_stage_inputs(tmp_path, trained)
        checkpoint = tmp_path / "run_checkpoint.json"
        save_checkpoint(checkpoint, models[frozenset({"L"})],
                        extra={"fold": 0, "combo": "L", "seed": 0})
        files = {"taxonomy": "taxonomy.json", "dataset": "dataset.jsonl"}
        argv = ["evaluate", "--checkpoint", str(checkpoint), "--set", "test",
                "--out", str(tmp_path / "test.json")]
        argv += [arg for key in given for arg in (f"--{key}", str(tmp_path / files[key]))]
        error = f"--{missing} required (checkpoint does not record a {missing} path)"
        with pytest.raises(SystemExit, match=re.escape(error)):
            main(argv)

    def test_dataset_of_another_feature_length_is_named(self, trained, tmp_path):
        # used to fail in forward_batch with a bare shape message
        _, samples, _, _ = trained
        _, _, checkpoint = write_stage_inputs(tmp_path, trained)
        dataset = tmp_path / "short.jsonl"
        save_dataset(dataset, [replace(s, features=s.features[:-1]) for s in samples])
        argv = ["evaluate", "--checkpoint", str(checkpoint), "--dataset", str(dataset)]
        error = f"{checkpoint}: the model reads 8 features, but the samples of {dataset} have 7"
        with pytest.raises(ValueError, match=re.escape(error)):
            main(argv + ["--set", "test", "--out", str(tmp_path / "test.json")])


@pytest.fixture(name="blas_threads")
def fixture_blas_threads():
    """The thread-count getter of the OpenBLAS numpy loaded, found through
    ctypes as perfbench/run.py finds it. The caller's count is 2 during the
    test, so that a command's 1 shows, and is put back afterwards."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get and put:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                before = get()
                put(2)
                assert get() == 2
                yield get
                put(before)
                return
    pytest.skip("numpy did not load OpenBLAS")


class TestBlasThreads:
    """Every command runs OpenBLAS on one thread, and gives the caller's
    count back when it ends, also when it raises."""

    def test_command_runs_on_one_thread(self, blas_threads, monkeypatch, tmp_path):
        seen = []
        monkeypatch.setattr(cli, "cmd_report", lambda args: seen.append(blas_threads()))
        main(["report", "--runs", str(tmp_path), "--out", str(tmp_path / "aggregate.csv")])
        assert seen == [1]
        assert blas_threads() == 2

    def test_count_restored_after_a_failing_command(self, blas_threads, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["evaluate", "--checkpoint", str(tmp_path / "missing.json"), "--set", "test",
                  "--out", str(tmp_path / "test.json")])
        assert blas_threads() == 2


class TestDependencies:
    def test_a_run_imports_only_numpy_and_the_standard_library(self, tmp_path):
        # numpy is the only runtime dependency; the interpreter's own start-up
        # (site hooks such as `_distutils_hack`) is left out of the count, and
        # so are the modules numpy's Cython extensions register for themselves
        config = write_config(tmp_path / "exp.cfg", {"k_folds": "2", "epochs": "1"})
        script = textwrap.dedent(f"""
            import sys
            before = set(sys.modules)
            from hieremb.cli import main
            main(["run", "--config", {str(config)!r}, "--out", {str(tmp_path / "run")!r}])
            added = {{name.partition(".")[0] for name in set(sys.modules) - before}}
            allowed = set(sys.stdlib_module_names) | {{"numpy", "hieremb", "cython_runtime"}}
            print(sorted(name for name in added - allowed if not name.startswith("_cython_")))
        """)
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert (tmp_path / "run" / "aggregate.csv").exists()
        assert result.stdout.splitlines()[-1] == "[]"
