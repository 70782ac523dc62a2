from dataclasses import replace

import numpy as np
import pytest

from hieremb.datasplit import make_fold_splits, partition_samples
from hieremb.losses import LossConfig, log_softmax
from hieremb.model import (
    AdamState,
    EmbeddingModel,
    ModelConfig,
    TrainState,
    batch_loss_and_grads,
    build_head_layout,
    build_target_table,
    fit,
    load_checkpoint,
    save_checkpoint,
    train_step,
)
from hieremb.sampler import enumerate_node_triples, instantiate_epoch
from hieremb.synthdata import SynthConfig, generate
from hieremb.taxonomy import parse_taxonomy

from conftest import all_train_split
from harness import FIVE_LEAF_DOC, clustered_samples, grad_check_max_err, train_valid_split


def five_leaf_problem(active, per_leaf=6, dim=8, seed=0):
    tax = parse_taxonomy(FIVE_LEAF_DOC)
    samples = clustered_samples(tax, per_leaf=per_leaf, dim=dim, seed=seed)
    split = all_train_split(tax, samples)
    config = LossConfig(active=frozenset(active))
    layout = build_head_layout(tax, samples, config)
    table = build_target_table(tax, layout, samples)
    model = EmbeddingModel.initialise(
        ModelConfig(input_dim=dim, hidden_dim=16, embedding_dim=4), config, layout, seed=1
    )
    return tax, samples, split, layout, table, model


class TestHeadLayout:
    def test_head_presence_matches_active_losses(self):
        for active, leaf, levels, binary in [
            ({"L"}, True, 0, False),
            ({"PL"}, False, 2, False),
            ({"B"}, False, 0, True),
            ({"T"}, False, 0, False),
            ({"L", "PL", "B", "T"}, True, 2, True),
        ]:
            _, _, _, layout, _, _ = five_leaf_problem(active)
            assert (layout.leaf is not None) == leaf
            assert len(layout.levels) == levels
            assert (layout.binary is not None) == binary

    def test_leaf_head_classes(self):
        _, _, _, layout, _, _ = five_leaf_problem({"L"})
        assert layout.leaf.classes == ["a1", "a2", "b1", "b2", "c1"]
        assert np.mean(layout.leaf.class_weights) == pytest.approx(1.0)

    def test_level_head_classes(self):
        _, _, _, layout, _, _ = five_leaf_problem({"PL"})
        assert [h.level for h in layout.levels] == [1, 2]
        assert layout.levels[0].classes == ["A", "B", "C"]
        assert layout.levels[1].classes == ["a1", "a2", "b1", "b2", "c1"]

    def test_binary_head_nodes(self):
        _, _, _, layout, _, _ = five_leaf_problem({"B"})
        assert layout.binary.nodes == ["A", "a1", "a2", "B", "b1", "b2", "C", "c1"]
        assert np.mean(layout.binary.node_weights) == pytest.approx(1.0)


class TestTargets:
    def test_targets_on_five_leaf_tree(self):
        tax, samples, _, layout, table, _ = five_leaf_problem({"L", "PL", "B"})
        for i, sample in enumerate(samples):
            assert layout.leaf.classes[table.class_targets["leaf"][i]] == sample.leaf
            level1 = layout.levels[0]
            parent = tax.name(tax.parent(tax.id_of(sample.leaf)))
            assert level1.classes[table.class_targets[level1.name][i]] == parent
            member_names = [
                n for n, m in zip(layout.binary.nodes, table.binary_membership[i]) if m
            ]
            assert member_names == [parent, sample.leaf]


class TestForward:
    def test_shapes(self):
        model = EmbeddingModel.initialise(
            ModelConfig(input_dim=16, hidden_dim=32, embedding_dim=8),
            LossConfig(active=frozenset({"T"})),
            build_head_layout(
                parse_taxonomy(FIVE_LEAF_DOC),
                clustered_samples(parse_taxonomy(FIVE_LEAF_DOC), 2, 16),
                LossConfig(active=frozenset({"T"})),
            ),
            seed=0,
        )
        emb, logits = model.forward(np.zeros(16))
        assert emb.shape == (8,)
        assert logits == {}

    def test_head_logit_shapes(self):
        _, _, _, layout, _, model = five_leaf_problem({"L", "PL", "B"})
        _, logits = model.forward(np.zeros(8))
        assert logits["leaf"].shape == (5,)
        assert logits["level_1"].shape == (3,)
        assert logits["level_2"].shape == (5,)
        assert logits["binary"].shape == (8,)

    def test_zero_weights_leave_biases(self):
        _, _, _, _, _, model = five_leaf_problem({"L"})
        for key in model.params:
            if key.endswith(".W"):
                model.params[key][:] = 0.0
        model.params["embed.2.b"][:] = 1.25
        emb1, _ = model.forward(np.zeros(8))
        emb2, _ = model.forward(np.ones(8) * 9.0)
        assert np.allclose(emb1, 1.25)
        assert np.array_equal(emb1, emb2)

    def test_dimension_mismatch(self):
        _, _, _, _, _, model = five_leaf_problem({"L"})
        with pytest.raises(ValueError, match="expected"):
            model.forward(np.zeros(9))

    def test_deterministic(self):
        _, _, _, _, _, m1 = five_leaf_problem({"L"})
        _, _, _, _, _, m2 = five_leaf_problem({"L"})
        x = np.linspace(-1, 1, 8)
        e1, l1 = m1.forward(x)
        e2, l2 = m2.forward(x)
        assert np.array_equal(e1, e2)
        assert np.array_equal(l1["leaf"], l2["leaf"])


class TestGradients:
    @pytest.mark.parametrize("active", [{"T"}, {"L"}, {"PL"}, {"B"}, {"L", "PL", "B", "T"}])
    def test_full_model_gradients(self, active):
        for seed in (0, 1, 2):
            assert grad_check_max_err(active, seed) < 1e-4


class TestTrainStep:
    def test_satisfied_triplets_leave_parameters_unchanged(self):
        # identity-ish embedder: colinear inputs keep their ray structure
        tax = parse_taxonomy({"name": "root", "children": [{"name": "p"}, {"name": "n"}]})
        from hieremb.dataset import LabeledSample

        samples = [
            LabeledSample(id="a", leaf="p", features=np.array([0.01, 0.0])),
            LabeledSample(id="b", leaf="p", features=np.array([0.02, 0.0])),
            LabeledSample(id="c", leaf="n", features=np.array([-0.01, 0.0])),
            LabeledSample(id="d", leaf="n", features=np.array([-0.02, 0.0])),
        ]
        split = all_train_split(tax, samples)
        config = LossConfig(active=frozenset({"T"}), margin=0.3)
        layout = build_head_layout(tax, samples, config)
        table = build_target_table(tax, layout, samples)
        model = EmbeddingModel.initialise(
            ModelConfig(input_dim=2, hidden_dim=2, embedding_dim=2), config, layout, seed=0
        )
        model.params["embed.1.W"] = np.eye(2)
        model.params["embed.2.W"] = np.eye(2)
        before = model.clone_params()
        triples = enumerate_node_triples(tax)
        instances = instantiate_epoch(tax, samples, split, triples, epoch_seed=0)
        state = TrainState(model=model, adam=AdamState.for_params(model.params))
        state, value = train_step(state, instances, table)
        assert value.total == 0.0
        for key in before:
            assert np.array_equal(before[key], state.model.params[key])

    def test_leaf_config_loss_decreases_on_separable_data(self):
        # sanity oracle: a hand-rolled single-layer softmax trainer must also
        # be able to drive its loss down on the same data
        tax, samples, split, layout, table, model = five_leaf_problem(
            {"L"}, per_leaf=8, seed=3
        )
        X = np.stack([s.features for s in samples])
        y = table.class_targets["leaf"]
        rng = np.random.default_rng(0)
        W = rng.normal(0, 0.1, size=(8, 5))
        b = np.zeros(5)
        oracle_losses = []
        for _ in range(30):
            logp = log_softmax(X @ W + b)
            oracle_losses.append(-logp[np.arange(len(y)), y].mean())
            probs = np.exp(logp)
            probs[np.arange(len(y)), y] -= 1
            grad = probs / len(y)
            W -= 0.5 * (X.T @ grad)
            b -= 0.5 * grad.sum(axis=0)
        assert oracle_losses[-1] < oracle_losses[0]

        triples = enumerate_node_triples(tax)
        state = TrainState(model=model, adam=AdamState.for_params(model.params))
        step_losses = []
        for step in range(5):
            instances = instantiate_epoch(tax, samples, split, triples, epoch_seed=step)
            state, value = train_step(state, instances, table)
            step_losses.append(value.total)
        assert step_losses[-1] < step_losses[0]

    def test_empty_batch_rejected(self):
        _, _, _, _, table, model = five_leaf_problem({"L"})
        state = TrainState(model=model, adam=AdamState.for_params(model.params))
        with pytest.raises(ValueError, match="empty batch"):
            train_step(state, [], table)


def synthetic_experiment(seed=0):
    config = SynthConfig(
        depth=3,
        branching=((3, 3), (3, 4)),
        samples_per_leaf=(12, 16),
        feature_dim=8,
        offset_scale=2.0,
        decay=0.7,
        noise=0.3,
        seed=seed,
    )
    tax, samples = generate(config)
    split = make_fold_splits(tax, samples, k_folds=5, seed=seed)[0]
    return tax, samples, split


class TestFit:
    def test_zero_epochs_returns_initialised_model(self):
        tax, samples, split = synthetic_experiment()
        model_config = ModelConfig(input_dim=8, hidden_dim=16, embedding_dim=8)
        model, log = fit(
            samples, tax, split, LossConfig(active=frozenset({"L"})), model_config, 0, seed=4
        )
        assert log == []
        reference = EmbeddingModel.initialise(
            model_config, model.loss_config, model.layout, seed=[4, 1]
        )
        for key in reference.params:
            assert np.array_equal(reference.params[key], model.params[key])

    def test_deterministic(self):
        tax, samples, split = synthetic_experiment()
        model_config = ModelConfig(input_dim=8, hidden_dim=16, embedding_dim=8)
        loss_config = LossConfig(active=frozenset({"PL", "T"}))
        m1, log1 = fit(samples, tax, split, loss_config, model_config, 3, seed=5)
        m2, log2 = fit(samples, tax, split, loss_config, model_config, 3, seed=5)
        assert log1 == log2
        for key in m1.params:
            assert np.array_equal(m1.params[key], m2.params[key])

    def test_non_finite_validation_loss_raises(self):
        # one NaN validation sample makes every validation total NaN, which no
        # epoch can beat: fit must say so instead of returning initial weights
        tax, samples, split = synthetic_experiment()
        bad = partition_samples(samples, split, "valid")[0]
        samples = [
            replace(s, features=np.full_like(s.features, np.nan)) if s is bad else s
            for s in samples
        ]
        model_config = ModelConfig(input_dim=8, hidden_dim=16, embedding_dim=8)
        with pytest.raises(FloatingPointError, match="validation loss at epoch 0"):
            fit(samples, tax, split, LossConfig(active=frozenset({"PL"})), model_config, 2, seed=6)

    def test_best_snapshot_not_worse_than_final(self):
        tax, samples, split = synthetic_experiment()
        model_config = ModelConfig(input_dim=8, hidden_dim=16, embedding_dim=8)
        _, log = fit(
            samples, tax, split, LossConfig(active=frozenset({"PL"})), model_config, 8, seed=6
        )
        best = min(row["val_total"] for row in log)
        assert best <= log[-1]["val_total"]

    def test_validation_accuracy_on_separable_data(self):
        # the tiny tree yields few steps per epoch, so train with a larger rate
        tax, samples, split = synthetic_experiment(seed=1)
        model_config = ModelConfig(
            input_dim=8, hidden_dim=32, embedding_dim=8, learning_rate=1e-2
        )
        model, _ = fit(
            samples, tax, split, LossConfig(active=frozenset({"PL"})), model_config, 30, seed=7
        )
        valid = partition_samples(samples, split, "valid")
        deepest = model.layout.levels[-1]
        _, logits, _ = model.forward_batch(np.stack([s.features for s in valid]))
        picks = logits[deepest.name].argmax(axis=1)
        accuracy = np.mean(
            [deepest.classes[i] == s.leaf for i, s in zip(picks, valid)]
        )
        assert accuracy > 0.9


class TestFlatTreeReduction:
    def test_leaf_and_per_level_losses_coincide(self):
        tax = parse_taxonomy(
            {"name": "root", "children": [{"name": f"l{i}"} for i in range(6)]}
        )
        samples = clustered_samples(tax, per_leaf=10, dim=6, seed=8)
        split = train_valid_split(tax, samples)
        model_config = ModelConfig(input_dim=6, hidden_dim=12, embedding_dim=4)
        model_l, log_l = fit(
            samples, tax, split, LossConfig(active=frozenset({"L"})), model_config, 4, seed=9
        )
        model_pl, log_pl = fit(
            samples, tax, split, LossConfig(active=frozenset({"PL"})), model_config, 4, seed=9
        )
        assert [row["train_L"] for row in log_l] == [row["train_PL"] for row in log_pl]
        assert [row["val_total"] for row in log_l] == [row["val_total"] for row in log_pl]
        params_l = sorted(model_l.params)
        params_pl = sorted(model_pl.params)
        for kl, kpl in zip(params_l, params_pl):
            assert np.array_equal(model_l.params[kl], model_pl.params[kpl])


class TestEmbedAll:
    def test_embeddings_for_every_sample(self):
        _, samples, _, _, _, model = five_leaf_problem({"L"})
        embeddings = model.embed_all(samples)
        assert set(embeddings) == {s.id for s in samples}
        assert all(v.shape == (4,) for v in embeddings.values())

    def test_pure_function_of_features(self):
        _, samples, _, _, _, model = five_leaf_problem({"L"})
        twin = samples[0].__class__(id="copy", leaf=samples[0].leaf, features=samples[0].features)
        embeddings = model.embed_all(samples + [twin])
        assert np.array_equal(embeddings["copy"], embeddings[samples[0].id])

    def test_empty_input(self):
        _, _, _, _, _, model = five_leaf_problem({"L"})
        assert model.embed_all([]) == {}


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        _, _, _, _, _, model = five_leaf_problem({"L", "PL", "B", "T"})
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, model, extra={"fold": 3})
        loaded, extra = load_checkpoint(path)
        assert extra == {"fold": 3}
        assert loaded.config == model.config
        assert loaded.loss_config == model.loss_config
        assert loaded.layout.leaf.classes == model.layout.leaf.classes
        assert [h.level for h in loaded.layout.levels] == [1, 2]
        assert loaded.layout.binary.nodes == model.layout.binary.nodes
        for key in model.params:
            assert np.array_equal(loaded.params[key], model.params[key])
        x = np.linspace(-0.5, 0.5, 8)
        e1, l1 = model.forward(x)
        e2, l2 = loaded.forward(x)
        assert np.array_equal(e1, e2)
        assert all(np.array_equal(l1[k], l2[k]) for k in l1)

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)
