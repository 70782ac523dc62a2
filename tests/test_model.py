import json
import re
from dataclasses import replace

import numpy as np
import pytest

import hieremb.dataset
import hieremb.losses
import hieremb.model
import hieremb.sampler
from hieremb.cli import VALID_COMBOS
from hieremb.datasplit import SplitError, make_fold_splits, partition_samples, pruned_seen_taxonomy
from hieremb.losses import LossConfig, combo_name
from hieremb.model import (
    AdamState,
    EmbeddingModel,
    ModelConfig,
    TrainState,
    adam_update,
    batch_loss_and_grads,
    build_head_layout,
    build_target_table,
    fit,
    load_checkpoint,
    save_checkpoint,
    train_step,
    triplet_rows,
    validation_loss,
)
from hieremb.sampler import enumerate_node_triples, instantiate_epoch
from hieremb.synthdata import SynthConfig, generate
from hieremb.taxonomy import parse_taxonomy

from conftest import all_train_split, make_samples
from harness import FIVE_LEAF_DOC, clustered_samples, grad_check_max_err, train_valid_split
from oracles import (
    ancestor_at_depth_oracle,
    depth_oracle,
    path_from_root,
    random_tree_doc,
    validation_loss_oracle,
)


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


class TestModelConfig:
    # a bad value used to train nothing without saying so (batch_size -1,
    # learning_rate 0), fail on a bare range() error (batch_size 0) or report
    # a dead embedding after a divide-by-zero warning (hidden_dim 0)
    @pytest.mark.parametrize("field", ["input_dim", "hidden_dim", "embedding_dim", "batch_size"])
    @pytest.mark.parametrize("value", [0, -1, 1.0])
    def test_sizes_below_one_or_not_integers_rejected(self, field, value):
        message = f"{field} must be an integer of at least 1, got {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("value", [0.0, -1e-3, float("nan"), float("inf")])
    def test_learning_rate_must_be_positive_and_finite(self, value):
        message = f"learning_rate must be positive and finite, got {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelConfig(learning_rate=value)


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
        assert np.mean(layout.leaf.weights) == pytest.approx(1.0)

    def test_level_head_classes(self):
        _, _, _, layout, _, _ = five_leaf_problem({"PL"})
        assert [h.level for h in layout.levels] == [1, 2]
        assert layout.levels[0].classes == ["A", "B", "C"]
        assert layout.levels[1].classes == ["a1", "a2", "b1", "b2", "c1"]

    def test_binary_head_nodes(self):
        _, _, _, layout, _, _ = five_leaf_problem({"B"})
        assert layout.binary.classes == ["A", "a1", "a2", "B", "b1", "b2", "C", "c1"]
        assert np.mean(layout.binary.weights) == pytest.approx(1.0)


class TestTargets:
    def test_targets_on_five_leaf_tree(self):
        tax, samples, _, layout, table, _ = five_leaf_problem({"L", "PL", "B"})
        # one column per class head: leaf, level_1, level_2
        assert table.targets.shape == (len(samples), 3)
        for i, sample in enumerate(samples):
            assert layout.leaf.classes[table.targets[i, 0]] == sample.leaf
            level1 = layout.levels[0]
            parent = tax.name(tax.parent(tax.id_of(sample.leaf)))
            assert level1.classes[table.targets[i, 1]] == parent
            member_names = [
                n for n, m in zip(layout.binary.classes, table.binary_membership[i]) if m
            ]
            assert member_names == [parent, sample.leaf]

    def test_layout_prepares_the_class_heads_softmax_segments(self):
        _, _, _, layout, _, _ = five_leaf_problem({"L", "PL", "B"})
        heads = layout.class_heads()
        segments = layout.segments
        assert segments.starts.tolist() == [h.columns.start for h in heads]
        assert segments.widths.tolist() == [len(h.classes) for h in heads]
        assert np.array_equal(segments.weights, np.concatenate([h.weights for h in heads]))
        _, _, _, binary_only, _, _ = five_leaf_problem({"B", "T"})
        assert binary_only.segments is None

    def test_targets_on_random_trees_with_shallow_leaves(self):
        # a leaf shallower than a level is its own class there
        rng = np.random.default_rng(12)
        shallow_seen = 0
        for _ in range(30):
            tax = parse_taxonomy(random_tree_doc(rng, max_depth=5, p_leaf=0.5))
            samples = make_samples(tax, {tax.name(l): 2 for l in tax.leaf_ids})
            layout = build_head_layout(tax, samples, LossConfig(frozenset({"L", "PL", "B"})))
            table = build_target_table(tax, layout, samples)
            for i, sample in enumerate(samples):
                leaf = tax.id_of(sample.leaf)
                depth = depth_oracle(tax, leaf)
                assert layout.leaf.classes[table.targets[i, 0]] == sample.leaf
                for j, head in enumerate(layout.levels, start=1):
                    want = ancestor_at_depth_oracle(tax, leaf, min(head.level, depth))
                    assert head.classes[table.targets[i, j]] == tax.name(want)
                    shallow_seen += head.level > depth
                row = table.binary_membership[i]
                members = {n for n, m in zip(layout.binary.classes, row) if m}
                assert members == {tax.name(n) for n in path_from_root(tax, leaf)[1:]}
            assert table.binary_membership.shape == (len(samples), len(tax) - 1)
        assert shallow_seen > 0


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
        emb, logits, _ = model.forward_batch(np.zeros((1, 16)))
        assert emb.shape == (1, 8)
        assert logits.shape == (1, 0)

    def test_head_logit_shapes(self):
        _, _, _, layout, _, model = five_leaf_problem({"L", "PL", "B"})
        _, logits, _ = model.forward_batch(np.zeros((1, 8)))
        assert logits.shape == (1, 21)
        assert logits[:, layout.leaf.columns].shape == (1, 5)
        assert logits[:, layout.levels[0].columns].shape == (1, 3)
        assert logits[:, layout.levels[1].columns].shape == (1, 5)
        assert logits[:, layout.binary.columns].shape == (1, 8)

    def test_zero_weights_leave_biases(self):
        _, _, _, _, _, model = five_leaf_problem({"L"})
        for key in model.params:
            if key.endswith(".W"):
                model.params[key][:] = 0.0
        model.params["embed.2.b"][:] = 1.25
        emb1, _, _ = model.forward_batch(np.zeros((1, 8)))
        emb2, _, _ = model.forward_batch(np.ones((1, 8)) * 9.0)
        assert np.allclose(emb1, 1.25)
        assert np.array_equal(emb1, emb2)

    def test_dimension_mismatch(self):
        _, _, _, _, _, model = five_leaf_problem({"L"})
        with pytest.raises(ValueError, match="expected"):
            model.forward_batch(np.zeros((1, 9)))

    def test_deterministic(self):
        _, _, _, _, _, m1 = five_leaf_problem({"L"})
        _, _, _, _, _, m2 = five_leaf_problem({"L"})
        x = np.linspace(-1, 1, 8)[None]
        e1, l1, _ = m1.forward_batch(x)
        e2, l2, _ = m2.forward_batch(x)
        assert np.array_equal(e1, e2)
        leaf = m1.layout.leaf.columns
        assert np.array_equal(l1[:, leaf], l2[:, leaf])

    def test_pure_function_of_features(self):
        # a row's outputs do not depend on the other rows of the batch
        _, samples, _, _, _, model = five_leaf_problem({"L", "PL", "B"})
        X = np.stack([s.features for s in samples])
        for out in model.forward_batch(np.vstack([X, X[:1]])):
            assert np.array_equal(out[-1], out[0])


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
        model.params["embed.1.W"][...] = np.eye(2)
        model.params["embed.2.W"][...] = np.eye(2)
        before = model.vector.copy()
        triples = enumerate_node_triples(tax)
        instances = instantiate_epoch(tax, samples, split, triples, epoch_seed=0)
        state = TrainState(model=model, adam=AdamState.for_params(model.params))
        state, value = train_step(state, instances, table)
        assert value.total == 0.0
        assert np.array_equal(before, state.model.vector)

    def test_leaf_config_loss_decreases_on_separable_data(self):
        # sanity oracle: a hand-rolled single-layer softmax trainer must also
        # be able to drive its loss down on the same data
        tax, samples, split, layout, table, model = five_leaf_problem(
            {"L"}, per_leaf=8, seed=3
        )
        X = np.stack([s.features for s in samples])
        y = table.targets[:, 0]
        rng = np.random.default_rng(0)
        W = rng.normal(0, 0.1, size=(8, 5))
        b = np.zeros(5)
        oracle_losses = []
        for _ in range(30):
            z = X @ W + b
            z -= z.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
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

    def test_one_softmax_call_scores_every_class_head(self, monkeypatch):
        tax, samples, split, layout, table, model = five_leaf_problem({"L", "PL"})
        assert len(layout.class_heads()) >= 3
        calls = []
        kernel = hieremb.losses.softmax_cross_entropy_batch

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(hieremb.losses, "softmax_cross_entropy_batch", counted)
        instances = instantiate_epoch(tax, samples, split, enumerate_node_triples(tax), epoch_seed=0)
        state = TrainState(model=model, adam=AdamState.for_params(model.params))
        train_step(state, instances[:4], table)
        assert calls == [(12, layout.width)]

    def test_empty_batch_rejected(self):
        _, _, _, _, table, model = five_leaf_problem({"L"})
        state = TrainState(model=model, adam=AdamState.for_params(model.params))
        for empty in ([], np.zeros(0, dtype=np.intp)):
            with pytest.raises(ValueError, match="empty batch"):
                train_step(state, empty, table)

    def test_non_finite_loss_names_the_epoch_and_components(self):
        # the update is not applied: Adam would spread the NaN to every parameter
        tax, samples, split, _, table, model = five_leaf_problem({"L", "T"})
        model.vector[0] = np.nan
        before = model.vector.copy()
        instances = instantiate_epoch(tax, samples, split, enumerate_node_triples(tax), epoch_seed=0)
        state = TrainState(model=model, adam=AdamState.for_params(model.params), epoch=3)
        with pytest.raises(FloatingPointError, match=re.escape("non-finite loss at epoch 3: {'T': 0.0, 'L': nan}")):
            train_step(state, instances, table)
        assert np.array_equal(model.vector, before, equal_nan=True)


def bits(value) -> list:
    """A LossValue as the bytes of its floats, for bitwise comparison."""
    return [np.float64(value.total).tobytes()] + [
        (name, np.float64(x).tobytes()) for name, x in value.per_component.items()
    ]


class TestRowBatches:
    @pytest.mark.parametrize("combo", VALID_COMBOS, ids=combo_name)
    def test_rows_train_bitwise_like_instances(self, combo):
        tax, samples, split, layout, table, model = five_leaf_problem(combo)
        triples = enumerate_node_triples(tax)
        instances = instantiate_epoch(tax, samples, split, triples, epoch_seed=0)
        runs = []
        for batch in (instances[:7], triplet_rows(table, instances[:7])):
            copy = EmbeddingModel(model.config, model.loss_config, layout, model.vector.copy())
            state = TrainState(model=copy, adam=AdamState.for_params(copy.params))
            for _ in range(3):
                state, value = train_step(state, batch, table)
            runs.append((state, value))
        (by_instance, value_i), (by_row, value_r) = runs
        assert by_instance.model.vector.tobytes() == by_row.model.vector.tobytes()
        assert by_instance.adam.first.tobytes() == by_row.adam.first.tobytes()
        assert by_instance.adam.second.tobytes() == by_row.adam.second.tobytes()
        assert by_instance.adam.step == by_row.adam.step == 3
        assert bits(value_i) == bits(value_r)

    def test_fit_samples_once_per_epoch_and_steps_on_the_shuffled_rows(self, monkeypatch):
        # the benchmark counts triplets and steps through these two attributes
        drawn, steps = [], []
        sample, step = hieremb.model.instantiate_epoch, hieremb.model.train_step

        def counted_epoch(*args, **kwargs):
            result = sample(*args, **kwargs)
            seed = args[4] if len(args) > 4 else kwargs["epoch_seed"]
            drawn.append((seed, kwargs, result))
            return result

        def counted_step(state, batch, table):
            steps.append((np.array(batch), table))
            return step(state, batch, table)

        monkeypatch.setattr(hieremb.model, "instantiate_epoch", counted_epoch)
        monkeypatch.setattr(hieremb.model, "train_step", counted_step)
        tax, samples, split = synthetic_experiment()
        model_config = ModelConfig(input_dim=8, hidden_dim=16, embedding_dim=8, batch_size=7)
        loss_config = LossConfig(active=frozenset({"PL", "B", "T"}))
        fit(samples, tax, split, loss_config, model_config, 3, seed=5)
        validation = [call for call in drawn if call[1].get("subset") == "valid"]
        epochs = [call for call in drawn if call[1].get("subset", "train") == "train"]
        assert len(validation) == 1
        assert [seed for seed, _, _ in epochs] == [5, 6, 7]
        assert all("pools" in kwargs for _, kwargs, _ in epochs)
        expected = []
        for epoch_seed, _, instances in epochs:
            order = np.random.default_rng([epoch_seed, 1]).permutation(len(instances))
            shuffled = [instances[i] for i in order]
            assert len(shuffled) % 7  # the last batch of an epoch is short
            expected += [shuffled[k : k + 7] for k in range(0, len(shuffled), 7)]
        assert len(steps) == len(expected)
        table = steps[0][1]
        for (rows, used), batch in zip(steps, expected):
            assert used is table
            assert rows.dtype == np.intp
            assert np.array_equal(rows, triplet_rows(table, batch))


class TestAdam:
    def test_in_place_update_matches_out_of_place_formula(self):
        rng = np.random.default_rng(3)
        params = rng.normal(size=50)
        state = AdamState(first=np.zeros(50), second=np.zeros(50))
        expected, first, second = params.copy(), np.zeros(50), np.zeros(50)
        lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
        for step in range(1, 6):
            grads = rng.normal(size=50) * 10.0 ** rng.integers(-6, 3, size=50)
            adam_update(params, grads, state, lr)
            first = beta1 * first + (1 - beta1) * grads
            second = beta2 * second + (1 - beta2) * grads**2
            m_hat = first / (1.0 - beta1**step)
            v_hat = second / (1.0 - beta2**step)
            expected = expected - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert state.step == step
            for got, want in [(params, expected), (state.first, first), (state.second, second)]:
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


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
    def test_zero_epochs_rejected(self, monkeypatch):
        # untrained initial weights are never returned as a trained model
        tax, samples, split = synthetic_experiment()
        model_config = ModelConfig(input_dim=8, hidden_dim=16, embedding_dim=8)
        monkeypatch.setattr(hieremb.model, "build_head_layout", None)  # nothing is built
        with pytest.raises(ValueError, match="epochs must be at least 1, got 0"):
            fit(samples, tax, split, LossConfig(active=frozenset({"L"})), model_config, 0, seed=4)

    @pytest.mark.parametrize("empty", ["train", "valid"])
    def test_empty_partition_rejected(self, empty):
        tax, samples, split = synthetic_experiment()
        other = "valid" if empty == "train" else "train"
        split = replace(split, partition={k: other if v == empty else v for k, v in split.partition.items()})
        model_config = ModelConfig(input_dim=8, hidden_dim=16, embedding_dim=8)
        with pytest.raises(SplitError, match="^fit requires non-empty train and valid partitions$"):
            fit(samples, tax, split, LossConfig(active=frozenset({"L"})), model_config, 1, seed=4)

    def test_deterministic(self):
        tax, samples, split = synthetic_experiment()
        model_config = ModelConfig(input_dim=8, hidden_dim=16, embedding_dim=8)
        loss_config = LossConfig(active=frozenset({"PL", "T"}))
        m1, log1 = fit(samples, tax, split, loss_config, model_config, 3, seed=5)
        m2, log2 = fit(samples, tax, split, loss_config, model_config, 3, seed=5)
        assert log1 == log2
        for key in m1.params:
            assert np.array_equal(m1.params[key], m2.params[key])

    @pytest.mark.parametrize("epochs", [1, 4])
    def test_training_pools_built_once_per_fit(self, monkeypatch, epochs):
        subsets = []

        def counted(build):
            def wrapper(*args, **kwargs):
                pools = build(*args, **kwargs)
                subsets.append(pools.subset)
                return pools

            return wrapper

        for module in (hieremb.model, hieremb.sampler):
            monkeypatch.setattr(module, "triplet_pools", counted(module.triplet_pools))
        tax, samples, split = synthetic_experiment()
        model_config = ModelConfig(input_dim=8, hidden_dim=16, embedding_dim=8)
        loss_config = LossConfig(active=frozenset({"PL", "T"}))
        fit(samples, tax, split, loss_config, model_config, epochs, seed=5)
        assert subsets.count("train") == 1

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
        picks = logits[:, deepest.columns].argmax(axis=1)
        accuracy = np.mean(
            [deepest.classes[i] == s.leaf for i, s in zip(picks, valid)]
        )
        assert accuracy > 0.9


def validation_problem(active, seed=0):
    """Valid-partition table, its validation triplets, and a model, built as
    `fit` builds them."""
    tax, samples, split = synthetic_experiment()
    loss_config = LossConfig(active=frozenset(active))
    pruned = pruned_seen_taxonomy(tax, split)
    layout = build_head_layout(pruned, partition_samples(samples, split, "train"), loss_config)
    table = build_target_table(pruned, layout, partition_samples(samples, split, "valid"))
    instances = instantiate_epoch(
        pruned, samples, split, enumerate_node_triples(pruned), epoch_seed=[seed, 2],
        subset="valid", skip_infeasible=True,
    )
    model = EmbeddingModel.initialise(
        ModelConfig(input_dim=8, hidden_dim=16, embedding_dim=8), loss_config, layout, seed=seed
    )
    return table, instances, model


class TestValidationLoss:
    @pytest.mark.parametrize("combo", VALID_COMBOS, ids=combo_name)
    def test_matches_two_pass_oracle(self, combo):
        table, instances, model = validation_problem(combo)
        if "T" in combo:
            assert instances
        for val_instances in (instances, []):
            value = validation_loss(model, table, triplet_rows(table, val_instances))
            expected = validation_loss_oracle(model, table, val_instances)
            assert set(value.per_component) == set(expected) == set(combo)
            for name, want in expected.items():
                assert value.per_component[name] == pytest.approx(want, rel=1e-12, abs=0)
            assert value.total == pytest.approx(sum(expected.values()), rel=1e-12, abs=0)

    def test_one_forward_pass_and_no_backward_pass_per_call(self, monkeypatch):
        calls = {"forward_batch": 0, "batch_loss_and_grads": 0}
        per_call = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def observed(fn):
            def wrapper(*args, **kwargs):
                before = dict(calls)
                result = fn(*args, **kwargs)
                per_call.append({name: calls[name] - before[name] for name in calls})
                return result

            return wrapper

        monkeypatch.setattr(
            EmbeddingModel, "forward_batch", counted("forward_batch", EmbeddingModel.forward_batch)
        )
        monkeypatch.setattr(
            hieremb.model,
            "batch_loss_and_grads",
            counted("batch_loss_and_grads", hieremb.model.batch_loss_and_grads),
        )
        monkeypatch.setattr(hieremb.model, "validation_loss", observed(validation_loss))
        tax, samples, split = synthetic_experiment()
        model_config = ModelConfig(input_dim=8, hidden_dim=16, embedding_dim=8)
        loss_config = LossConfig(active=frozenset({"PL", "B", "T"}))
        fit(samples, tax, split, loss_config, model_config, 3, seed=5)
        assert per_call == [{"forward_batch": 1, "batch_loss_and_grads": 0}] * 3


    def test_no_gradient_arrays_built(self, monkeypatch):
        gradients = []
        for name in (
            "triplet_loss_batch",
            "softmax_cross_entropy_batch",
            "binary_cross_entropy_nodes_batch",
        ):
            kernel = getattr(hieremb.losses, name)

            def recorded(*args, kernel=kernel, **kwargs):
                result = kernel(*args, **kwargs)
                gradients.append(result[1])
                return result

            monkeypatch.setattr(hieremb.losses, name, recorded)
        table, instances, model = validation_problem(frozenset({"L", "PL", "B", "T"}))
        validation_loss(model, table, triplet_rows(table, instances))
        assert len(gradients) == 3 and all(grad is None for grad in gradients)


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
        assert loaded.layout.binary.classes == model.layout.binary.classes
        for key in model.params:
            assert np.array_equal(loaded.params[key], model.params[key])
        x = np.linspace(-0.5, 0.5, 8)[None]
        e1, l1, _ = model.forward_batch(x)
        e2, l2, _ = loaded.forward_batch(x)
        assert np.array_equal(e1, e2)
        assert np.array_equal(l1, l2)

    def test_saved_structure_apart_from_parameters(self, tmp_path):
        # `params` is left out: its last bits depend on the SIMD code numpy
        # dispatches to on the CPU at hand
        _, _, _, _, _, model = five_leaf_problem({"L", "PL", "B", "T"})
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, model)
        payload = json.loads(path.read_text())
        assert list(payload) == ["format", "model", "loss", "layout", "params", "extra"]
        del payload["params"]
        leaves = ["a1", "a2", "b1", "b2", "c1"]
        wide, narrow = 1.142857142857143, 0.5714285714285715
        want = {
            "format": "hieremb-checkpoint-v2",
            "model": {
                "input_dim": 8,
                "hidden_dim": 16,
                "embedding_dim": 4,
                "learning_rate": 0.001,
                "batch_size": 32,
            },
            "loss": {"active": ["B", "L", "PL", "T"], "margin": 0.3},
            "layout": {
                "leaf": {"classes": leaves, "weights": [1.0] * 5},
                "levels": [
                    {"level": 1, "classes": ["A", "B", "C"], "weights": [0.75, 0.75, 1.5]},
                    {"level": 2, "classes": leaves, "weights": [1.0] * 5},
                ],
                "binary": {
                    "nodes": ["A", "a1", "a2", "B", "b1", "b2", "C", "c1"],
                    "weights": [narrow, wide, wide, narrow, wide, wide, wide, wide],
                },
            },
            "extra": {},
        }
        assert payload == want
        # the same text pins the key order at every level
        assert json.dumps(payload) == json.dumps(want)

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        _, _, _, _, _, model = five_leaf_problem({"L", "PL", "B", "T"})
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a JSON file: "):
            load_checkpoint(path)

    def test_top_level_list_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a JSON object$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("combo", VALID_COMBOS, ids=combo_name)
    def test_round_trip_outputs_bitwise_equal(self, tmp_path, combo):
        _, samples, _, _, _, model = five_leaf_problem(combo)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        X = np.stack([s.features for s in samples])
        for before, after in zip(model.forward_batch(X), loaded.forward_batch(X)):
            assert np.array_equal(before, after)

    @pytest.mark.parametrize("failure", ["unserialisable-extra", "rename-fails"])
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch, failure):
        _, _, _, _, _, model = five_leaf_problem({"L", "PL", "B", "T"})
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, model, extra={"fold": 1})
        before = path.read_bytes()
        extra = {"fold": 2}
        if failure == "unserialisable-extra":
            extra["bad"] = object()
            error = TypeError
        else:
            def refuse(src, dst):
                raise OSError("disk full")

            monkeypatch.setattr(hieremb.dataset.os, "replace", refuse)
            error = OSError
        with pytest.raises(error):
            save_checkpoint(path, model, extra=extra)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]


    def corrupted(self, tmp_path, edit):
        _, _, _, _, _, model = five_leaf_problem({"L", "PL", "B", "T"})
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, model)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path, model

    def test_truncated_parameter_vector_rejected(self, tmp_path):
        path, model = self.corrupted(tmp_path, lambda payload: payload["params"].pop())
        n = model.vector.size
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected {n} parameters, found {n - 1}")):
            load_checkpoint(path)

    def test_level_head_missing_a_weight_rejected(self, tmp_path):
        path, _ = self.corrupted(
            tmp_path, lambda payload: payload["layout"]["levels"][1]["weights"].pop()
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}: head level_2: expected 5 weights, found 4")):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda payload: payload.pop("layout"), "layout"),
            (lambda payload: payload.pop("params"), "params"),
            (lambda payload: payload["layout"]["levels"][0].pop("weights"), "weights"),
            (lambda payload: payload["layout"]["binary"].pop("nodes"), "nodes"),
        ],
        ids=["layout", "params", "level-head-weights", "binary-head-nodes"],
    )
    def test_missing_key_rejected(self, tmp_path, edit, key):
        path, _ = self.corrupted(tmp_path, edit)
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing key '{key}'")):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("input_dim", 0, "input_dim must be an integer of at least 1, got 0"),
            ("hidden_dim", 0, "hidden_dim must be an integer of at least 1, got 0"),
            ("embedding_dim", -2, "embedding_dim must be an integer of at least 1, got -2"),
            ("batch_size", 0, "batch_size must be an integer of at least 1, got 0"),
            ("batch_size", 2.5, "batch_size must be an integer of at least 1, got 2.5"),
            ("learning_rate", float("nan"), "learning_rate must be positive and finite, got nan"),
            ("colour", "red", "ModelConfig.__init__() got an unexpected keyword argument 'colour'"),
        ],
    )
    def test_invalid_model_config_rejected(self, tmp_path, key, value, message):
        path, _ = self.corrupted(tmp_path, lambda payload: payload["model"].update({key: value}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda payload: payload["layout"].update(levels=None), "'NoneType' object is not iterable"),
            (lambda payload: payload["layout"].update(binary=[1]), "list indices must be integers"),
            (lambda payload: payload["loss"].update(active=3), "'int' object is not iterable"),
            # these loaded: a list or dict class then failed in `evaluate` as
            # a bare "unhashable type", and the levels were cast with int()
            (lambda payload: payload["layout"]["leaf"]["classes"].__setitem__(0, ["a1"]),
             "head leaf class ['a1'] is not a string"),
            (lambda payload: payload["layout"]["binary"]["nodes"].__setitem__(2, {"name": "a2"}),
             "head binary class {'name': 'a2'} is not a string"),
            (lambda payload: payload["layout"]["levels"][1]["classes"].__setitem__(4, 7),
             "head level_2 class 7 is not a string"),
            (lambda payload: payload["layout"]["levels"][1].update(level="2"),
             "level '2' of a level head is not an integer"),
            (lambda payload: payload["layout"]["levels"][0].update(level=1.0),
             "level 1.0 of a level head is not an integer"),
            (lambda payload: payload["params"].__setitem__(0, 10**400),
             "int too large to convert to float"),
            # these loaded: "L" as the set of its characters, True as margin 1
            (lambda payload: payload["loss"].update(active="L"), "loss 'active' is 'L', not a list of distinct names"),
            (lambda payload: payload["loss"].update(active=["L", "L"]),
             "loss 'active' is ['L', 'L'], not a list of distinct names"),
            (lambda payload: payload["loss"].update(margin=True), "loss 'margin' is True, not a number"),
            # this loaded: JSON's `Infinity`, which makes every triplet loss infinite
            (lambda payload: payload["loss"].update(margin=float("inf")), "margin must be finite, got inf"),
        ],
        ids=["levels-null", "binary-list", "loss-active-int", "list-class", "dict-node",
             "number-class", "string-level", "float-level", "huge-integer", "loss-active-string",
             "loss-active-repeated", "loss-margin-bool", "loss-margin-infinity"],
    )
    def test_wrongly_typed_entry_rejected(self, tmp_path, edit, message):
        # each used to escape as a bare TypeError that named no file
        path, _ = self.corrupted(tmp_path, edit)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_checkpoint(path)

    def test_v1_file_rejected(self, tmp_path):
        def to_v1(payload):
            payload["format"] = "hieremb-checkpoint-v1"
            payload["params"] = {"embed.1.W": {"shape": [1], "data": payload["params"][:1]}}

        path, _ = self.corrupted(tmp_path, to_v1)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a hieremb-checkpoint-v2 file$"):
            load_checkpoint(path)
