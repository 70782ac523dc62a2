"""Feed-forward embedder with per-loss prediction heads.

Two affine layers with a tanh in between produce the embedding; linear
heads map it to leaf, per-level, and node-membership logits as required
by the active loss set. Gradients are computed analytically and applied
with Adam. Everything is plain numpy and deterministic given a seed.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import losses
from .dataset import LabeledSample, features_matrix
from .datasplit import SplitAssignment, partition_samples, pruned_seen_taxonomy
from .losses import LossConfig, LossValue
from .sampler import TripletInstance, enumerate_node_triples, instantiate_epoch
from .taxonomy import Taxonomy


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int = 32
    hidden_dim: int = 64
    embedding_dim: int = 32
    learning_rate: float = 1e-3
    batch_size: int = 32


@dataclass
class ClassificationHead:
    name: str  # "leaf" or "level_<depth>"
    level: int | None
    classes: list[str]  # class node names, pre-order
    class_weights: np.ndarray


@dataclass
class BinaryHead:
    nodes: list[str]  # non-root node names, pre-order
    node_weights: np.ndarray


@dataclass
class HeadLayout:
    leaf: ClassificationHead | None
    levels: list[ClassificationHead]
    binary: BinaryHead | None

    def class_heads(self) -> list[ClassificationHead]:
        heads = [self.leaf] if self.leaf else []
        return heads + list(self.levels)


def build_head_layout(
    pruned: Taxonomy, train_samples: list[LabeledSample], loss_config: LossConfig
) -> HeadLayout:
    """Size the prediction heads from the pruned tree and training counts.

    Class weights are inverse-frequency over training samples, computed once;
    for every head the count of a class is the number of training samples in
    its subtree.
    """
    node_counts = [0] * len(pruned)
    for sample in train_samples:
        node = pruned.leaf_id_for(sample)
        while node is not None:
            node_counts[node] += 1
            node = pruned.parent(node)

    def weights_for(node_ids: list[int]) -> np.ndarray:
        counts = {nid: node_counts[nid] for nid in node_ids}
        w = losses.class_weights(counts)
        return np.array([w[nid] for nid in node_ids], dtype=np.float64)

    leaf_head = None
    if "L" in loss_config.active:
        leaf_ids = sorted(pruned.leaf_ids)
        leaf_head = ClassificationHead(
            name="leaf",
            level=None,
            classes=[pruned.name(l) for l in leaf_ids],
            class_weights=weights_for(leaf_ids),
        )
    level_heads = []
    if "PL" in loss_config.active:
        for level, class_ids in pruned.levels_with_multiple_classes():
            level_heads.append(
                ClassificationHead(
                    name=f"level_{level}",
                    level=level,
                    classes=[pruned.name(c) for c in class_ids],
                    class_weights=weights_for(class_ids),
                )
            )
    binary_head = None
    if "B" in loss_config.active:
        non_root = [nid for nid in range(len(pruned)) if nid != pruned.root]
        binary_head = BinaryHead(
            nodes=[pruned.name(n) for n in non_root],
            node_weights=weights_for(non_root),
        )
    return HeadLayout(leaf=leaf_head, levels=level_heads, binary=binary_head)


@dataclass
class TargetTable:
    """Per-sample features and head targets, precomputed for fast batching."""

    ids: list[str]
    index: dict[str, int]
    features: np.ndarray
    class_targets: dict[str, np.ndarray]  # head name -> (n,) class index
    binary_membership: np.ndarray | None  # (n, K) bool


def build_target_table(
    pruned: Taxonomy, layout: HeadLayout, samples: list[LabeledSample]
) -> TargetTable:
    leaf_ids = sorted(pruned.leaf_ids)
    per_leaf_class: dict[str, dict[int, int]] = {}
    for head in layout.class_heads():
        column = {name: i for i, name in enumerate(head.classes)}
        targets = {}
        for leaf in leaf_ids:
            if head.level is None:
                target = leaf
            else:
                target = pruned.target_at_level(leaf, head.level)
            targets[leaf] = column[pruned.name(target)]
        per_leaf_class[head.name] = targets
    per_leaf_membership = None
    if layout.binary is not None:
        node_ids = [pruned.id_of(name) for name in layout.binary.nodes]
        per_leaf_membership = {
            leaf: np.array(
                [pruned.is_ancestor_or_self(n, leaf) for n in node_ids], dtype=bool
            )
            for leaf in leaf_ids
        }

    ids = [s.id for s in samples]
    sample_leaves = [pruned.leaf_id_for(s) for s in samples]
    class_targets = {
        name: np.array([targets[leaf] for leaf in sample_leaves], dtype=np.intp)
        for name, targets in per_leaf_class.items()
    }
    membership = None
    if per_leaf_membership is not None:
        membership = (
            np.stack([per_leaf_membership[leaf] for leaf in sample_leaves])
            if samples
            else np.zeros((0, len(layout.binary.nodes)), dtype=bool)
        )
    return TargetTable(
        ids=ids,
        index={sid: i for i, sid in enumerate(ids)},
        features=features_matrix(samples),
        class_targets=class_targets,
        binary_membership=membership,
    )


class EmbeddingModel:
    """Embedder plus heads; parameters live in a flat name->array dict."""

    def __init__(
        self,
        config: ModelConfig,
        loss_config: LossConfig,
        layout: HeadLayout,
        params: dict[str, np.ndarray],
    ):
        self.config = config
        self.loss_config = loss_config
        self.layout = layout
        self.params = params

    @classmethod
    def initialise(
        cls, config: ModelConfig, loss_config: LossConfig, layout: HeadLayout, seed
    ) -> "EmbeddingModel":
        """Deterministic init: weights scaled by 1/sqrt(fan_in), biases zero.

        Parameter creation order is fixed (embedder, leaf, levels, binary) so
        identical seeds and shapes give identical draws.
        """
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}

        def affine(prefix: str, fan_in: int, fan_out: int) -> None:
            params[f"{prefix}.W"] = rng.normal(
                0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)
            )
            params[f"{prefix}.b"] = np.zeros(fan_out)

        affine("embed.1", config.input_dim, config.hidden_dim)
        affine("embed.2", config.hidden_dim, config.embedding_dim)
        for head in layout.class_heads():
            affine(f"head.{head.name}", config.embedding_dim, len(head.classes))
        if layout.binary is not None:
            affine("head.binary", config.embedding_dim, len(layout.binary.nodes))
        return cls(config, loss_config, layout, params)

    def head_names(self) -> list[str]:
        names = [h.name for h in self.layout.class_heads()]
        if self.layout.binary is not None:
            names.append("binary")
        return names

    def forward_batch(self, X: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.config.input_dim:
            raise ValueError(f"expected (n, {self.config.input_dim}) input, got {X.shape}")
        hidden = np.tanh(X @ self.params["embed.1.W"] + self.params["embed.1.b"])
        emb = hidden @ self.params["embed.2.W"] + self.params["embed.2.b"]
        logits = {
            name: emb @ self.params[f"head.{name}.W"] + self.params[f"head.{name}.b"]
            for name in self.head_names()
        }
        return emb, logits, hidden

    def forward(self, x: np.ndarray):
        """Embedding and per-head logits for a single feature vector."""
        emb, logits, _ = self.forward_batch(np.atleast_2d(x))
        return emb[0], {name: l[0] for name, l in logits.items()}

    def embed_all(
        self, samples: list[LabeledSample], batch_size: int = 512
    ) -> dict[str, np.ndarray]:
        """Embeddings for every sample, batched deterministically."""
        result: dict[str, np.ndarray] = {}
        for start in range(0, len(samples), batch_size):
            chunk = samples[start : start + batch_size]
            emb, _, _ = self.forward_batch(features_matrix(chunk))
            for sample, row in zip(chunk, emb):
                result[sample.id] = row
        return result

    def clone_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


def batch_loss_and_grads(
    model: EmbeddingModel,
    table: TargetTable,
    instances: list[TripletInstance] | None,
    rows: np.ndarray | None = None,
) -> tuple[LossValue, dict[str, np.ndarray]]:
    """Active-loss total and analytic parameter gradients for one batch.

    With `instances`, rows are the stacked anchors, positives, and negatives;
    the triplet term averages over the instances and classification terms over
    all constituent rows. With explicit `rows` (validation), only
    classification terms apply.
    """
    cfg = model.loss_config
    if instances is not None:
        n_triplets = len(instances)
        row_ids = (
            [i.anchor_id for i in instances]
            + [i.positive_id for i in instances]
            + [i.negative_id for i in instances]
        )
        rows = np.array([table.index[sid] for sid in row_ids], dtype=np.intp)
    else:
        n_triplets = 0
        if rows is None:
            raise ValueError("either instances or rows must be given")
    X = table.features[rows]
    emb, logits, hidden = model.forward_batch(X)
    n_rows = X.shape[0]

    components: dict[str, float] = {}
    grad_emb = np.zeros_like(emb)
    grads: dict[str, np.ndarray] = {}

    if "T" in cfg.active and n_triplets > 0:
        b = n_triplets
        values, ga, gp, gn = losses.triplet_loss_batch(
            emb[:b], emb[b : 2 * b], emb[2 * b :], cfg.margin
        )
        components["T"] = float(values.mean())
        grad_emb[:b] += ga / b
        grad_emb[b : 2 * b] += gp / b
        grad_emb[2 * b :] += gn / b

    def apply_head(head_name: str, grad_logits: np.ndarray) -> None:
        weight_key = f"head.{head_name}.W"
        grads[weight_key] = emb.T @ grad_logits
        grads[f"head.{head_name}.b"] = grad_logits.sum(axis=0)
        nonlocal grad_emb
        grad_emb = grad_emb + grad_logits @ model.params[weight_key].T

    if model.layout.leaf is not None:
        values, grad = losses.softmax_cross_entropy_batch(
            logits["leaf"], table.class_targets["leaf"][rows], model.layout.leaf.class_weights
        )
        components["L"] = float(values.mean())
        apply_head("leaf", grad / n_rows)
    if model.layout.levels:
        level_total = np.zeros(n_rows)
        for head in model.layout.levels:
            values, grad = losses.softmax_cross_entropy_batch(
                logits[head.name], table.class_targets[head.name][rows], head.class_weights
            )
            level_total += values
            apply_head(head.name, grad / n_rows)
        components["PL"] = float(level_total.mean())
    if model.layout.binary is not None:
        values, grad = losses.binary_cross_entropy_nodes_batch(
            logits["binary"], table.binary_membership[rows], model.layout.binary.node_weights
        )
        components["B"] = float(values.mean())
        apply_head("binary", grad / n_rows)

    # "T" may be legitimately absent here (validation rows); fill for combine
    expected = {name for name in cfg.active if name != "T" or "T" in components}
    value = losses.combine(components, active=frozenset(expected))

    grad_hidden = grad_emb @ model.params["embed.2.W"].T
    grads["embed.2.W"] = hidden.T @ grad_emb
    grads["embed.2.b"] = grad_emb.sum(axis=0)
    grad_pre = grad_hidden * (1.0 - hidden**2)
    grads["embed.1.W"] = X.T @ grad_pre
    grads["embed.1.b"] = grad_pre.sum(axis=0)
    return value, grads


@dataclass
class AdamState:
    first: dict[str, np.ndarray]
    second: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            first={k: np.zeros_like(v) for k, v in params.items()},
            second={k: np.zeros_like(v) for k, v in params.items()},
        )


def adam_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    state.step += 1
    correct1 = 1.0 - beta1**state.step
    correct2 = 1.0 - beta2**state.step
    for key in sorted(params):
        g = grads[key]
        state.first[key] = beta1 * state.first[key] + (1 - beta1) * g
        state.second[key] = beta2 * state.second[key] + (1 - beta2) * g**2
        m_hat = state.first[key] / correct1
        v_hat = state.second[key] / correct2
        params[key] -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)


@dataclass
class TrainState:
    model: EmbeddingModel
    adam: AdamState
    epoch: int = 0
    best_val: float = np.inf
    best_params: dict[str, np.ndarray] = field(default_factory=dict)


def train_step(
    state: TrainState, batch: list[TripletInstance], table: TargetTable
) -> tuple[TrainState, LossValue]:
    """One optimiser update on a batch of triplet instances."""
    if not batch:
        raise ValueError("empty batch")
    value, grads = batch_loss_and_grads(state.model, table, batch)
    if not np.isfinite(value.total):
        raise FloatingPointError(
            f"non-finite loss at epoch {state.epoch}: {value.per_component}"
        )
    adam_update(state.model.params, grads, state.adam, state.model.config.learning_rate)
    return state, value


def validation_loss(
    model: EmbeddingModel,
    table: TargetTable,
    val_instances: list[TripletInstance],
) -> LossValue:
    """Classification terms over all validation rows plus the triplet term
    over the fixed validation triplet set."""
    components: dict[str, float] = {}
    if model.layout.leaf or model.layout.levels or model.layout.binary:
        rows = np.arange(len(table.ids), dtype=np.intp)
        value, _ = batch_loss_and_grads(model, table, instances=None, rows=rows)
        components.update(value.per_component)
    if "T" in model.loss_config.active:
        if val_instances:
            b = len(val_instances)
            row_ids = (
                [i.anchor_id for i in val_instances]
                + [i.positive_id for i in val_instances]
                + [i.negative_id for i in val_instances]
            )
            rows = np.array([table.index[sid] for sid in row_ids], dtype=np.intp)
            emb, _, _ = model.forward_batch(table.features[rows])
            values, _, _, _ = losses.triplet_loss_batch(
                emb[:b], emb[b : 2 * b], emb[2 * b :], model.loss_config.margin
            )
            components["T"] = float(values.mean())
        else:
            components["T"] = 0.0
    return losses.combine(components, active=model.loss_config.active)


def fit(
    dataset: list[LabeledSample],
    taxonomy: Taxonomy,
    split: SplitAssignment,
    loss_config: LossConfig,
    model_config: ModelConfig,
    epochs: int,
    seed: int,
) -> tuple[EmbeddingModel, list[dict]]:
    """Train on the fold's training partition and return the best snapshot.

    Per epoch: resample one triplet instance per node triple (epoch seed =
    base seed + epoch index), shuffle into batches, apply one update per
    batch, then score the validation partition; the parameters with the
    lowest validation total are returned. The validation triplet set is
    sampled once up front with a fixed derived seed.
    """
    train_samples = partition_samples(dataset, split, "train")
    valid_samples = partition_samples(dataset, split, "valid")
    if not train_samples or not valid_samples:
        raise ValueError("fit requires non-empty train and valid partitions")
    pruned = pruned_seen_taxonomy(taxonomy, split)
    layout = build_head_layout(pruned, train_samples, loss_config)
    train_table = build_target_table(pruned, layout, train_samples)
    valid_table = build_target_table(pruned, layout, valid_samples)
    triples = enumerate_node_triples(pruned)
    val_instances: list[TripletInstance] = []
    if "T" in loss_config.active:
        val_instances = instantiate_epoch(
            pruned, dataset, split, triples, epoch_seed=[seed, 2],
            subset="valid", skip_infeasible=True,
        )
    model = EmbeddingModel.initialise(model_config, loss_config, layout, seed=[seed, 1])
    state = TrainState(
        model=model, adam=AdamState.for_params(model.params), best_params=model.clone_params()
    )
    log: list[dict] = []
    for epoch in range(epochs):
        state.epoch = epoch
        epoch_seed = seed + epoch
        instances = instantiate_epoch(pruned, dataset, split, triples, epoch_seed)
        order = np.random.default_rng([epoch_seed, 1]).permutation(len(instances))
        shuffled = [instances[i] for i in order]
        sums: dict[str, float] = {}
        counts: dict[str, float] = {}
        for start in range(0, len(shuffled), model_config.batch_size):
            batch = shuffled[start : start + model_config.batch_size]
            state, value = train_step(state, batch, train_table)
            for name, comp in value.per_component.items():
                scale = len(batch) if name == "T" else 3 * len(batch)
                sums[name] = sums.get(name, 0.0) + comp * scale
                counts[name] = counts.get(name, 0.0) + scale
        train_means = {name: sums[name] / counts[name] for name in sums}
        val_value = validation_loss(state.model, valid_table, val_instances)
        if not np.isfinite(val_value.total):
            raise FloatingPointError(
                f"non-finite validation loss at epoch {epoch}: {val_value.per_component}"
            )
        if val_value.total < state.best_val:
            state.best_val = val_value.total
            state.best_params = state.model.clone_params()
        row: dict = {"epoch": epoch}
        for name in losses.LOSS_NAMES:
            if name in train_means:
                row[f"train_{name}"] = train_means[name]
        row["train_total"] = float(sum(train_means.values()))
        for name in losses.LOSS_NAMES:
            if name in val_value.per_component:
                row[f"val_{name}"] = val_value.per_component[name]
        row["val_total"] = val_value.total
        log.append(row)
    best_model = EmbeddingModel(
        model.config, model.loss_config, model.layout, state.best_params
    )
    return best_model, log


# -- checkpoint IO -------------------------------------------------------------

CHECKPOINT_FORMAT = "hieremb-checkpoint-v1"


def save_checkpoint(path: str | Path, model: EmbeddingModel, extra: dict | None = None) -> None:
    layout = model.layout
    payload = {
        "format": CHECKPOINT_FORMAT,
        "model": {
            "input_dim": model.config.input_dim,
            "hidden_dim": model.config.hidden_dim,
            "embedding_dim": model.config.embedding_dim,
            "learning_rate": model.config.learning_rate,
            "batch_size": model.config.batch_size,
        },
        "loss": {
            "active": sorted(model.loss_config.active),
            "margin": model.loss_config.margin,
        },
        "layout": {
            "leaf": None
            if layout.leaf is None
            else {
                "classes": layout.leaf.classes,
                "weights": [float(w) for w in layout.leaf.class_weights],
            },
            "levels": [
                {
                    "level": head.level,
                    "classes": head.classes,
                    "weights": [float(w) for w in head.class_weights],
                }
                for head in layout.levels
            ],
            "binary": None
            if layout.binary is None
            else {
                "nodes": layout.binary.nodes,
                "weights": [float(w) for w in layout.binary.node_weights],
            },
        },
        "params": {
            key: {"shape": list(value.shape), "data": [float(x) for x in value.ravel()]}
            for key, value in model.params.items()
        },
        "extra": extra or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_checkpoint(path: str | Path) -> tuple[EmbeddingModel, dict]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    config = ModelConfig(**payload["model"])
    loss_config = LossConfig(
        active=frozenset(payload["loss"]["active"]), margin=payload["loss"]["margin"]
    )
    lay = payload["layout"]
    leaf = None
    if lay["leaf"] is not None:
        leaf = ClassificationHead(
            name="leaf",
            level=None,
            classes=list(lay["leaf"]["classes"]),
            class_weights=np.array(lay["leaf"]["weights"]),
        )
    levels = [
        ClassificationHead(
            name=f"level_{entry['level']}",
            level=int(entry["level"]),
            classes=list(entry["classes"]),
            class_weights=np.array(entry["weights"]),
        )
        for entry in lay["levels"]
    ]
    binary = None
    if lay["binary"] is not None:
        binary = BinaryHead(
            nodes=list(lay["binary"]["nodes"]),
            node_weights=np.array(lay["binary"]["weights"]),
        )
    params = {
        key: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        for key, entry in payload["params"].items()
    }
    model = EmbeddingModel(config, loss_config, HeadLayout(leaf, levels, binary), params)
    return model, copy.deepcopy(payload.get("extra", {}))
