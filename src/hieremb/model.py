"""Feed-forward embedder with fused prediction heads.

Two affine layers with a tanh in between produce the embedding; one linear
map gives the leaf, per-level, and node-membership logits the active loss
set needs, each head owning a column segment of it. Every parameter is a
view into one float64 vector laid out by `param_shapes`; gradients are
computed analytically into a vector of the same layout and applied with
Adam. Everything is plain numpy and deterministic given a seed.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from math import prod
from pathlib import Path

import numpy as np

from . import losses
from .dataset import LabeledSample, atomic_open, features_matrix, named, read_json
from .datasplit import SplitAssignment, SplitError, partition_samples, pruned_seen_taxonomy
from .losses import LossConfig, LossValue
from .sampler import TripletInstance, enumerate_node_triples, instantiate_epoch, triplet_pools
from .taxonomy import Taxonomy


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int = 32
    hidden_dim: int = 64
    embedding_dim: int = 32
    learning_rate: float = 1e-3
    batch_size: int = 32

    def __post_init__(self):
        for name in ("input_dim", "hidden_dim", "embedding_dim", "batch_size"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")


@dataclass
class Head:
    """One head of the fused matrix: its classes, pre-order, with their
    weights. The binary head's classes are the non-root nodes, one
    membership term each."""

    name: str  # "leaf", "level_<depth>" or "binary"
    level: int | None
    classes: list[str]
    weights: np.ndarray
    columns: slice | None = field(default=None, init=False)  # set by HeadLayout


@dataclass
class HeadLayout:
    """The model's heads. Each owns a column segment of the fused head
    matrix, in the order leaf, levels, binary; `width` is the total. The
    class heads' softmax segments are prepared once, from their weights at
    construction."""

    leaf: Head | None
    levels: list[Head]
    binary: Head | None
    width: int = field(default=0, init=False)
    segments: losses.SoftmaxSegments | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for head in self.heads():
            if len(head.weights) != len(head.classes):
                raise ValueError(
                    f"head {head.name}: expected {len(head.classes)} weights, "
                    f"found {len(head.weights)}"
                )
            head.columns = slice(self.width, self.width + len(head.classes))
            self.width = head.columns.stop
        heads = self.class_heads()
        if heads:
            self.segments = losses.SoftmaxSegments.of([head.weights for head in heads])

    def class_heads(self) -> list[Head]:
        heads = [self.leaf] if self.leaf else []
        return heads + list(self.levels)

    def heads(self) -> list[Head]:
        return self.class_heads() + ([self.binary] if self.binary else [])

    def to_json(self) -> dict:
        # the binary entry names its classes "nodes"
        def entry(head, key="classes"):
            return None if head is None else {key: head.classes, "weights": head.weights.tolist()}

        return {
            "leaf": entry(self.leaf),
            "levels": [{"level": head.level} | entry(head) for head in self.levels],
            "binary": entry(self.binary, "nodes"),
        }

    @classmethod
    def from_json(cls, data: dict) -> "HeadLayout":
        def head(entry, name, level=None, key="classes"):
            if entry is None:
                return None
            classes = list(entry[key])
            for c in classes:
                if type(c) is not str:
                    raise TypeError(f"head {name} class {c!r} is not a string")
            return Head(name, level, classes, np.array(entry["weights"], dtype=np.float64))

        levels = [(entry["level"], entry) for entry in data["levels"]]
        for level, _ in levels:
            if type(level) is not int:
                raise TypeError(f"level {level!r} of a level head is not an integer")
        return cls(
            leaf=head(data["leaf"], "leaf"),
            levels=[head(entry, f"level_{level}", level) for level, entry in levels],
            binary=head(data["binary"], "binary", key="nodes"),
        )


def build_head_layout(
    pruned: Taxonomy, train_samples: list[LabeledSample], loss_config: LossConfig
) -> HeadLayout:
    """Size the prediction heads from the pruned tree and training counts.

    Class weights are inverse-frequency over training samples, computed once;
    for every head the count of a class is the number of training samples in
    its subtree.
    """
    leaf_counts = Counter(pruned.leaf_id_for(sample) for sample in train_samples)

    def head(name: str, level: int | None, node_ids: list[int]) -> Head:
        counts = {nid: sum(leaf_counts[l] for l in pruned.leaves_under(nid)) for nid in node_ids}
        w = losses.class_weights(counts)
        weights = np.array([w[nid] for nid in node_ids], dtype=np.float64)
        return Head(name, level, [pruned.name(nid) for nid in node_ids], weights)

    active = loss_config.active
    levels = pruned.levels_with_multiple_classes() if "PL" in active else []
    non_root = [nid for nid in range(len(pruned)) if nid != pruned.root]
    return HeadLayout(
        leaf=head("leaf", None, sorted(pruned.leaf_ids)) if "L" in active else None,
        levels=[head(f"level_{level}", level, class_ids) for level, class_ids in levels],
        binary=head("binary", None, non_root) if "B" in active else None,
    )


@dataclass
class TargetTable:
    """Per-sample features and head targets, precomputed for fast batching."""

    index: dict[str, int]
    features: np.ndarray
    targets: np.ndarray  # (n, class heads) class index, heads in `class_heads` order
    binary_membership: np.ndarray | None  # (n, K) bool


def build_target_table(
    pruned: Taxonomy, layout: HeadLayout, samples: list[LabeledSample]
) -> TargetTable:
    leaf_ids = sorted(pruned.leaf_ids)
    # targets are tabulated per leaf from its classes at every tree level,
    # then gathered by each sample's leaf row
    leaf_row = np.searchsorted(leaf_ids, [pruned.leaf_id_for(s) for s in samples])
    ancestors = pruned.leaf_ancestors(leaf_ids)

    def column_of(names: list[str]) -> np.ndarray:  # node id -> head column
        column = np.full(len(pruned), -1, dtype=np.intp)
        column[[pruned.id_of(name) for name in names]] = np.arange(len(names))
        return column

    heads = layout.class_heads()
    targets = np.empty((len(samples), len(heads)), dtype=np.intp)
    for j, head in enumerate(heads):
        level = ancestors[:, -1 if head.level is None else head.level]
        targets[:, j] = column_of(head.classes)[level][leaf_row]
    membership = None
    if layout.binary is not None:
        # a leaf is a member of every non-root node on its root path
        per_leaf = np.zeros((len(leaf_ids), len(layout.binary.classes)), dtype=bool)
        rows = np.arange(len(leaf_ids))[:, None]
        per_leaf[rows, column_of(layout.binary.classes)[ancestors[:, 1:]]] = True
        membership = per_leaf[leaf_row]
    return TargetTable(
        index={s.id: i for i, s in enumerate(samples)},
        features=features_matrix(samples),
        targets=targets,
        binary_membership=membership,
    )


def param_shapes(config: ModelConfig, layout: HeadLayout) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter, in its order in the flat vector.
    `head.W` and `head.b` hold the heads' column segments side by side."""
    hidden, emb = config.hidden_dim, config.embedding_dim
    return {
        "embed.1.W": (config.input_dim, hidden),
        "embed.1.b": (hidden,),
        "embed.2.W": (hidden, emb),
        "embed.2.b": (emb,),
        "head.W": (emb, layout.width),
        "head.b": (layout.width,),
    }


class EmbeddingModel:
    """Embedder plus fused heads; `params` maps names to views into the one
    parameter vector `vector`."""

    def __init__(
        self,
        config: ModelConfig,
        loss_config: LossConfig,
        layout: HeadLayout,
        vector: np.ndarray,
    ):
        self.config = config
        self.loss_config = loss_config
        self.layout = layout
        # (name, start, stop, shape) of every parameter in the flat vector
        self._slots = []
        stop = 0
        for name, shape in param_shapes(config, layout).items():
            start, stop = stop, stop + prod(shape)
            self._slots.append((name, start, stop, shape))
        self._size = stop
        self.vector = vector
        self.params = self.views(vector)

    @classmethod
    def initialise(
        cls, config: ModelConfig, loss_config: LossConfig, layout: HeadLayout, seed
    ) -> "EmbeddingModel":
        """Deterministic init: weights scaled by 1/sqrt(fan_in), biases zero.

        Draw order is fixed (embedder, then one block per head: leaf, levels,
        binary) so identical seeds and shapes give identical draws.
        """
        size = sum(map(prod, param_shapes(config, layout).values()))
        model = cls(config, loss_config, layout, np.zeros(size))
        rng = np.random.default_rng(seed)
        p = model.params
        weights = [p["embed.1.W"], p["embed.2.W"]]
        weights += [p["head.W"][:, head.columns] for head in layout.heads()]
        for block in weights:
            block[...] = rng.normal(0.0, 1.0 / np.sqrt(block.shape[0]), size=block.shape)
        return model

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into a vector laid out like this model's parameters."""
        if vector.shape != (self._size,):
            raise ValueError(f"expected {self._size} parameters, found {vector.size}")
        return {name: vector[start:stop].reshape(shape) for name, start, stop, shape in self._slots}

    def forward_batch(self, X: np.ndarray):
        """Embeddings, fused head logits (`head.columns` picks one head's
        segment), and hidden activations for a batch of feature rows."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.config.input_dim:
            raise ValueError(f"expected (n, {self.config.input_dim}) input, got {X.shape}")
        p = self.params
        hidden = X @ p["embed.1.W"]  # biases and tanh in place: one array per layer
        hidden += p["embed.1.b"]
        np.tanh(hidden, out=hidden)
        emb = hidden @ p["embed.2.W"]
        emb += p["embed.2.b"]
        logits = emb @ p["head.W"]
        logits += p["head.b"]
        return emb, logits, hidden


def triplet_rows(table: TargetTable, instances: list[TripletInstance]) -> np.ndarray:
    """Table rows of the instances' anchors, then positives, then negatives:
    a (3, N) matrix laid out flat."""
    index = table.index
    return np.array(
        [index[i.anchor_id] for i in instances]
        + [index[i.positive_id] for i in instances]
        + [index[i.negative_id] for i in instances],
        dtype=np.intp,
    )


def head_losses(
    layout: HeadLayout,
    logits: np.ndarray,
    targets: np.ndarray,
    membership: np.ndarray | None,
    with_grad: bool = False,
) -> tuple[dict[str, float], np.ndarray | None]:
    """Mean L, PL and B values over the rows of the fused logits, and with
    `with_grad` their gradient with respect to the logits (else None).

    `targets` and `membership` hold the rows' targets, laid out like
    `TargetTable.targets` and `TargetTable.binary_membership`.
    """
    n_rows = logits.shape[0]
    components: dict[str, float] = {}
    # each head's loss fills its segment of the fused logit gradient
    grad_logits = np.empty_like(logits) if with_grad else None
    if layout.segments is not None:
        # the class heads lead the fused columns: one segmented kernel call
        columns = slice(0, layout.segments.weights.size)
        values, grad = losses.softmax_cross_entropy_batch(
            logits[:, columns], targets, layout.segments, with_grad
        )
        # sum / n is the bytes of .mean() without its Python-level overhead
        if layout.leaf is not None:
            components["L"] = float(values[:, 0].sum() / n_rows)
        if layout.levels:
            level_values = values[:, 1:] if layout.leaf is not None else values
            components["PL"] = float(level_values.sum(axis=1).sum() / n_rows)
        if with_grad:
            np.divide(grad, n_rows, out=grad_logits[:, columns])
    if layout.binary is not None:
        columns = layout.binary.columns
        values, grad = losses.binary_cross_entropy_nodes_batch(
            logits[:, columns], membership, layout.binary.weights, with_grad
        )
        components["B"] = float(values.sum() / n_rows)
        if with_grad:
            grad_logits[:, columns] = grad / n_rows
    return components, grad_logits


def batch_loss_and_grads(
    model: EmbeddingModel, table: TargetTable, batch: list[TripletInstance] | np.ndarray
) -> tuple[LossValue, np.ndarray]:
    """Active-loss total and its analytic gradient for one batch, as a
    vector laid out like `model.vector`.

    The batch is a list of triplet instances or their table rows as
    `triplet_rows` gives them: the stacked anchors, positives, and
    negatives. The triplet term averages over the instances and
    classification terms over all rows.
    """
    cfg = model.loss_config
    rows = batch if isinstance(batch, np.ndarray) else triplet_rows(table, batch)
    b = len(rows) // 3
    X = table.features[rows]
    emb, logits, hidden = model.forward_batch(X)

    components: dict[str, float] = {}
    triplet_grad = None
    if "T" in cfg.active:
        values, triplet_grad = losses.triplet_loss_batch(emb, cfg.margin, with_grad=True)
        components["T"] = float(values.sum() / b)
        triplet_grad /= b

    membership = table.binary_membership
    head_components, grad_logits = head_losses(
        model.layout,
        logits,
        table.targets[rows],
        None if membership is None else membership[rows],
        with_grad=True,
    )
    components.update(head_components)
    value = losses.combine(components, active=cfg.active)

    p = model.params
    gradient = np.empty_like(model.vector)
    g = model.views(gradient)
    g["head.W"][...] = emb.T @ grad_logits
    g["head.b"][...] = grad_logits.sum(axis=0)
    grad_emb = grad_logits @ p["head.W"].T
    if triplet_grad is not None:
        grad_emb += triplet_grad
    grad_hidden = grad_emb @ p["embed.2.W"].T
    g["embed.2.W"][...] = hidden.T @ grad_emb
    g["embed.2.b"][...] = grad_emb.sum(axis=0)
    grad_pre = grad_hidden * (1.0 - hidden**2)
    g["embed.1.W"][...] = X.T @ grad_pre
    g["embed.1.b"][...] = grad_pre.sum(axis=0)
    return value, gradient


@dataclass
class AdamState:
    first: np.ndarray
    second: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        size = sum(value.size for value in params.values())
        return cls(first=np.zeros(size), second=np.zeros(size))


def adam_update(
    params: np.ndarray, grads: np.ndarray, state: AdamState, learning_rate: float
) -> None:
    """One Adam step (beta1 0.9, beta2 0.999, eps 1e-8) on a flat parameter
    vector; the parameters and both moment vectors are updated in place."""
    beta1, beta2 = 0.9, 0.999
    state.step += 1
    state.first *= beta1
    state.first += (1 - beta1) * grads
    state.second *= beta2
    state.second += (1 - beta2) * grads**2
    step = state.first / (1.0 - beta1**state.step)
    step *= learning_rate
    denom = state.second / (1.0 - beta2**state.step)
    np.sqrt(denom, out=denom)
    denom += 1e-8
    step /= denom
    params -= step


@dataclass
class TrainState:
    model: EmbeddingModel
    adam: AdamState
    epoch: int = 0


def train_step(
    state: TrainState, batch: list[TripletInstance] | np.ndarray, table: TargetTable
) -> tuple[TrainState, LossValue]:
    """One optimiser update on a batch of triplet instances or their
    `triplet_rows`."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    value, gradient = batch_loss_and_grads(state.model, table, batch)
    if not np.isfinite(value.total):
        raise FloatingPointError(
            f"non-finite loss at epoch {state.epoch}: {value.per_component}"
        )
    adam_update(state.model.vector, gradient, state.adam, state.model.config.learning_rate)
    return state, value


def validation_loss(
    model: EmbeddingModel,
    table: TargetTable,
    val_rows: np.ndarray,
) -> LossValue:
    """Classification terms over all validation rows plus the triplet term
    over the fixed validation triplet set, from one forward pass.

    `val_rows` are the table rows of the triplets (`triplet_rows`).
    """
    emb, logits, _ = model.forward_batch(table.features)
    components, _ = head_losses(model.layout, logits, table.targets, table.binary_membership)
    if "T" in model.loss_config.active:
        if len(val_rows):
            values, _ = losses.triplet_loss_batch(emb, model.loss_config.margin, val_rows)
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
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    train_samples = partition_samples(dataset, split, "train")
    valid_samples = partition_samples(dataset, split, "valid")
    if not train_samples or not valid_samples:
        raise SplitError("fit requires non-empty train and valid partitions")
    pruned = pruned_seen_taxonomy(taxonomy, split)
    layout = build_head_layout(pruned, train_samples, loss_config)
    train_table = build_target_table(pruned, layout, train_samples)
    valid_table = build_target_table(pruned, layout, valid_samples)
    triples = enumerate_node_triples(pruned)
    # the training pools are the same every epoch; infeasible triples raise here
    pools = triplet_pools(pruned, dataset, split, triples)
    val_instances: list[TripletInstance] = []
    if "T" in loss_config.active:
        val_instances = instantiate_epoch(
            pruned, dataset, split, triples, epoch_seed=[seed, 2],
            subset="valid", skip_infeasible=True,
        )
    val_rows = triplet_rows(valid_table, val_instances)
    model = EmbeddingModel.initialise(model_config, loss_config, layout, seed=[seed, 1])
    state = TrainState(model=model, adam=AdamState.for_params(model.params))
    best_val, best_params = np.inf, model.vector.copy()
    log: list[dict] = []
    for epoch in range(epochs):
        state.epoch = epoch
        epoch_seed = seed + epoch
        instances = instantiate_epoch(pruned, dataset, split, triples, epoch_seed, pools=pools)
        order = np.random.default_rng([epoch_seed, 1]).permutation(len(instances))
        # the shuffled instances' table rows, one column per instance; a
        # batch is a run of columns, flattened as `triplet_rows` lays it out
        rows = triplet_rows(train_table, instances).reshape(3, -1)[:, order]
        # each batch mean times its count: instances for T, rows for the heads
        sums: dict[str, float] = {}
        for start in range(0, len(order), model_config.batch_size):
            batch = rows[:, start : start + model_config.batch_size]
            state, value = train_step(state, batch.ravel(), train_table)
            for name, comp in value.per_component.items():
                scale = batch.shape[1] if name == "T" else batch.size
                sums[name] = sums.get(name, 0.0) + comp * scale
        n = len(order)  # the heads score 3n rows
        train_means = {name: total / (n if name == "T" else 3 * n) for name, total in sums.items()}
        val_value = validation_loss(state.model, valid_table, val_rows)
        if not np.isfinite(val_value.total):
            raise FloatingPointError(
                f"non-finite validation loss at epoch {epoch}: {val_value.per_component}"
            )
        if val_value.total < best_val:
            best_val, best_params = val_value.total, model.vector.copy()
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
    return EmbeddingModel(model.config, model.loss_config, layout, best_params), log


# -- checkpoint IO -------------------------------------------------------------

CHECKPOINT_FORMAT = "hieremb-checkpoint-v2"


def save_checkpoint(path: str | Path, model: EmbeddingModel, extra: dict | None = None) -> None:
    """The config, the head layout, and the flat parameter vector; shapes
    follow from the first two (`param_shapes`). The file is replaced
    atomically (`atomic_open`)."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "model": asdict(model.config),
        "loss": {
            "active": sorted(model.loss_config.active),
            "margin": model.loss_config.margin,
        },
        "layout": model.layout.to_json(),
        "params": model.vector.tolist(),
        "extra": extra or {},
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload) + "\n")


def load_checkpoint(path: str | Path) -> tuple[EmbeddingModel, dict]:
    payload = read_json(path)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    try:
        loss = payload["loss"]
        active = frozenset(loss["active"])
        if type(loss["active"]) is not list or len(active) != len(loss["active"]):
            raise TypeError(f"loss 'active' is {loss['active']!r}, not a list of distinct names")
        if type(loss["margin"]) not in (int, float):
            raise TypeError(f"loss 'margin' is {loss['margin']!r}, not a number")
        model = EmbeddingModel(
            ModelConfig(**payload["model"]),
            LossConfig(active=active, margin=loss["margin"]),
            HeadLayout.from_json(payload["layout"]),
            np.array(payload["params"], dtype=np.float64),
        )
        if not isinstance(extra := payload.get("extra", {}), dict):
            raise TypeError("'extra' must be an object")
        if not np.isfinite(model.vector).all():
            raise ValueError("a parameter is not finite")
        for head in model.layout.heads():
            if not np.isfinite(head.weights).all():
                raise ValueError(f"head {head.name} has a non-finite class weight")
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise named(path, err) from None
    return model, extra
