"""Shared builders for model-level and acceptance tests."""
import numpy as np

from hieremb.dataset import LabeledSample
from hieremb.datasplit import SplitAssignment
from hieremb.losses import LossConfig
from hieremb.model import (
    EmbeddingModel,
    ModelConfig,
    batch_loss_and_grads,
    build_head_layout,
    build_target_table,
)
from hieremb.sampler import enumerate_node_triples, instantiate_epoch
from hieremb.taxonomy import parse_taxonomy

from oracles import gradient_rel_error

# two-level tree with five leaves, used by gradient checks
FIVE_LEAF_DOC = {
    "name": "root",
    "children": [
        {"name": "A", "children": [{"name": "a1"}, {"name": "a2"}]},
        {"name": "B", "children": [{"name": "b1"}, {"name": "b2"}]},
        {"name": "C", "children": [{"name": "c1"}]},
    ],
}


def clustered_samples(tax, per_leaf: int, dim: int, spread=3.0, noise=0.3, seed=0):
    """Samples whose features cluster around one random mean per leaf."""
    rng = np.random.default_rng(seed)
    samples = []
    counter = 0
    for leaf in sorted(tax.leaf_ids):
        mean = spread * rng.normal(size=dim)
        for _ in range(per_leaf):
            samples.append(
                LabeledSample(
                    id=f"s{counter:05d}",
                    leaf=tax.name(leaf),
                    features=mean + noise * rng.normal(size=dim),
                )
            )
            counter += 1
    return samples


def train_valid_split(tax, samples, n_valid_per_leaf=2) -> SplitAssignment:
    """All leaves seen; the last few samples of each leaf go to valid."""
    partition = {}
    remaining = {}
    per_leaf_total = {}
    for s in samples:
        per_leaf_total[s.leaf] = per_leaf_total.get(s.leaf, 0) + 1
    for s in samples:
        seen_so_far = remaining.get(s.leaf, 0)
        remaining[s.leaf] = seen_so_far + 1
        cut = per_leaf_total[s.leaf] - n_valid_per_leaf
        partition[s.id] = "train" if seen_so_far < cut else "valid"
    return SplitAssignment(
        fold_index=0,
        seen_leaves=frozenset(tax.leaf_ids),
        unseen_leaves=frozenset(),
        partition=partition,
    )


def grad_check_max_err(active, seed, dim=8, hidden=16, emb_dim=4, batch=6, step=1e-5):
    """Max norm-wise relative error between analytic and central-difference
    gradients of the full model loss, over all parameter tensors."""
    tax = parse_taxonomy(FIVE_LEAF_DOC)
    samples = clustered_samples(tax, per_leaf=4, dim=dim, spread=1.5, noise=0.5, seed=seed)
    split = SplitAssignment(
        fold_index=0,
        seen_leaves=frozenset(tax.leaf_ids),
        unseen_leaves=frozenset(),
        partition={s.id: "train" for s in samples},
    )
    loss_config = LossConfig(active=frozenset(active))
    layout = build_head_layout(tax, samples, loss_config)
    table = build_target_table(tax, layout, samples)
    triples = enumerate_node_triples(tax)
    instances = instantiate_epoch(tax, samples, split, triples, epoch_seed=[seed, 5])
    batch_instances = instances[:batch]
    model = EmbeddingModel.initialise(
        ModelConfig(input_dim=dim, hidden_dim=hidden, embedding_dim=emb_dim),
        loss_config,
        layout,
        seed=[seed, 1],
    )
    _, gradient = batch_loss_and_grads(model, table, batch_instances)
    grads = model.views(gradient)

    worst = 0.0
    for key in sorted(model.params):
        tensor = model.params[key]
        fd = np.zeros_like(tensor)
        for i in range(tensor.size):
            original = tensor.flat[i]
            tensor.flat[i] = original + step
            up, _ = batch_loss_and_grads(model, table, batch_instances)
            tensor.flat[i] = original - step
            down, _ = batch_loss_and_grads(model, table, batch_instances)
            tensor.flat[i] = original
            fd.flat[i] = (up.total - down.total) / (2 * step)
        worst = max(worst, gradient_rel_error(grads[key], fd))
    return worst
