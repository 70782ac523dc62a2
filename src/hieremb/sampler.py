"""Offline triplet mining from the label tree.

Node-level triples are enumerated once per tree and their sample pools
built once per fit; concrete sample triplets are drawn once per epoch, so
the per-epoch triplet count and work are fixed by the tree structure, not
the dataset size.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dataset import LabeledSample
from .datasplit import SplitAssignment
from .taxonomy import Taxonomy


class SamplerError(ValueError):
    """Tree too small to sample from, or a node without usable samples."""


class NodeTriple(NamedTuple):
    anchor_node: int
    positive_node: int
    negative_node: int


class TripletInstance(NamedTuple):
    anchor_id: str
    positive_id: str
    negative_id: str


def _effective_node(taxonomy: Taxonomy, node_id: int) -> int:
    # single-child chains carry the same sample set; collapse to the end
    while len(taxonomy.children(node_id)) == 1:
        node_id = taxonomy.children(node_id)[0]
    return node_id


def enumerate_node_triples(taxonomy: Taxonomy) -> list[NodeTriple]:
    """All (anchor, positive, negative) node triples the tree admits.

    For every parent with two or more children, every ordered child pair
    becomes (positive-parent, negative). A positive-parent with children of
    its own contributes one triple per ordered pair of them; otherwise the
    anchor and positive are both drawn from the positive-parent itself.
    Emission order is deterministic (pre-order parents, input child order).
    """
    if len(taxonomy.leaf_ids) < 2:
        raise SamplerError("need at least 2 leaves to form triplets")
    triples = []
    for parent in range(len(taxonomy)):
        children = taxonomy.children(parent)
        if len(children) < 2:
            continue
        for plus in children:
            for neg in children:
                if neg == plus:
                    continue
                inner = taxonomy.children(plus)
                if len(inner) >= 2:
                    for n_a in inner:
                        for n_p in inner:
                            if n_p != n_a:
                                triples.append(NodeTriple(n_a, n_p, neg))
                else:
                    same = _effective_node(taxonomy, plus)
                    triples.append(NodeTriple(same, same, neg))
    return triples


def count_node_triples(taxonomy: Taxonomy) -> int:
    """Closed-form size of enumerate_node_triples."""
    total = 0
    for parent in range(len(taxonomy)):
        children = taxonomy.children(parent)
        if len(children) < 2:
            continue
        per_plus = 0
        for plus in children:
            c = len(taxonomy.children(plus))
            per_plus += c * (c - 1) if c >= 2 else 1
        total += (len(children) - 1) * per_plus
    return total


class TripletPools(NamedTuple):
    """Everything an epoch's draw needs that does not change within a fit.

    `ids` holds every used node's sample ids, each node's run sorted by id;
    the per-triple arrays below cover only the feasible triples, in triple
    order. Draw k of the epoch is uniform in [0, highs[k]).
    """

    subset: str
    skip_infeasible: bool
    triples: tuple[NodeTriple, ...]
    ids: np.ndarray  # object array of sample ids, one run per node
    highs: np.ndarray  # (draws,) exclusive bound of every draw
    first_draw: np.ndarray  # (kept,) index of each triple's first draw
    same: np.ndarray  # (kept,) bool, anchor and positive from one node
    starts: np.ndarray  # (kept, 3) where each node's run begins in `ids`


def triplet_pools(
    taxonomy: Taxonomy,
    dataset: list[LabeledSample],
    split: SplitAssignment,
    triples: list[NodeTriple],
    subset: str = "train",
    skip_infeasible: bool = False,
) -> TripletPools:
    """The sample pools and draw bounds of `instantiate_epoch`, built once.

    Nodes are resolved against `taxonomy` (normally the pruned seen tree) and
    only samples in the `subset` partition are pooled. A triple whose nodes
    have too few samples raises `SamplerError` unless `skip_infeasible`,
    which drops it (used for validation triplet sets, where single-sample
    nodes are legitimate).
    """
    by_leaf: dict[int, list[str]] = {}
    for sample in dataset:
        if split.partition.get(sample.id) == subset:
            by_leaf.setdefault(taxonomy.leaf_id_for(sample), []).append(sample.id)

    nodes = np.array(triples, dtype=np.intp).reshape(-1, 3)
    used = np.flatnonzero(np.bincount(nodes.ravel(), minlength=len(taxonomy)))
    runs = [
        sorted(sid for leaf in taxonomy.leaves_under(int(node)) for sid in by_leaf.get(leaf, ()))
        for node in used
    ]
    size = np.zeros(len(taxonomy), dtype=np.int64)
    start = np.zeros(len(taxonomy), dtype=np.int64)
    size[used] = [len(run) for run in runs]
    start[used] = np.cumsum(size[used]) - size[used]

    anchor, positive, negative = size[nodes].T
    same = nodes[:, 0] == nodes[:, 1]
    feasible = (anchor >= 1 + same) & (positive > 0) & (negative > 0)
    if not skip_infeasible and not feasible.all():
        triple = triples[int(np.argmin(feasible))]
        node = min(triple, key=lambda n: size[n])
        raise SamplerError(
            f"node {taxonomy.name(node)!r} has too few {subset} samples "
            f"for triple {tuple(taxonomy.name(n) for n in triple)}"
        )
    nodes, same = nodes[feasible], same[feasible]
    anchor, positive, negative = anchor[feasible], positive[feasible], negative[feasible]

    # A distinct-node triple takes one draw per node. A same-node pair takes
    # the draws `choice(n, 2, replace=False)` makes (Floyd's algorithm:
    # [0, n-1) and [0, n), then a swap draw in [0, 2)) before the negative.
    per_triple = 3 + same
    first_draw = np.cumsum(per_triple) - per_triple
    highs = np.empty(int(per_triple.sum()), dtype=np.int64)
    highs[first_draw] = anchor - same
    highs[first_draw + 1] = np.where(same, anchor, positive)
    highs[first_draw + 2] = np.where(same, 2, negative)
    highs[first_draw[same] + 3] = negative[same]

    ids = np.empty(int(size.sum()), dtype=object)
    ids[:] = [sid for run in runs for sid in run]
    return TripletPools(
        subset, skip_infeasible, tuple(triples), ids, highs, first_draw, same, start[nodes]
    )


def instantiate_epoch(
    taxonomy: Taxonomy,
    dataset: list[LabeledSample],
    split: SplitAssignment,
    triples: list[NodeTriple],
    epoch_seed: int | list[int],
    subset: str = "train",
    skip_infeasible: bool = False,
    pools: TripletPools | None = None,
) -> list[TripletInstance]:
    """Draw one concrete sample triplet per node triple.

    Anchor and positive come from the same node without replacement when the
    triple says so, otherwise independently from their own nodes; negatives
    are uniform over their node. All draws of the epoch come from one
    `integers` call of a generator seeded by `epoch_seed`, which consumes it
    exactly as one `integers` call per node, or one `choice(n, 2,
    replace=False)` per same-node pair, would; so the epoch is reproducible.

    `pools` are the epoch-invariant pools from `triplet_pools`, built for the
    same triples, `subset` and `skip_infeasible`; without them they are built
    from the other arguments (see `triplet_pools` for infeasible triples).
    """
    if pools is None:
        pools = triplet_pools(taxonomy, dataset, split, triples, subset, skip_infeasible)
    elif (pools.subset, pools.skip_infeasible) != (subset, skip_infeasible) or (
        pools.triples != tuple(triples)
    ):
        raise ValueError(
            f"pools built for subset={pools.subset!r}, skip_infeasible="
            f"{pools.skip_infeasible} and {len(pools.triples)} triples cannot draw "
            f"subset={subset!r}, skip_infeasible={skip_infeasible} over {len(triples)} triples"
        )
    draws = np.random.default_rng(epoch_seed).integers(0, pools.highs)
    first, same, starts = pools.first_draw, pools.same, pools.starts
    i, j = draws[first], draws[first + 1]
    # Floyd: a repeat of the first index becomes the top index n - 1 (the
    # second draw's bound is n), and the pair is swapped when the swap draw is 0
    j = np.where(same & (j == i), pools.highs[first + 1] - 1, j)
    swap = same & (draws[first + 2] == 0)
    anchor = np.where(swap, j, i) + starts[:, 0]
    positive = np.where(swap, i, j) + starts[:, 1]
    negative = draws[first + 2 + same] + starts[:, 2]
    ids = pools.ids
    return list(
        map(TripletInstance, ids[anchor].tolist(), ids[positive].tolist(), ids[negative].tolist())
    )
