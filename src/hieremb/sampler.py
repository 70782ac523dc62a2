"""Offline triplet mining from the label tree.

Node-level triples are enumerated once per tree; concrete sample triplets
are drawn once per epoch, so the per-epoch triplet count is fixed by the
tree structure, not the dataset size.
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


def instantiate_epoch(
    taxonomy: Taxonomy,
    dataset: list[LabeledSample],
    split: SplitAssignment,
    triples: list[NodeTriple],
    epoch_seed: int | list[int],
    subset: str = "train",
    skip_infeasible: bool = False,
) -> list[TripletInstance]:
    """Draw one concrete sample triplet per node triple.

    Anchor and positive come from the same node without replacement when the
    triple says so, otherwise independently from their own nodes; negatives
    are uniform over their node. All draws use one generator seeded by
    `epoch_seed`, so the whole epoch is reproducible.

    Nodes are resolved against `taxonomy` (normally the pruned seen tree) and
    only samples in the requested partition subset are drawn. A node with no
    usable sample raises unless `skip_infeasible`, which silently drops that
    triple (used for validation triplet sets, where single-sample nodes are
    legitimate).
    """
    in_subset = [s for s in dataset if split.partition.get(s.id) == subset]
    by_leaf: dict[int, list[str]] = {}
    for sample in in_subset:
        by_leaf.setdefault(taxonomy.leaf_id_for(sample), []).append(sample.id)

    pools: dict[int, list[str]] = {}

    def pool(node_id: int) -> list[str]:
        cached = pools.get(node_id)
        if cached is None:
            ids: list[str] = []
            for leaf in taxonomy.leaves_under(node_id):
                ids.extend(by_leaf.get(leaf, ()))
            cached = sorted(ids)
            pools[node_id] = cached
        return cached

    # All draws of the epoch come from one `integers` call over the
    # concatenated bounds, which consumes the generator exactly as per-triple
    # calls would: one uniform draw per node of a distinct-node triple, and
    # for a same-node pair the draws `choice(n, 2, replace=False)` makes
    # (Floyd's algorithm: [0, n-1) and [0, n), then a swap draw in [0, 2)).
    picks = []  # (anchor pool, positive pool or None when same, negative pool)
    highs: list[int] = []
    for triple in triples:
        anchor_pool = pool(triple.anchor_node)
        negative_pool = pool(triple.negative_node)
        same = triple.anchor_node == triple.positive_node
        positive_pool = anchor_pool if same else pool(triple.positive_node)
        if len(anchor_pool) < 1 + same or not positive_pool or not negative_pool:
            if skip_infeasible:
                continue
            node = min(
                (triple.anchor_node, triple.positive_node, triple.negative_node),
                key=lambda n: len(pool(n)),
            )
            raise SamplerError(
                f"node {taxonomy.name(node)!r} has too few {subset} samples "
                f"for triple {tuple(taxonomy.name(n) for n in triple)}"
            )
        n = len(anchor_pool)
        highs += (n - 1, n, 2) if same else (n, len(positive_pool))
        highs.append(len(negative_pool))
        picks.append((anchor_pool, None if same else positive_pool, negative_pool))

    draws = iter(np.random.default_rng(epoch_seed).integers(0, highs).tolist())
    instances = []
    for anchor_pool, positive_pool, negative_pool in picks:
        i, j = next(draws), next(draws)
        if positive_pool is None:
            # Floyd: a repeat of the first index becomes the top index
            if j == i:
                j = len(anchor_pool) - 1
            if next(draws) == 0:
                i, j = j, i
            positive_pool = anchor_pool
        negative = negative_pool[next(draws)]
        instances.append(TripletInstance(anchor_pool[i], positive_pool[j], negative))
    return instances
