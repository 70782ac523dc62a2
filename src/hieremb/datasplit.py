"""Seen/unseen leaf folds and train/valid/test/prediction sample partitions."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import LabeledSample
from .taxonomy import Taxonomy

SUBSETS = ("train", "valid", "test", "prediction")
RATIOS = (0.8, 0.1, 0.1)  # train/valid/test share of each seen leaf's samples
UNSEEN_COUNT_THRESHOLD = 10  # leaves with fewer samples are unseen in every fold


class SplitError(ValueError):
    """Invalid split request or inconsistent split data."""


@dataclass(frozen=True)
class SplitAssignment:
    """One fold: leaf-level seen/unseen partition plus per-sample subsets."""

    fold_index: int
    seen_leaves: frozenset[int]
    unseen_leaves: frozenset[int]
    partition: dict[str, str]


def split_leaves(
    taxonomy: Taxonomy, counts: dict[int, int], k_folds: int, seed: int
) -> list[tuple[frozenset[int], frozenset[int]]]:
    """Per-fold (seen, unseen) leaf sets.

    Leaves under the sample-count threshold are unseen in every fold. The
    remaining leaves are shuffled once and dealt into k disjoint groups, so
    each eligible leaf is unseen in exactly one fold.
    """
    if k_folds < 2:
        raise SplitError("k_folds must be at least 2")
    missing = taxonomy.leaf_ids - set(counts)
    if missing:
        names = sorted(taxonomy.name(l) for l in missing)
        raise SplitError(f"counts missing for leaves: {names}")
    small = frozenset(l for l in taxonomy.leaf_ids if counts[l] < UNSEEN_COUNT_THRESHOLD)
    eligible = sorted(taxonomy.leaf_ids - small)
    if not eligible:
        raise SplitError("no leaf has enough samples to ever be seen")
    rng = np.random.default_rng(seed)
    shuffled = [eligible[i] for i in rng.permutation(len(eligible))]
    folds = []
    for fold in range(k_folds):
        group = frozenset(shuffled[fold::k_folds])
        unseen = group | small
        folds.append((frozenset(taxonomy.leaf_ids - unseen), unseen))
    return folds


def split_within_leaf(sample_ids: list[str], seed: int | list[int] = 0) -> dict[str, str]:
    """Shuffle one seen leaf's samples and cut train/valid/test by `RATIOS`.

    Valid and test sizes round down; the remainder goes to train.
    """
    n = len(sample_ids)
    n_valid = int(np.floor(RATIOS[1] * n))
    n_test = int(np.floor(RATIOS[2] * n))
    n_train = n - n_valid - n_test
    if min(n_train, n_valid, n_test) < 1:
        raise SplitError(f"{n} samples are too few to fill train/valid/test at {RATIOS}")
    ordered = sorted(sample_ids)
    shuffled = [ordered[i] for i in np.random.default_rng(seed).permutation(n)]
    parts = ["train"] * n_train + ["valid"] * n_valid + ["test"] * n_test
    return dict(zip(shuffled, parts))


def make_fold_splits(
    taxonomy: Taxonomy,
    dataset: list[LabeledSample],
    k_folds: int,
    seed: int,
) -> list[SplitAssignment]:
    """All fold assignments for a dataset; pure function of its arguments."""
    by_leaf: dict[int, list[str]] = {leaf: [] for leaf in taxonomy.leaf_ids}
    for sample in dataset:
        by_leaf[taxonomy.leaf_id_for(sample)].append(sample.id)
    counts = {leaf: len(ids) for leaf, ids in by_leaf.items()}
    splits = []
    for fold, (seen, unseen) in enumerate(split_leaves(taxonomy, counts, k_folds, seed)):
        partition: dict[str, str] = {}
        for leaf in sorted(unseen):
            for sid in by_leaf[leaf]:
                partition[sid] = "prediction"
        for leaf in sorted(seen):
            partition.update(split_within_leaf(by_leaf[leaf], seed=[seed, fold, leaf]))
        splits.append(
            SplitAssignment(
                fold_index=fold,
                seen_leaves=seen,
                unseen_leaves=unseen,
                partition=partition,
            )
        )
    return splits


def is_seen_node(taxonomy: Taxonomy, split: SplitAssignment, node_id: int) -> bool:
    """True iff the node has at least one seen leaf as descendant-or-self."""
    return any(l in split.seen_leaves for l in taxonomy.leaves_under(node_id))


def lowest_seen_ancestor(taxonomy: Taxonomy, split: SplitAssignment, unseen_leaf: int) -> int:
    """First node above an unseen leaf with training data beneath it.

    Walks the leaf-to-root path; the root terminates the walk regardless.
    """
    if unseen_leaf not in split.unseen_leaves:
        raise SplitError(f"{taxonomy.name(unseen_leaf)!r} is not an unseen leaf of this fold")
    path = taxonomy.path_to_root(unseen_leaf)
    for node in path[1:]:
        if is_seen_node(taxonomy, split, node):
            return node
    return path[-1]


def pruned_seen_taxonomy(taxonomy: Taxonomy, split: SplitAssignment) -> Taxonomy:
    """Copy of the tree without unseen leaves or the branches left empty by them.

    Node names are preserved, so nodes correspond across the two trees by name.
    """
    if not split.seen_leaves:
        raise SplitError("cannot prune: the fold has no seen leaves")
    # pre-order with children in order, as `parse_taxonomy` numbers nodes
    names: list[str] = []
    parents: list[int | None] = []
    stack: list[tuple[int, int | None]] = [(taxonomy.root, None)]
    while stack:
        node, parent = stack.pop()
        names.append(taxonomy.name(node))
        parents.append(parent)
        kept = [c for c in taxonomy.children(node) if is_seen_node(taxonomy, split, c)]
        stack.extend((c, len(names) - 1) for c in reversed(kept))
    return Taxonomy(names, parents)


def split_to_json(taxonomy: Taxonomy, split: SplitAssignment) -> dict:
    """JSON-ready form using leaf names, for reproducible reruns."""
    return {
        "fold": split.fold_index,
        "seen": sorted(taxonomy.name(l) for l in split.seen_leaves),
        "unseen": sorted(taxonomy.name(l) for l in split.unseen_leaves),
        "partition": {sid: split.partition[sid] for sid in sorted(split.partition)},
    }


def split_from_json(taxonomy: Taxonomy, data: dict) -> SplitAssignment:
    seen = frozenset(taxonomy.id_of(name) for name in data["seen"])
    unseen = frozenset(taxonomy.id_of(name) for name in data["unseen"])
    if seen & unseen:
        raise SplitError("seen and unseen leaf sets overlap")
    if seen | unseen != taxonomy.leaf_ids:
        raise SplitError("seen/unseen sets do not cover the leaf set")
    partition = {str(k): str(v) for k, v in data["partition"].items()}
    bad = sorted({v for v in partition.values()} - set(SUBSETS))
    if bad:
        raise SplitError(f"unknown partition subsets: {bad}")
    return SplitAssignment(
        fold_index=int(data["fold"]),
        seen_leaves=seen,
        unseen_leaves=unseen,
        partition=partition,
    )


def load_split(
    path: str | Path, taxonomy: Taxonomy, dataset: list[LabeledSample]
) -> SplitAssignment:
    """Read a split file written from `split_to_json` for this dataset; any
    fault in it is a `SplitError` that names the file. Every sample must have
    a subset, `prediction` exactly when its leaf is unseen in the fold, and
    every partition entry must name a dataset sample."""
    try:
        with open(path, encoding="utf-8") as fh:
            split = split_from_json(taxonomy, json.load(fh))
    except KeyError as err:
        raise SplitError(f"{path}: missing key {err}") from None
    except (ValueError, TypeError, AttributeError) as err:
        raise SplitError(f"{path}: {err}") from None
    for sample in dataset:
        subset = split.partition.get(sample.id)
        if subset is None:
            raise SplitError(f"{path}: sample {sample.id!r} is missing from the partition")
        unseen = taxonomy.leaf_id_for(sample) in split.unseen_leaves
        if unseen != (subset == "prediction"):
            raise SplitError(
                f"{path}: sample {sample.id!r} is in {subset!r}, but its leaf "
                f"{sample.leaf!r} is {'unseen' if unseen else 'seen'} in the fold"
            )
    known = {sample.id for sample in dataset}
    if len(split.partition) > len(known):  # every sample has an entry, so one is extra
        extra = next(sid for sid in split.partition if sid not in known)
        raise SplitError(f"{path}: sample {extra!r} in the partition is not in the dataset")
    return split


def partition_samples(
    dataset: list[LabeledSample], split: SplitAssignment, subset: str
) -> list[LabeledSample]:
    """Dataset samples assigned to one subset, in dataset order."""
    if subset not in SUBSETS:
        raise SplitError(f"unknown subset {subset!r}")
    try:
        return [s for s in dataset if split.partition[s.id] == subset]
    except KeyError as exc:
        raise SplitError(f"sample {exc.args[0]!r} is missing from the partition") from None
