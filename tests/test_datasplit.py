import json
import re
from dataclasses import replace

import numpy as np
import pytest

from hieremb.datasplit import (
    SUBSETS,
    SplitError,
    load_split,
    lowest_seen_ancestor,
    make_fold_splits,
    partition_samples,
    pruned_seen_taxonomy,
    split_from_json,
    split_leaves,
    split_to_json,
    split_within_leaf,
)
from hieremb.taxonomy import parse_taxonomy

from conftest import all_train_split, make_samples, manual_split
from oracles import (
    leaves_under_oracle,
    lowest_seen_ancestor_oracle,
    pruned_seen_taxonomy_oracle,
    random_tree_doc,
)


def star_taxonomy(n_leaves):
    return parse_taxonomy(
        {"name": "root", "children": [{"name": f"l{i}"} for i in range(n_leaves)]}
    )


class TestSplitLeaves:
    def test_small_leaf_always_unseen(self, t0):
        counts = {t0.id_of("a1"): 9, t0.id_of("a2"): 30, t0.id_of("b1"): 30}
        folds = split_leaves(t0, counts, k_folds=2, seed=0)
        for _, unseen in folds:
            assert t0.id_of("a1") in unseen

    def test_even_partition(self):
        tax = star_taxonomy(10)
        counts = {l: 20 for l in tax.leaf_ids}
        folds = split_leaves(tax, counts, k_folds=5, seed=1)
        for _, unseen in folds:
            assert len(unseen) == 2

    def test_folds_cover_eligible_exactly_once(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            tax = parse_taxonomy(random_tree_doc(rng))
            counts = {l: int(rng.integers(5, 30)) for l in sorted(tax.leaf_ids)}
            eligible = {l for l, c in counts.items() if c >= 10}
            if not eligible:
                continue
            k = int(rng.integers(2, 6))
            folds = split_leaves(tax, counts, k_folds=k, seed=3)
            marks = {l: 0 for l in eligible}
            for seen, unseen in folds:
                assert seen | unseen == tax.leaf_ids
                assert not seen & unseen
                for l in unseen & eligible:
                    marks[l] += 1
            assert all(v == 1 for v in marks.values())

    def test_no_eligible_leaves_rejected(self, t0):
        counts = {l: 5 for l in t0.leaf_ids}
        with pytest.raises(SplitError, match="no leaf"):
            split_leaves(t0, counts, k_folds=2, seed=0)

    def test_leaf_missing_from_counts_rejected(self, t0):
        counts = {l: 20 for l in t0.leaf_ids if t0.name(l) != "a2"}
        with pytest.raises(SplitError, match=re.escape("counts missing for leaves: ['a2']")):
            split_leaves(t0, counts, k_folds=2, seed=0)

    def test_k_folds_validation(self, t0):
        counts = {l: 20 for l in t0.leaf_ids}
        with pytest.raises(SplitError, match="k_folds"):
            split_leaves(t0, counts, k_folds=1, seed=0)

    def test_deterministic(self, t0):
        counts = {l: 20 for l in t0.leaf_ids}
        assert split_leaves(t0, counts, 2, 42) == split_leaves(t0, counts, 2, 42)


class TestSplitWithinLeaf:
    @pytest.mark.parametrize("n,expected", [(10, (8, 1, 1)), (20, (16, 2, 2)), (11, (9, 1, 1))])
    def test_ratio_arithmetic(self, n, expected):
        ids = [f"s{i}" for i in range(n)]
        assignment = split_within_leaf(ids, seed=0)
        sizes = tuple(
            sum(1 for v in assignment.values() if v == part)
            for part in ("train", "valid", "test")
        )
        assert sizes == expected
        assert set(assignment) == set(ids)

    def test_too_few_samples_rejected(self):
        with pytest.raises(SplitError, match="too few"):
            split_within_leaf([f"s{i}" for i in range(9)], seed=0)

    def test_deterministic(self):
        ids = [f"s{i}" for i in range(17)]
        assert split_within_leaf(ids, seed=5) == split_within_leaf(ids, seed=5)


class TestFoldSplits:
    def make(self, seed=0):
        tax = star_taxonomy(6)
        per_leaf = {"l0": 12, "l1": 15, "l2": 20, "l3": 11, "l4": 8, "l5": 30}
        samples = make_samples(tax, per_leaf)
        return tax, samples, make_fold_splits(tax, samples, k_folds=2, seed=seed)

    def test_partition_is_total_and_consistent(self):
        tax, samples, splits = self.make()
        for split in splits:
            assert set(split.partition) == {s.id for s in samples}
            for s in samples:
                leaf = tax.id_of(s.leaf)
                if leaf in split.unseen_leaves:
                    assert split.partition[s.id] == "prediction"
                else:
                    assert split.partition[s.id] in ("train", "valid", "test")

    def test_small_leaf_samples_in_prediction_every_fold(self):
        tax, samples, splits = self.make()
        small = [s.id for s in samples if s.leaf == "l4"]
        for split in splits:
            assert all(split.partition[sid] == "prediction" for sid in small)

    def test_pure_function_of_inputs(self):
        _, _, splits_a = self.make(seed=3)
        _, _, splits_b = self.make(seed=3)
        assert splits_a == splits_b

    def test_partition_samples_helper(self):
        tax, samples, splits = self.make()
        split = splits[0]
        for subset in ("train", "valid", "test", "prediction"):
            got = partition_samples(samples, split, subset)
            assert all(split.partition[s.id] == subset for s in got)
        with pytest.raises(SplitError, match="unknown subset"):
            partition_samples(samples, split, "nope")

    def test_sample_missing_from_the_partition_is_named(self):
        tax, samples, splits = self.make()
        partition = dict(splits[0].partition)
        del partition[samples[3].id]
        split = replace(splits[0], partition=partition)
        with pytest.raises(SplitError, match=f"^sample {re.escape(repr(samples[3].id))} is missing from the partition$"):
            partition_samples(samples, split, "train")


class TestSeenQueries:
    def test_lsa_walks_to_first_seen(self, t0):
        samples = make_samples(t0, {"a1": 1, "a2": 1, "b1": 1})
        a1, a2, big_a = t0.id_of("a1"), t0.id_of("a2"), t0.id_of("A")
        assert t0.leaves_under(big_a) == (a1, a2) == tuple(leaves_under_oracle(t0, big_a))
        # A is seen through a1 while only a2 is unseen, and not once a1 is unseen
        # too; with no seen leaf the walk ends at the root
        for unseen, lsa in ((["a2"], big_a), (["a1", "a2"], t0.root), (["a1", "a2", "b1"], t0.root)):
            split = manual_split(t0, samples, unseen_names=unseen)
            for leaf in split.unseen_leaves:
                assert lowest_seen_ancestor(t0, split, leaf) == lsa
                assert lowest_seen_ancestor_oracle(t0, split, leaf) == lsa

    def test_lsa_requires_unseen_leaf(self, t0):
        samples = make_samples(t0, {"a1": 1, "a2": 1, "b1": 1})
        split = manual_split(t0, samples, unseen_names=["a2"])
        with pytest.raises(SplitError, match="not an unseen leaf"):
            lowest_seen_ancestor(t0, split, t0.id_of("a1"))

    def test_lsa_properties_random(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            tax = parse_taxonomy(random_tree_doc(rng))
            leaves = sorted(tax.leaf_ids)
            samples = make_samples(tax, {tax.name(l): 1 for l in leaves})
            n_unseen = int(rng.integers(1, len(leaves)))
            unseen = [tax.name(l) for l in rng.choice(leaves, size=n_unseen, replace=False)]
            split = manual_split(tax, samples, unseen_names=unseen)
            if not split.seen_leaves:
                continue
            for leaf in split.unseen_leaves:
                lsa = lowest_seen_ancestor(tax, split, leaf)
                assert lsa != leaf
                assert tax.is_ancestor_or_self(lsa, leaf)
                assert lsa == lowest_seen_ancestor_oracle(tax, split, leaf)


class TestPruning:
    def test_prune_t0(self, t0):
        samples = make_samples(t0, {"a1": 1, "a2": 1, "b1": 1})
        split = manual_split(t0, samples, unseen_names=["a2"])
        pruned = pruned_seen_taxonomy(t0, split)
        assert pruned.to_document() == {
            "name": "root",
            "children": [
                {"name": "A", "children": [{"name": "a1"}]},
                {"name": "B", "children": [{"name": "b1"}]},
            ],
        }

    def test_prune_noop(self, t0):
        samples = make_samples(t0, {"a1": 1, "a2": 1, "b1": 1})
        split = all_train_split(t0, samples)
        assert pruned_seen_taxonomy(t0, split).to_document() == t0.to_document()

    def test_prune_removes_empty_branch(self, t0):
        samples = make_samples(t0, {"a1": 1, "a2": 1, "b1": 1})
        split = manual_split(t0, samples, unseen_names=["a1", "a2"])
        pruned = pruned_seen_taxonomy(t0, split)
        assert pruned.to_document() == {
            "name": "root",
            "children": [{"name": "B", "children": [{"name": "b1"}]}],
        }

    def test_matches_document_oracle(self):
        # the pruned tree equals the one built as a nested document and
        # parsed back: the same names in the same pre-order, the same parents
        rng = np.random.default_rng(9)
        folds = 0
        for _ in range(20):
            tax = parse_taxonomy(random_tree_doc(rng))
            leaves = sorted(tax.leaf_ids)
            counts = rng.integers(4, 30, size=len(leaves))
            counts[0] = 20  # at least one leaf is seen in some fold
            samples = make_samples(tax, {tax.name(l): int(c) for l, c in zip(leaves, counts)})
            for split in make_fold_splits(tax, samples, k_folds=3, seed=int(rng.integers(1000))):
                if split.seen_leaves:
                    oracle = pruned_seen_taxonomy_oracle(tax, split)
                    assert pruned_seen_taxonomy(tax, split).to_document() == oracle.to_document()
                    folds += 1
        assert folds > 40

    def test_prune_requires_seen_leaf(self, t0):
        samples = make_samples(t0, {"a1": 1, "a2": 1, "b1": 1})
        split = manual_split(t0, samples, unseen_names=["a1", "a2", "b1"])
        with pytest.raises(SplitError, match="no seen leaves"):
            pruned_seen_taxonomy(t0, split)


class TestSerialisation:
    def test_round_trip(self, t0):
        samples = make_samples(t0, {"a1": 12, "a2": 15, "b1": 11})
        split = make_fold_splits(t0, samples, k_folds=2, seed=0)[1]
        data = split_to_json(t0, split)
        json.dumps(data)  # must be serialisable
        assert split_from_json(t0, data) == split

    def test_partition_values_are_the_subset_names(self, t0, tmp_path):
        # the JSON parse makes a string per entry; each becomes its SUBSETS entry
        samples = make_samples(t0, {"a1": 12, "a2": 15, "b1": 11})
        split = make_fold_splits(t0, samples, k_folds=2, seed=0)[1]
        path = tmp_path / "split.json"
        path.write_text(json.dumps(split_to_json(t0, split)))
        loaded = load_split(path, t0, samples)
        assert loaded == split
        assert {id(v) for v in loaded.partition.values()} <= {id(name) for name in SUBSETS}

    @pytest.mark.parametrize("fold", [1.7, "1", True, -1], ids=["float", "string", "true", "negative"])
    def test_fold_that_is_not_a_non_negative_integer_is_named(self, t0, tmp_path, fold):
        samples = make_samples(t0, {"a1": 12, "a2": 15, "b1": 11})
        split = make_fold_splits(t0, samples, k_folds=2, seed=0)[1]
        path = tmp_path / "split.json"
        path.write_text(json.dumps(split_to_json(t0, split) | {"fold": fold}))
        message = f"{path}: 'fold' is {fold!r}, not a non-negative integer"
        with pytest.raises(SplitError, match=f"^{re.escape(message)}$"):
            load_split(path, t0, samples)

    def test_rejects_inconsistent_sets(self, t0):
        data = {"fold": 0, "seen": ["a1"], "unseen": ["a2"], "partition": {}}
        with pytest.raises(SplitError, match="cover"):
            split_from_json(t0, data)
