import tracemalloc
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hieremb import metrics
from hieremb.datasplit import SplitAssignment
from hieremb.metrics import (
    MetricError,
    MetricsReport,
    Ranking,
    acc_aware,
    acc_blind,
    build_ranked_lists,
    leaf_f1,
    mnr,
    ndcg,
    relevance_tables,
    rp_at_k,
    score_pool,
)
from hieremb.taxonomy import parse_taxonomy

from conftest import candidate_lists, make_samples, manual_split, ranking_of
from oracles import (
    acc_aware_oracle,
    acc_blind_oracle,
    height_diameter_oracle,
    leaf_f1_oracle,
    lowest_seen_ancestor_oracle,
    mnr_oracle,
    ndcg_oracle,
    random_tree_doc,
    ranked_lists_oracle,
    relevance_oracle,
    uniform_tree_doc,
    wide_index_metrics_oracle,
)


def random_instance(rng, n_candidates=None, dim=6):
    """Random tree, random leaf labels, random embeddings; returns everything
    both metric paths need."""
    tax = parse_taxonomy(random_tree_doc(rng, max_children=3))
    leaves = sorted(tax.leaf_ids)
    n = n_candidates or int(rng.integers(5, 31))
    ids = [f"s{i:03d}" for i in range(n)]
    leaf_of = {sid: int(rng.choice(leaves)) for sid in ids}
    embeddings = {sid: rng.normal(size=dim) for sid in ids}
    return tax, ids, leaf_of, embeddings


class TestRankedLists:
    def test_query_excluded_and_sorted(self):
        rng = np.random.default_rng(0)
        embeddings = {f"s{i}": rng.normal(size=4) for i in range(8)}
        ranking = build_ranked_lists(embeddings, list(embeddings))
        assert len(ranking) == 8
        assert ranking.ids == tuple(sorted(embeddings))
        for query, candidates in candidate_lists(ranking).items():
            assert query not in candidates
            assert len(candidates) == 7

    def test_descending_similarity(self):
        q = np.array([1.0, 0.0])
        embeddings = {
            "q": q,
            "far": np.array([-1.0, 0.1]),
            "mid": np.array([1.0, 1.0]),
            "near": np.array([1.0, 0.1]),
        }
        ranking = build_ranked_lists(embeddings, list(embeddings))
        assert candidate_lists(ranking)["q"] == ["near", "mid", "far"]

    def test_ties_break_by_ascending_id(self):
        v = np.array([0.5, 0.5])
        embeddings = {name: v.copy() for name in ("d", "b", "a", "c")}
        ranking = build_ranked_lists(embeddings, list(embeddings))
        assert candidate_lists(ranking)["c"] == ["a", "b", "d"]

    def test_matches_naive_construction(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            _, ids, _, embeddings = random_instance(rng)
            lib = candidate_lists(build_ranked_lists(embeddings, ids))
            assert lib == ranked_lists_oracle(embeddings, ids)

    @pytest.mark.parametrize("block_rows", [1, 3, 7, 1000])
    def test_duplicate_embeddings_tie_in_id_order(self, monkeypatch, block_rows):
        # a few distinct vectors repeated over the pool: BLAS can round the
        # same dot product differently by its place in the output, yet
        # duplicates must tie exactly, so each duplicate set forms one run
        # of candidates in ascending id order
        rng = np.random.default_rng(12)
        for n, dim in [(20, 3), (33, 5), (50, 8), (64, 16), (80, 24), (101, 32)]:
            base = rng.normal(size=(5, dim))
            group = rng.integers(5, size=n)
            ids = [f"s{i:03d}" for i in range(n)]
            monkeypatch.setattr(metrics, "_BLOCK_BYTES", block_rows * 8 * n)
            ranking = build_ranked_lists(dict(zip(ids, base[group])), ids)
            for row in ranking.order:
                groups = group[row]
                assert np.count_nonzero(np.diff(groups)) == len(np.unique(groups)) - 1
                for g in np.unique(groups):
                    assert np.all(np.diff(row[groups == g]) > 0)

    def test_needs_two_samples(self):
        with pytest.raises(MetricError, match="two samples"):
            build_ranked_lists({"only": np.ones(3)}, ["only"])


def pool_scores(embeddings, ids):
    """Yield (rows, scores) for each block of query rows, with the scores
    build_ranked_lists sorts, made the same way: unit vectors times the
    pool, or for a pool with duplicate embeddings the distinct rows'
    products gathered, so every bit agrees."""
    ids = sorted(ids)
    n = len(ids)
    vectors = np.stack([np.asarray(embeddings[sid], dtype=np.float64) for sid in ids])
    unit = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    distinct, column = np.unique(unit, axis=0, return_inverse=True)
    for rows in metrics._blocks(n, n):
        if len(distinct) < n:
            yield rows, np.take(unit[rows] @ distinct.T, column.ravel(), axis=1)
        else:
            yield rows, unit[rows] @ unit.T


def stable_order(embeddings, ids):
    """The order matrix from a stable argsort of every row's negated scores,
    the query's own column first and then cut: what the packed-key sort and
    its exact path must reproduce bit for bit."""
    n = len(ids)
    blocks = []
    for rows, scores in pool_scores(embeddings, ids):
        negated = -scores
        negated[np.arange(len(negated)), np.arange(n)[rows]] = -np.inf
        order = np.argsort(negated, axis=1, kind="stable")[:, 1:]
        blocks.append(order.astype(np.min_scalar_type(n - 1)))
    return np.vstack(blocks)


def key_collisions(embeddings, ids):
    """Two lists of query pool positions: the queries whose rows hold two
    candidates with keys that agree above the column bits (equal bits of
    2 - score once the low (n - 1).bit_length() bits are dropped), and those
    whose rows hold two exactly equal scores (+0.0 equals -0.0)."""
    n = len(ids)
    bits = (n - 1).bit_length()
    collided, tied = [], []
    for rows, scores in pool_scores(embeddings, ids):
        for query, row in zip(np.arange(n)[rows], scores):
            candidates = np.delete(row, query)
            high = np.sort((2.0 - candidates).view(np.int64) >> bits)
            if np.any(high[1:] == high[:-1]):
                collided.append(int(query))
            if np.any(np.diff(np.sort(candidates)) == 0):
                tied.append(int(query))
    return collided, tied


def stably_sorted_queries(spy):
    """Pool positions of the queries whose rows a spied `np.argsort` sorted:
    each row it receives holds -inf in the query's own column only."""
    return [int(np.argmin(row)) for call in spy.call_args_list for row in call.args[0]]


def tie_pool(rng, n, duplicates):
    """A shuffled pool whose cosines tie: distinct vectors with equal cosines
    to the first axis, vectors orthogonal to it (cosines of +0.0 or -0.0) and
    random ones. With `duplicates`, members are drawn with replacement from
    those vectors and the last repeats the first."""
    special = np.array(
        [
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [1.0, -1.0, 0.0],
            [1.0, 0.0, 1.0],
            [2.0, 0.0, -2.0],
            [0.0, 1.0, 0.0],
            [-0.0, -1.0, 0.0],
            [0.0, -0.0, 3.0],
        ]
    )
    if duplicates:
        base = np.vstack([special, rng.normal(size=(4, 3))])
        pick = rng.integers(len(base), size=n)
        pick[-1] = pick[0]
    else:
        base = np.vstack([special, rng.normal(size=(n - len(special), 3))])
        pick = rng.permutation(n)
    ids = [f"s{i:03d}" for i in range(n)]
    return ids, dict(zip(ids, base[pick]))


class TestTieRepair:
    """Every pool sorts packed integer keys, and only rows where two keys
    agree above the column bits, exact ties and duplicate pairs among them,
    are sorted again with the stable argsort of their scores. The order
    matrix equals an all-stable sort's."""

    @pytest.mark.parametrize("block", ["1", "3", "n"])
    def test_duplicates_repair_collided_rows(self, monkeypatch, block):
        rng = np.random.default_rng(31)
        for n in (5, 12, 40, 97):
            ids, embeddings = tie_pool(rng, n, duplicates=True)
            block_rows = n if block == "n" else int(block)
            monkeypatch.setattr(metrics, "_BLOCK_BYTES", block_rows * 8 * n)
            with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
                order = build_ranked_lists(embeddings, ids).order
            kinds = [c.kwargs.get("kind") for c in spy.call_args_list]
            collided, tied = key_collisions(embeddings, ids)
            assert set(kinds) == {"stable"} and stably_sorted_queries(spy) == collided
            # a duplicate pair ties in the row of every query outside it
            assert len(tied) >= n - 2 and set(tied) <= set(collided)
            assert np.array_equal(order, stable_order(embeddings, ids))

    @pytest.mark.parametrize("block", ["1", "3", "n"])
    def test_equal_cosines_repair_tied_rows(self, monkeypatch, block):
        rng = np.random.default_rng(34)
        for n in (8, 12, 40, 97):
            ids, embeddings = tie_pool(rng, n, duplicates=False)
            block_rows = n if block == "n" else int(block)
            monkeypatch.setattr(metrics, "_BLOCK_BYTES", block_rows * 8 * n)
            with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
                order = build_ranked_lists(embeddings, ids).order
            kinds = [c.kwargs.get("kind") for c in spy.call_args_list]
            collided, tied = key_collisions(embeddings, ids)
            assert set(kinds) == {"stable"} and stably_sorted_queries(spy) == collided
            assert tied and set(tied) <= set(collided)
            assert np.array_equal(order, stable_order(embeddings, ids))

    def test_tie_free_pool_makes_no_stable_sort(self, monkeypatch):
        rng = np.random.default_rng(32)
        ids = [f"s{i:03d}" for i in range(60)]
        embeddings = dict(zip(ids, rng.normal(size=(60, 8))))
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 7 * 8 * 60)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            order = build_ranked_lists(embeddings, ids).order
        assert spy.call_count == 0
        assert np.array_equal(order, stable_order(embeddings, ids))

    @pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16)])
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_narrow_order_scores_like_int64(self, n, dtype):
        tax, ids, leaf_of, embeddings = random_instance(np.random.default_rng(n), n)
        ranking = build_ranked_lists(embeddings, ids)
        assert ranking.order.dtype == dtype
        assert ranking.order.max() == n - 1
        wide = Ranking(ranking.ids, ranking.queries, ranking.order.astype(np.int64))
        for metric in (
            partial(ndcg, taxonomy=tax, leaf_of=leaf_of, kind="sum"),
            partial(ndcg, taxonomy=tax, leaf_of=leaf_of, kind="max"),
            partial(mnr, taxonomy=tax, leaf_of=leaf_of),
            partial(rp_at_k, leaf_of=leaf_of),
        ):
            assert metric(ranking) == metric(wide)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
    def test_dead_embedding_rejected(self, bad):
        rng = np.random.default_rng(33)
        ids = [f"s{i}" for i in range(6)]
        embeddings = dict(zip(ids, rng.normal(size=(6, 3))))
        for sid in ("s4", "s2"):
            embeddings[sid] = np.zeros(3) if bad == 0.0 else np.array([1.0, bad, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MetricError, match=r"'s2'.*dead embedding"):
                build_ranked_lists(embeddings, list(embeddings))


class TestDuplicateCheck:
    """Duplicate rows share their first column, so the row-wise `np.unique`
    runs only for a pool whose first column repeats; any other pool is
    scored directly, as a pool without duplicates always was."""

    def test_unrepeated_first_column_makes_no_unique_call(self, monkeypatch):
        rng = np.random.default_rng(36)
        ids = [f"s{i:03d}" for i in range(60)]
        embeddings = dict(zip(ids, rng.normal(size=(60, 8))))
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 7 * 8 * 60)
        with mock.patch.object(np, "unique", wraps=np.unique) as spy:
            order = build_ranked_lists(embeddings, ids).order
        assert spy.call_count == 0
        assert np.array_equal(order, stable_order(embeddings, ids))

    @pytest.mark.parametrize("block", ["1", "3", "n"])
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_repeated_first_column_without_duplicates(self, monkeypatch, block):
        rng = np.random.default_rng(37)
        for n in (5, 12, 40, 97):
            tax = parse_taxonomy(random_tree_doc(rng, max_children=3))
            vectors = rng.normal(size=(n, 3))
            vectors[1] = vectors[0, [0, 2, 1]]  # same norm, so the same unit first column
            vectors[2], vectors[3] = [0.0, 1.0, 2.0], [-0.0, 2.0, 1.0]  # +0.0 == -0.0
            vectors = vectors[rng.permutation(n)]
            ids = [f"s{i:03d}" for i in range(n)]
            embeddings = dict(zip(ids, vectors))
            leaf_of = {sid: int(rng.choice(sorted(tax.leaf_ids))) for sid in ids}
            block_rows = n if block == "n" else int(block)
            monkeypatch.setattr(metrics, "_BLOCK_BYTES", block_rows * 8 * n)
            with mock.patch.object(np, "unique", wraps=np.unique) as spy:
                ranking = build_ranked_lists(embeddings, ids)
            assert spy.call_count == 1
            assert np.array_equal(ranking.order, stable_order(embeddings, ids))
            expected = wide_index_metrics_oracle(ranking, tax, leaf_of)
            scores = score_pool(ranking, tax, leaf_of)
            lib = {
                "ndcg_sum": partial(ndcg, ranking, tax, leaf_of, "sum", scores=scores),
                "ndcg_max": partial(ndcg, ranking, tax, leaf_of, "max", scores=scores),
                "mnr": partial(mnr, ranking, tax, leaf_of, scores=scores),
                "rp_at_k": partial(rp_at_k, ranking, leaf_of),
            }
            for name, metric in lib.items():
                try:
                    value = metric()
                except MetricError:
                    value = None
                assert value == expected[name], name


def ulp_pool(rng, n, gap):
    """A shuffled pool of n members: the first axis, two unit vectors in the
    first two axes whose first components lie `gap` ulps apart, and random
    vectors. Each of the two has a second component for which its norm
    rounds to exactly 1, so it is its own unit vector and its score in the
    axis's row is its first component. Returns the ids, the embeddings and
    the pool positions of the axis and of the pair."""
    pair = []
    # one ulp is np.spacing(0.55) throughout [0.5, 1)
    for first in rng.uniform(0.55, 0.95) + np.array([0, gap]) * np.spacing(0.55):
        y0 = np.sqrt(1.0 - first * first)
        y = next(
            y0 + step * np.spacing(y0)
            for step in sorted(range(-8, 9), key=abs)
            if np.linalg.norm([[first, y0 + step * np.spacing(y0), 0.0]], axis=1)[0] == 1.0
        )
        pair.append([first, y, 0.0])
    vectors = np.vstack([[1.0, 0.0, 0.0], pair, rng.normal(size=(n - 3, 3))])
    pick = rng.permutation(n)
    ids = [f"s{i:03d}" for i in range(n)]
    position = np.argsort(pick)
    return ids, dict(zip(ids, vectors[pick])), position[0], position[1:3]


class TestPackedKeys:
    """The key of a candidate keeps its score's bits above the low column
    bits, so two candidates whose scores lie a few ulps apart may share them;
    such a row must take the exact path, and any other row is ordered by its
    keys alone. Every order matrix equals an all-stable sort's."""

    @pytest.mark.parametrize("n", [16, 40, 97])
    def test_scores_ulps_apart_rank_as_stable_sort(self, n):
        rng = np.random.default_rng(40 + n)
        bits = (n - 1).bit_length()
        axis_row_exact = []
        for gap in [1, 2, 3, 2**bits - 1, 2**bits, *rng.integers(1, 2**bits, size=6)]:
            for _ in range(3):
                ids, embeddings, axis, pair = ulp_pool(rng, n, gap)
                rows, scores = next(
                    (rows, scores) for rows, scores in pool_scores(embeddings, ids)
                    if rows.start <= axis < rows.stop
                )
                ulps = np.diff(scores[axis - rows.start, pair].view(np.int64))
                assert ulps == [gap]
                with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
                    order = build_ranked_lists(embeddings, ids).order
                collided, _ = key_collisions(embeddings, ids)
                assert stably_sorted_queries(spy) == collided
                assert np.array_equal(order, stable_order(embeddings, ids))
                axis_row_exact.append(axis in collided)
        # the pairs took both paths: some shared their key bits, some did not
        assert any(axis_row_exact) and not all(axis_row_exact)

    @pytest.mark.parametrize("n", [2, 256, 257, 4096, 4097])
    def test_column_bits_at_width_edges(self, n):
        # n - 1 needs exactly (n - 1).bit_length() bits: 1, 8, 9, 12 and 13
        rng = np.random.default_rng(n)
        if n < 8:
            ids = [f"s{i}" for i in range(n)]
            embeddings = dict(zip(ids, rng.normal(size=(n, 3))))
        else:
            ids, embeddings = tie_pool(rng, n, duplicates=False)
        order = build_ranked_lists(embeddings, ids).order
        assert order.max() == n - 1
        assert np.array_equal(order, stable_order(embeddings, ids))


def assert_matches_oracles(tax, ids, leaf_of, embeddings):
    """Ranking, NDCG, MNR and RP@5 equal the brute-force oracles within 1e-12;
    where an oracle's mean is empty, the library raises MetricError."""
    ranking = build_ranked_lists(embeddings, ids)
    oracle_lists = ranked_lists_oracle(embeddings, ids)
    assert candidate_lists(ranking) == oracle_lists
    pairs = [
        (
            partial(ndcg, ranking, tax, leaf_of, kind),
            partial(ndcg_oracle, tax, oracle_lists, leaf_of, kind),
        )
        for kind in ("sum", "max")
    ]
    pairs.append(
        (partial(mnr, ranking, tax, leaf_of), partial(mnr_oracle, tax, oracle_lists, leaf_of))
    )
    for lib, oracle in pairs:
        try:
            expected = oracle()
        except ZeroDivisionError:
            with pytest.raises(MetricError):
                lib()
        else:
            assert lib() == pytest.approx(expected, abs=1e-12)
    if len(ids) > 5:
        expected = np.mean(
            [
                sum(leaf_of[c] == leaf_of[q] for c in cands[:5]) / 5
                for q, cands in oracle_lists.items()
            ]
        )
        assert rp_at_k(ranking, leaf_of, k=5) == pytest.approx(expected, abs=1e-12)


class TestBlockedEvaluation:
    """Ranking and scoring run one block of query rows at a time; the block
    size must not change any value."""

    @pytest.mark.parametrize("block_rows", [1, 2])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_small_blocks_match_oracles(self, monkeypatch, block_rows, tied):
        rng = np.random.default_rng(8)
        for _ in range(10):
            tax, ids, leaf_of, embeddings = random_instance(rng)
            if tied:
                # unit rows of 0.5s: every cosine is exactly 1, so ids decide
                embeddings = {sid: np.full(4, 3.0) for sid in ids}
            monkeypatch.setattr(metrics, "_BLOCK_BYTES", block_rows * 8 * len(ids))
            assert_matches_oracles(tax, ids, leaf_of, embeddings)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 24),
        block_rows=st.integers(1, 24),
        tie_share=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_random_trees_match_oracles(self, seed, n, block_rows, tie_share):
        rng = np.random.default_rng(seed)
        tax = parse_taxonomy(random_tree_doc(rng, max_children=3))
        leaves = sorted(tax.leaf_ids)
        ids = [f"s{i:03d}" for i in range(n)]
        leaf_of = {sid: int(rng.choice(leaves)) for sid in ids}
        # signed unit axes give exact cosines, so equal axes tie exactly
        axes = np.vstack([np.eye(3), -np.eye(3)])
        embeddings = {
            sid: axes[rng.integers(6)] if rng.random() < tie_share else rng.normal(size=3)
            for sid in ids
        }
        with mock.patch.object(metrics, "_BLOCK_BYTES", block_rows * 8 * n):
            assert_matches_oracles(tax, ids, leaf_of, embeddings)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_working_memory_is_bounded_by_the_block_budget(self):
        # a pool the size of the largest benchmark pool, over 36 to 64 leaves
        rng = np.random.default_rng(17)
        tax = parse_taxonomy(uniform_tree_doc(rng, depth=2, min_children=6, max_children=8))
        n, dim = 2400, 16
        ids = [f"s{i:04d}" for i in range(n)]
        leaf_of = dict(zip(ids, rng.choice(sorted(tax.leaf_ids), n).tolist()))
        embeddings = dict(zip(ids, rng.normal(size=(n, dim))))
        tracemalloc.start()
        try:
            ranking = build_ranked_lists(embeddings, ids)
            score_pool(ranking, tax, leaf_of)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        working = peak - ranking.order.nbytes
        # a block's scores, its int64 keys and their comparison, plus the
        # pool's vectors: stacked, unit, and np.unique's copies of them
        assert working < 3 * metrics._BLOCK_BYTES + 4 * n * dim * 8
        # and the budget keeps that small next to the order matrix
        assert working < ranking.order.nbytes / 2


class TestLeafCodes:
    """NDCG, MNR and RP@k read leaves through intp leaf codes and flat
    cells of leaf x leaf tables; every value equals the intp-index form."""

    @pytest.mark.parametrize("block_rows", [1, 3, None])
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_equal_to_wide_index_form(self, monkeypatch, block_rows):
        rng = np.random.default_rng(61)
        # random trees (uint8 and uint16 codes) and one of 324 leaves (uint32)
        instances = [random_instance(rng, int(rng.integers(5, 90))) for _ in range(12)]
        tax = parse_taxonomy(uniform_tree_doc(rng, depth=2, min_children=18, max_children=18))
        ids = [f"s{i:03d}" for i in range(400)]
        leaf_of = {sid: int(leaf) for sid, leaf in zip(ids, rng.choice(sorted(tax.leaf_ids), 400))}
        instances.append((tax, ids, leaf_of, dict(zip(ids, rng.normal(size=(400, 6))))))
        for tax, ids, leaf_of, embeddings in instances:
            if block_rows:
                monkeypatch.setattr(metrics, "_BLOCK_BYTES", block_rows * 8 * len(ids))
            ranking = build_ranked_lists(embeddings, ids)
            expected = wide_index_metrics_oracle(ranking, tax, leaf_of)
            lib = {
                "ndcg_sum": partial(ndcg, ranking, tax, leaf_of, "sum"),
                "ndcg_max": partial(ndcg, ranking, tax, leaf_of, "max"),
                "mnr": partial(mnr, ranking, tax, leaf_of),
                "rp_at_k": partial(rp_at_k, ranking, leaf_of),
            }
            for name, metric in lib.items():
                try:
                    value = metric()
                except MetricError:
                    value = None
                assert value == expected[name], name


class TestLeafF1:
    def test_perfect(self):
        truths = np.array([0, 1, 0, 1])
        assert leaf_f1(truths.copy(), truths, classes=[0, 1]) == 1.0

    def test_single_class_predictor_on_balanced_classes(self):
        truths = np.array([0, 0, 1, 1])
        predictions = np.zeros(4, dtype=np.intp)
        assert leaf_f1(predictions, truths, classes=[0, 1]) == pytest.approx(1 / 3)

    def test_absent_class_counts_as_zero(self):
        truths = np.array([0, 0])
        predictions = np.array([0, 0])
        assert leaf_f1(predictions, truths, classes=[0, 7]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        none = np.array([], dtype=np.intp)
        with pytest.raises(MetricError, match="empty"):
            leaf_f1(none, none, classes=[0])
        # predictions and truths are aligned by position, so their lengths agree
        with pytest.raises(MetricError, match="^3 predictions for 4 samples$"):
            leaf_f1(np.array([0, 1, 0]), np.array([0, 1, 0, 1]), classes=[0, 1])


class TestRpAtK:
    def test_perfect_clusters(self):
        rng = np.random.default_rng(2)
        embeddings = {}
        leaf_of = {}
        for leaf in range(3):
            centre = 10.0 * rng.normal(size=4)
            for i in range(6):
                sid = f"l{leaf}s{i}"
                embeddings[sid] = centre + 0.01 * rng.normal(size=4)
                leaf_of[sid] = leaf
        ranked = build_ranked_lists(embeddings, list(embeddings))
        assert rp_at_k(ranked, leaf_of, k=5) == 1.0

    def test_partial_ratio(self):
        # query q: two of the top five share its leaf
        ranked = ranking_of({"q": [f"c{i}" for i in range(6)]})
        leaf_of = {"q": 1, "c0": 1, "c1": 0, "c2": 1, "c3": 0, "c4": 0, "c5": 1}
        assert rp_at_k(ranked, leaf_of, k=5) == pytest.approx(0.4)

    def test_identical_embeddings_match_oracle(self):
        # all-tied ranking is resolved by id; precision follows that order
        ids = [f"s{i}" for i in range(8)]
        embeddings = {sid: np.array([1.0, 2.0]) for sid in ids}
        leaf_of = {sid: i % 2 for i, sid in enumerate(ids)}
        ranked = build_ranked_lists(embeddings, ids)
        oracle_lists = ranked_lists_oracle(embeddings, ids)
        expected = np.mean(
            [
                sum(1 for cid in oracle_lists[q][:5] if leaf_of[cid] == leaf_of[q]) / 5
                for q in ids
            ]
        )
        assert rp_at_k(ranked, leaf_of, k=5) == pytest.approx(expected)

    def test_too_few_candidates_rejected(self):
        ranked = ranking_of({"q": ["a", "b"]})
        with pytest.raises(MetricError, match="at least 5"):
            rp_at_k(ranked, {"q": 0, "a": 0, "b": 0}, k=5)


class TestMnr:
    def worked_instance(self, t0):
        leaf_of = {
            "q": t0.id_of("a1"),
            "c1": t0.id_of("a1"),
            "c2": t0.id_of("a2"),
            "c3": t0.id_of("b1"),
            "c4": t0.id_of("b1"),
        }
        return leaf_of

    def test_worked_instance(self, t0):
        leaf_of = self.worked_instance(t0)
        ranked = ranking_of({"q": ["c1", "c2", "c3", "c4"]})
        assert mnr(ranked, t0, leaf_of) == pytest.approx(0.0625, abs=1e-15)

    def test_worked_instance_reversed_matches_oracle(self, t0):
        leaf_of = self.worked_instance(t0)
        reversed_ranked = ranking_of({"q": ["c4", "c3", "c2", "c1"]})
        expected = mnr_oracle(t0, {"q": ["c4", "c3", "c2", "c1"]}, leaf_of)
        assert expected == pytest.approx(0.6875)
        assert mnr(reversed_ranked, t0, leaf_of) == pytest.approx(expected, abs=1e-15)

    def test_best_rank_contributes_zero(self, t0):
        leaf_of = {"q": t0.id_of("a1"), "c1": t0.id_of("a1"), "c2": t0.id_of("b1")}
        ranked = ranking_of({"q": ["c1", "c2"]})
        # level 1 (A): c1 at rank 1 -> 0; level 2 (a1): c1 -> 0
        assert mnr(ranked, t0, leaf_of) == 0.0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 30:
            tax, ids, leaf_of, embeddings = random_instance(rng)
            if not tax.levels_with_multiple_classes():
                continue
            ranked = build_ranked_lists(embeddings, ids)
            oracle_lists = ranked_lists_oracle(embeddings, ids)
            expected = mnr_oracle(tax, oracle_lists, leaf_of)
            assert mnr(ranked, tax, leaf_of) == pytest.approx(expected, abs=1e-12)
            done += 1

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_reversal_complement_identity(self):
        # reversing every list maps each rank r to N+1-r, so the two scores
        # sum to (N-1)/N; reversal can only worsen (never decrease) the MNR
        # of a ranking that already beats the mid-rank value (N-1)/2N
        rng = np.random.default_rng(4)
        done = 0
        while done < 15:
            tax, ids, leaf_of, embeddings = random_instance(rng)
            if not tax.levels_with_multiple_classes():
                continue
            ranked = build_ranked_lists(embeddings, ids)
            flipped = Ranking(ranked.ids, ranked.queries, ranked.order[:, ::-1])
            forward = mnr(ranked, tax, leaf_of)
            backward = mnr(flipped, tax, leaf_of)
            n = len(ids) - 1
            assert 0.0 <= forward < 1.0
            assert 0.0 <= backward < 1.0
            assert forward + backward == pytest.approx((n - 1) / n, abs=1e-12)
            if forward <= (n - 1) / (2 * n):
                assert backward >= forward
            done += 1

    def test_query_without_candidates_rejected(self, t0):
        with pytest.raises(MetricError, match="^query 'q' has no candidates$"):
            mnr(ranking_of({"q": []}), t0, {"q": t0.id_of("a1")})

    def test_tree_without_a_level_of_two_classes_rejected(self):
        path = parse_taxonomy({"name": "root", "children": [{"name": "A", "children": [{"name": "a1"}]}]})
        leaf = path.id_of("a1")
        with pytest.raises(MetricError, match="^tree has no level with more than one class$"):
            mnr(ranking_of({"q": ["c"]}), path, {"q": leaf, "c": leaf})

    def test_level_without_correct_candidates_is_skipped(self, t0):
        leaf_of = {"q": t0.id_of("a1"), "c1": t0.id_of("a2"), "c2": t0.id_of("b1")}
        ranked = ranking_of({"q": ["c1", "c2"]})
        # level 2 (a1) has no members among candidates; only level 1 counts
        with pytest.warns(UserWarning, match="skipped"):
            value = mnr(ranked, t0, leaf_of)
        assert value == pytest.approx(0.0)


class TestRelevance:
    def test_same_leaf(self, t0):
        a1 = t0.id_of("a1")
        assert relevance_tables(t0, [a1, a1])[1]["sum"][0, 1] == 1.0
        assert relevance_tables(t0, [a1])[1]["max"][0, 0] == 1.0

    def test_t0_values(self, t0):
        a1, a2, b1 = t0.id_of("a1"), t0.id_of("a2"), t0.id_of("b1")
        assert relevance_tables(t0, [a1, a2, b1])[1]["sum"][0, 1] == pytest.approx(0.5)
        assert relevance_tables(t0, [a1, a2, b1])[1]["max"][0, 2] == pytest.approx(0.0)

    def test_in_unit_interval_and_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            tax = parse_taxonomy(random_tree_doc(rng, max_children=3))
            leaves = sorted(tax.leaf_ids)
            hd = height_diameter_oracle(tax)
            tables = relevance_tables(tax, leaves)[1]
            for _ in range(20):
                l1, l2 = rng.choice(leaves, size=2)
                for kind in ("sum", "max"):
                    value = tables[kind][leaves.index(l1), leaves.index(l2)]
                    assert 0.0 <= value <= 1.0
                    assert value == pytest.approx(
                        relevance_oracle(tax, int(l1), int(l2), kind, height_diameter=hd)
                    )

    def test_unknown_kind(self, t0):
        leaf_of = {"q": t0.id_of("a1"), "c": t0.id_of("a2")}
        with pytest.raises(MetricError, match="kind"):
            ndcg(ranking_of({"q": ["c"]}), t0, leaf_of, "avg")


class TestNdcg:
    def test_ideal_order_scores_one(self, t0):
        leaf_of = {
            "q": t0.id_of("a1"),
            "c1": t0.id_of("a1"),
            "c2": t0.id_of("a2"),
            "c3": t0.id_of("b1"),
        }
        ranked = ranking_of({"q": ["c1", "c2", "c3"]})
        assert ndcg(ranked, t0, leaf_of, "sum") == pytest.approx(1.0)
        assert ndcg(ranked, t0, leaf_of, "max") == pytest.approx(1.0)

    def test_two_candidate_swap(self, t0):
        # relevances 1 and 0 presented in the wrong order
        leaf_of = {"q": t0.id_of("a1"), "good": t0.id_of("a1"), "bad": t0.id_of("b1")}
        ranked = ranking_of({"q": ["bad", "good"]})
        assert ndcg(ranked, t0, leaf_of, "max") == pytest.approx(1 / np.log2(3.0))

    def test_equal_relevance_permutation_invariance(self, t0):
        leaf_of = {
            "q": t0.id_of("a1"),
            "c1": t0.id_of("a2"),
            "c2": t0.id_of("a2"),
            "c3": t0.id_of("b1"),
        }
        a = ranking_of({"q": ["c1", "c2", "c3"]})
        b = ranking_of({"q": ["c2", "c1", "c3"]})
        for kind in ("sum", "max"):
            assert ndcg(a, t0, leaf_of, kind) == pytest.approx(ndcg(b, t0, leaf_of, kind))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            tax, ids, leaf_of, embeddings = random_instance(rng)
            ranked = build_ranked_lists(embeddings, ids)
            oracle_lists = ranked_lists_oracle(embeddings, ids)
            for kind in ("sum", "max"):
                expected = ndcg_oracle(tax, oracle_lists, leaf_of, kind)
                assert ndcg(ranked, tax, leaf_of, kind) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_uniform_depth_tree_sum_equals_max(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            tax = parse_taxonomy(uniform_tree_doc(rng, depth=3))
            leaves = sorted(tax.leaf_ids)
            ids = [f"s{i}" for i in range(12)]
            leaf_of = {sid: int(rng.choice(leaves)) for sid in ids}
            embeddings = {sid: rng.normal(size=5) for sid in ids}
            ranked = build_ranked_lists(embeddings, ids)
            a = ndcg(ranked, tax, leaf_of, "sum")
            b = ndcg(ranked, tax, leaf_of, "max")
            assert abs(a - b) < 1e-12


class TestAccBlind:
    def test_t0_examples(self, t0):
        samples = make_samples(t0, {"a1": 1, "a2": 1, "b1": 1})
        split = manual_split(t0, samples, unseen_names=["a2"])
        true_leaf = np.array([t0.id_of("a2")])
        assert acc_blind(np.array([t0.id_of("a1")]), true_leaf, t0, split) == 1.0
        assert acc_blind(np.array([t0.id_of("b1")]), true_leaf, t0, split) == 0.0

    def test_prediction_shallower_than_lsa(self):
        doc = {
            "name": "root",
            "children": [
                {"name": "A", "children": [
                    {"name": "m", "children": [{"name": "x"}, {"name": "u"}]},
                ]},
                {"name": "shallow"},
            ],
        }
        tax = parse_taxonomy(doc)
        samples = make_samples(tax, {"x": 1, "u": 1, "shallow": 1})
        split = manual_split(tax, samples, unseen_names=["u"])
        true_leaf = np.array([tax.id_of("u")])  # LSA is m at depth 2
        # predicted leaf 'shallow' sits at depth 1 < 2: compared as itself
        assert acc_blind(np.array([tax.id_of("shallow")]), true_leaf, tax, split) == 0.0
        assert acc_blind(np.array([tax.id_of("x")]), true_leaf, tax, split) == 1.0

    def test_empty_rejected(self, t0):
        samples = make_samples(t0, {"a1": 1, "a2": 1, "b1": 1})
        split = manual_split(t0, samples, unseen_names=["a2"])
        with pytest.raises(MetricError, match="empty"):
            acc_blind(np.array([], dtype=np.intp), np.array([], dtype=np.intp), t0, split)
        # two predictions for one sample used to score only the first, as 1.0
        predicted = np.array([t0.id_of("a1"), t0.id_of("b1")])
        with pytest.raises(MetricError, match="^2 predictions for 1 samples$"):
            acc_blind(predicted, np.array([t0.id_of("a2")]), t0, split)


class TestAccAware:
    def test_level_head_at_lsa_depth(self, t0):
        samples = make_samples(t0, {"a1": 1, "a2": 1, "b1": 1})
        split = manual_split(t0, samples, unseen_names=["a2"])
        true_leaf = np.array([t0.id_of("a2")])  # LSA = A at depth 1
        level_classes = {1: {t0.id_of("A"), t0.id_of("B")}}
        hit = acc_aware({1: np.array([t0.id_of("A")])}, level_classes, true_leaf, t0, split)
        miss = acc_aware({1: np.array([t0.id_of("B")])}, level_classes, true_leaf, t0, split)
        assert hit == 1.0
        assert miss == 0.0

    def test_missing_level_head_skips_sample(self, t0):
        samples = make_samples(t0, {"a1": 1, "a2": 1, "b1": 1})
        split = manual_split(t0, samples, unseen_names=["a2"])
        true_leaf = np.array([t0.id_of("a2")])
        with pytest.warns(UserWarning, match="skipped"):
            value = acc_aware({2: np.array([t0.id_of("a1")])}, {2: set()}, true_leaf, t0, split)
        assert value is None

    def test_empty_rejected(self, t0):
        samples = make_samples(t0, {"a1": 1, "a2": 1, "b1": 1})
        split = manual_split(t0, samples, unseen_names=["a2"])
        level_classes = {1: {t0.id_of("A"), t0.id_of("B")}, 2: set()}
        empty = np.array([], dtype=np.intp)
        with pytest.raises(MetricError, match="empty"):
            acc_aware({1: empty}, level_classes, empty, t0, split)
        # a level array of another length used to raise a bare IndexError;
        # every level's array is checked, not only the first
        true_leaf = np.array([t0.id_of("a2")])
        one, two = np.array([t0.id_of("A")]), np.array([t0.id_of("A"), t0.id_of("B")])
        for level_predictions in ({1: two}, {1: one, 2: two}):
            with pytest.raises(MetricError, match="^2 predictions for 1 samples$"):
                acc_aware(level_predictions, level_classes, true_leaf, t0, split)


class TestCountingMetrics:
    """Leaf F1 and the LSA accuracies count with arrays; each is a ratio of
    integers, or a mean of such ratios, equal to its per-sample oracle."""

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), hit_rate=st.floats(0.0, 1.0))
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_equal_to_per_sample_oracles(self, seed, n, hit_rate):
        rng = np.random.default_rng(seed)
        tax = parse_taxonomy(random_tree_doc(rng, max_children=3))
        leaves = sorted(tax.leaf_ids)
        unseen = rng.choice(leaves, size=rng.integers(1, len(leaves)), replace=False).tolist()
        seen = sorted(tax.leaf_ids - set(unseen))
        split = SplitAssignment(0, frozenset(seen), frozenset(unseen), {})
        ids = [f"s{i:03d}" for i in range(n)]

        def column(per_sample: dict) -> np.ndarray:  # the metrics' form: one entry per sample
            return np.array([per_sample[sid] for sid in ids], dtype=np.intp)

        truths = {sid: int(rng.choice(seen)) for sid in ids}
        predicted = {sid: int(rng.choice(leaves)) for sid in ids}  # unseen leaves too
        for sid in ids:
            if rng.random() < hit_rate:
                predicted[sid] = truths[sid]
        classes = seen[: int(rng.integers(1, len(seen) + 1))]
        assert leaf_f1(column(predicted), column(truths), classes) == leaf_f1_oracle(
            predicted, truths, classes
        )

        true_leaf = {sid: int(rng.choice(unseen)) for sid in ids}
        lsa = {sid: lowest_seen_ancestor_oracle(tax, split, t) for sid, t in true_leaf.items()}
        assert acc_blind(column(predicted), column(true_leaf), tax, split) == acc_blind_oracle(
            tax, split, predicted, true_leaf
        )

        # a random subset of the tree's levels has heads; some heads lack a
        # class set, and some class sets hold extra nodes, so that a sample
        # whose LSA depth has no head can fall back to a deeper one
        tree_levels = dict(tax.levels_with_multiple_classes())
        heads = [level for level in tree_levels if rng.random() < 0.7]
        level_classes = {
            level: set(tree_levels[level]) | set(rng.integers(0, len(tax), size=3).tolist())
            for level in heads
            if rng.random() < 0.8
        }
        level_predictions = {
            level: {
                sid: lsa[sid] if rng.random() < hit_rate else int(rng.choice(tree_levels[level]))
                for sid in ids
            }
            for level in heads
        }
        level_columns = {level: column(picks) for level, picks in level_predictions.items()}
        assert acc_aware(
            level_columns, level_classes, column(true_leaf), tax, split
        ) == acc_aware_oracle(tax, split, level_predictions, level_classes, true_leaf)


class TestPerQueryDiagnostics:
    def test_rows_match_metric_building_blocks(self, t0):
        from hieremb.metrics import per_query_diagnostics, score_pool

        leaf_of = {
            "q": t0.id_of("a1"),
            "c1": t0.id_of("a1"),
            "c2": t0.id_of("a2"),
            "c3": t0.id_of("b1"),
            "c4": t0.id_of("b1"),
        }
        ranked = ranking_of({"q": ["c1", "c2", "c3", "c4"]})
        rows = per_query_diagnostics(ranked, score_pool(ranked, t0, leaf_of))
        assert len(rows) == 1
        row = rows[0]
        assert row["query"] == "q"
        assert row["mnr_level_1"] == pytest.approx(0.125)
        assert row["mnr_level_2"] == pytest.approx(0.0)
        assert row["ndcg_sum"] == pytest.approx(ndcg(ranked, t0, leaf_of, "sum"))
        assert row["ndcg_max"] == pytest.approx(ndcg(ranked, t0, leaf_of, "max"))


class TestReportSerialisation:
    def test_round_trip(self):
        report = MetricsReport(leaf_f1=0.9, mnr=0.1, ndcg_sum=0.95, ndcg_max=0.95)
        data = report.to_json()
        assert data["acc_blind"] is None
        assert MetricsReport(**data) == report
