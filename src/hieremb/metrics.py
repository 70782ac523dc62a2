"""Evaluation of embedding spaces against the label tree.

Covers classification (macro leaf F1, unseen-class LSA accuracies) and
retrieval (RP@5, mean normalised rank over tree levels, tree-relevance
NDCG). Ranked lists order candidates by descending cosine similarity with
ties broken by ascending sample id, and never contain the query itself. The
classification metrics read arrays of node ids, one entry per sample.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .datasplit import SplitAssignment, lowest_seen_ancestor
from .taxonomy import Taxonomy


class MetricError(ValueError):
    """Metric undefined for the given inputs."""


@dataclass
class MetricsReport:
    """All evaluation numbers for one fold and one loss combination."""

    leaf_f1: float | None = None
    leaf_rp_at_5: float | None = None
    mnr: float | None = None
    ndcg_sum: float | None = None
    ndcg_max: float | None = None
    acc_blind: float | None = None
    acc_aware: float | None = None
    ratio_blind_aware: float | None = None

    def to_json(self) -> dict:
        return asdict(self)


# Byte budget of one block of float64 query rows (similarities, gains);
# bounds the working memory of ranking and scoring at any pool size. Half a
# 2 MiB per-core L2 cache: at 8 MiB the score and key blocks of a
# 2,400-member pool raised an evaluation's peak by about 15 MB, and it ran
# slower.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class Ranking:
    """Candidate orders of some queries over one sorted pool: row i of `order`
    lists the pool positions of every member but query `ids[queries[i]]`,
    best first (descending cosine similarity, ties by ascending id)."""

    ids: tuple[str, ...]
    queries: np.ndarray  # (q,) pool positions
    # (q, len(ids) - 1) pool positions in the smallest unsigned dtype that
    # holds them: uint16 up to 65,536 members, 11.5 MB at 2,400
    order: np.ndarray

    def __len__(self) -> int:
        return len(self.queries)


def _blocks(rows: int, width: int):
    """Row slices holding at most _BLOCK_BYTES of float64 at this width, a
    multiple of four rows where more than four fit. OpenBLAS's one-thread
    matrix-vector kernel takes rows four at a time and rounds the rest
    apart, so a row's value is then the same as in one block of every row
    (unless the last block holds a single row, which numpy takes as a dot)."""
    step = max(1, _BLOCK_BYTES // (8 * max(width, 1)))
    if step > 4:
        step -= step % 4
    return [slice(start, start + step) for start in range(0, rows, step)]


def build_ranked_lists(embeddings: dict[str, np.ndarray], pool_ids: list[str]) -> Ranking:
    """Every pool member ranked as a query against the rest of the pool."""
    ids = sorted(pool_ids)
    n = len(ids)
    if n < 2:
        raise MetricError("need at least two samples to rank")
    vectors = np.stack([np.asarray(embeddings[sid], dtype=np.float64) for sid in ids])
    norms = np.linalg.norm(vectors, axis=1)
    dead = ~(np.isfinite(norms) & (norms > 0))
    if dead.any():
        raise MetricError(
            f"sample {ids[np.argmax(dead)]!r} has a zero or non-finite embedding "
            "(dead embedding)"
        )
    unit = vectors / norms[:, None]
    # BLAS may round one dot product differently by its place in the output,
    # so score the distinct rows once and gather: duplicates then tie exactly
    # (a pool without duplicates has nothing to tie and is scored directly).
    # Duplicate rows share their first column, so a pool whose first column
    # has no repeat skips the row-wise unique
    first = np.sort(unit[:, 0])
    duplicates = False
    if (first[1:] == first[:-1]).any():
        distinct, column = np.unique(unit, axis=0, return_inverse=True)
        column = column.ravel()  # numpy 2.0.0 returns it as a column
        duplicates = len(distinct) < n
    queries = np.arange(n)
    order = np.empty((n, n - 1), dtype=np.min_scalar_type(n - 1))
    # each row sorts packed keys: the bits of 2 - score with the low `bits`
    # replaced by the candidate's column, and the query's own key its
    # column. Every key is then the bit pattern of a positive finite double
    # (2 - score lies in about [1, 3]; the query's key is a subnormal or
    # +0.0, below every other), positive doubles order as their bit patterns
    # do, and no two keys are equal, so the float sort gives the integer
    # order and every sort numpy may dispatch to gives the same order
    bits = (n - 1).bit_length()
    for rows in _blocks(n, n):
        own = queries[rows]
        if duplicates:
            scores = np.take(unit[rows] @ distinct.T, column, axis=1)
        else:
            scores = unit[rows] @ unit.T
        keys = np.empty(scores.shape, dtype=np.int64)
        np.subtract(2.0, scores, out=keys.view(np.float64))  # ascending is best first
        keys &= -1 << bits
        keys |= queries
        keys[np.arange(len(own)), own] = own  # each query sorts first, then is cut
        keys.view(np.float64).sort(axis=1)
        np.bitwise_and(keys[:, 1:], (1 << bits) - 1, out=order[rows], casting="unsafe")
        # two candidates whose keys agree above the column bits have equal
        # or nearly equal scores (every duplicate pair among them), so their
        # row is sorted again by score
        keys >>= bits
        exact = np.flatnonzero((keys[:, 1:] == keys[:, :-1]).any(axis=1))
        del keys
        if len(exact):
            ranked = scores[exact]
            np.negative(ranked, out=ranked)
            ranked[np.arange(len(exact)), own[exact]] = -np.inf
            order[rows][exact] = np.argsort(ranked, axis=1, kind="stable")[:, 1:]  # ties by id
            del ranked
        del scores  # no score block outlives its sort
    return Ranking(ids=tuple(ids), queries=queries, order=order)


def _pool_leaves(ranking: Ranking, leaf_of: dict[str, int]) -> tuple[np.ndarray, np.ndarray, int]:
    """The pool's L distinct leaves, each pool member's intp index into them
    (its leaf code), and the candidate count of every query."""
    n = ranking.order.shape[1]
    if n < 1 and len(ranking):
        raise MetricError(f"query {ranking.ids[ranking.queries[0]]!r} has no candidates")
    leaves, code = np.unique([leaf_of[sid] for sid in ranking.ids], return_inverse=True)
    return leaves, code, n


def _sample_count(truths: np.ndarray, *predictions: np.ndarray) -> int:
    """The number of samples; none, or a prediction array of another length,
    raises a `MetricError`."""
    n = len(truths)
    if not n:
        raise MetricError("empty evaluation set")
    for predicted in predictions:
        if len(predicted) != n:
            raise MetricError(f"{len(predicted)} predictions for {n} samples")
    return n


def leaf_f1(predictions: np.ndarray, truths: np.ndarray, classes: list[int]) -> float:
    """Macro-averaged F1 over the given classes.

    A class absent from both predictions and truths still counts, with F1 0.
    """
    n = _sample_count(truths, predictions)
    labels = np.concatenate([truths, predictions, classes])
    distinct, code = np.unique(labels, return_inverse=True)
    true, pred, cls = code[:n], code[n : 2 * n], code[2 * n :]
    size = len(distinct)
    # 2 tp + fp + fn is the class's true count plus its predicted count
    tp = np.bincount(true[true == pred], minlength=size)[cls]
    denom = (np.bincount(true, minlength=size) + np.bincount(pred, minlength=size))[cls]
    scores = np.divide(2 * tp, denom, out=np.zeros(len(cls)), where=denom > 0)
    return float(np.mean(scores))


def rp_at_k(ranking: Ranking, leaf_of: dict[str, int], k: int = 5) -> float:
    """Mean fraction of the top-k candidates sharing the query's leaf."""
    if ranking.order.shape[1] < k:
        raise MetricError(f"every query needs at least {k} candidates")
    _, code, _ = _pool_leaves(ranking, leaf_of)
    hits = np.take(code, ranking.order[:, :k]) == code[ranking.queries, None]
    return float(np.mean(hits.sum(axis=1) / k))


KINDS = ("sum", "max")  # the relevance kinds of NDCG


@dataclass(frozen=True, eq=False)
class PoolScores:
    """Per-query scores of one ranked pool, in `Ranking.queries` order."""

    levels: list[int]  # retained tree levels, the columns of `mean_ranks`
    # (queries, levels) mean shifted-normalised rank of the candidates under
    # the query's ancestor at each level; NaN where none exist
    mean_ranks: np.ndarray
    # kind -> (queries,) NDCG; NaN where every candidate has relevance 0
    ndcg: dict[str, np.ndarray]


def _depths(ancestors: np.ndarray) -> np.ndarray:
    """Depth of each row's node in a `Taxonomy.leaf_ancestors` table: the
    columns before the node itself."""
    return (ancestors != ancestors[:, -1:]).sum(axis=1)


def relevance_tables(taxonomy: Taxonomy, leaves: list[int]) -> tuple[np.ndarray, dict]:
    """The (L, L) LCA depths of the given leaves and their tree-distance
    relevance table of each kind, in [0, 1]; a leaf's relevance to itself
    is 1.

    'sum' divides the total leaf-to-LCA edge count by the tree diameter;
    'max' divides the larger of the two by the tree height.
    """
    leaves = np.asarray(leaves)
    ancestors = taxonomy.leaf_ancestors(leaves)
    # distinct leaves agree in exactly the columns 0..depth(LCA)
    lca_depth = sum(column[:, None] == column[None, :] for column in ancestors.T) - 1
    same = leaves[:, None] == leaves[None, :]
    if same.all():
        return lca_depth, dict.fromkeys(KINDS, np.ones(same.shape))
    height, diameter = taxonomy.height_and_diameter()
    depth = _depths(ancestors)
    d1, d2 = depth[:, None] - lca_depth, depth[None, :] - lca_depth
    return lca_depth, {
        "sum": np.where(same, 1.0, 1.0 - (d1 + d2) / diameter),
        "max": np.where(same, 1.0, 1.0 - np.maximum(d1, d2) / height),
    }


def score_pool(
    ranking: Ranking, taxonomy: Taxonomy, leaf_of: dict[str, int], ranks: bool = True
) -> PoolScores:
    """Both NDCG vectors of a ranking and, with `ranks`, its mean-rank table
    over every retained level (else over none), from leaf x leaf tables
    built once and one pass over blocks of query rows."""
    leaves, code, n = _pool_leaves(ranking, leaf_of)
    lca_depth, gains = relevance_tables(taxonomy, leaves)
    discounts = 1.0 / np.log2(np.arange(2, n + 2))
    # the candidates are the pool less the query, so the ideal list depends
    # only on the query's leaf: the pool's gains sorted, less the query's 1.0
    ideal = {kind: np.empty(len(leaves)) for kind in KINDS}
    for rows in _blocks(len(leaves), n + 1):
        for kind in KINDS:
            pool_gains = np.take(gains[kind][rows], code, axis=1)
            pool_gains.sort(axis=1)
            ideal[kind][rows] = pool_gains[:, ::-1][:, 1:] @ discounts
            del pool_gains  # one kind's block at a time
    levels = [level for level, _ in taxonomy.levels_with_multiple_classes()] if ranks else []
    # a candidate lies under the query's ancestor at a level exactly when
    # the LCA of both leaves is at that level or deeper; 0/1 floats, which
    # the rank product reads without a cast and which sum exactly
    same = [(lca_depth >= level).astype(np.float64) for level in levels]
    shifted = np.arange(n) / n  # (rank - 1) / n
    means = np.empty((len(ranking), len(levels)))
    values = {kind: np.empty(len(ranking)) for kind in KINDS}
    query_code = code[ranking.queries]
    for rows in _blocks(len(ranking), n):
        # each candidate's flat (query leaf, candidate leaf) cell of an L x L
        # table, in intp: gathering with uint16 indices took 3-4x as long as
        # widening them once and gathering with intp (README)
        cells = np.take(code, ranking.order[rows].astype(np.intp))
        cells += query_code[rows, None] * len(leaves)
        with np.errstate(invalid="ignore"):  # 0 / 0: no correct candidate, or no relevance
            for k, table in enumerate(same):
                hits = np.take(table, cells)
                means[rows, k] = (hits @ shifted) / hits.sum(axis=1)
                del hits  # one gathered block at a time
            for kind in KINDS:
                dcg = np.take(gains[kind], cells) @ discounts
                values[kind][rows] = dcg / ideal[kind][query_code[rows]]
    return PoolScores(levels, means, values)


def mnr(
    ranking: Ranking, taxonomy: Taxonomy, leaf_of: dict[str, int], scores: PoolScores | None = None
) -> float:
    """Mean normalised rank of tree-similar candidates, averaged over levels.

    For each query and each retained tree level, the candidates under the
    query's ancestor at that level count as correct; their ranks, shifted by
    one and divided by the candidate count, are averaged over answers, then
    levels, then queries. Deeper levels' members recur at every ancestor
    level, which weights fine-grained neighbours more. A level with no
    correct candidate is skipped for that query (the inner mean is undefined).
    `scores`, when given, are the ranking's `score_pool` with ranks.
    """
    if scores is None:
        scores = score_pool(ranking, taxonomy, leaf_of)
    if not scores.levels:
        raise MetricError("tree has no level with more than one class")
    means = scores.mean_ranks
    missing = np.isnan(means)
    unanswered = missing.all(axis=1)
    if missing.any():
        warnings.warn(f"MNR skipped {missing.sum()} query-level terms with no correct candidate")
    if unanswered.any():
        warnings.warn(f"MNR skipped {unanswered.sum()} queries with no correct candidate at all")
    if unanswered.all():
        raise MetricError("MNR undefined: no query had a correct candidate")
    return float(np.mean(np.nanmean(means[~unanswered], axis=1)))


def ndcg(
    ranking: Ranking,
    taxonomy: Taxonomy,
    leaf_of: dict[str, int],
    kind: str,
    scores: PoolScores | None = None,
) -> float:
    """Mean NDCG with linear tree-relevance gains over the full list;
    `scores`, when given, are the ranking's `score_pool`."""
    if kind not in KINDS:
        raise MetricError(f"unknown relevance kind {kind!r}")
    if scores is None:
        scores = score_pool(ranking, taxonomy, leaf_of, ranks=False)
    values = scores.ndcg[kind]
    skipped = int(np.isnan(values).sum())
    if skipped:
        warnings.warn(f"NDCG skipped {skipped} queries whose candidates all have relevance 0")
    if skipped == len(values):
        raise MetricError("NDCG undefined: every query was skipped")
    return float(np.nanmean(values))


def per_query_diagnostics(ranking: Ranking, scores: PoolScores) -> list[dict]:
    """One row per query of the ranking's `score_pool` with ranks: mean
    normalised rank per retained level plus both NDCG values; blank entries
    where a quantity is undefined."""
    levels = zip(scores.levels, scores.mean_ranks.T)
    columns = {f"mnr_level_{level}": means for level, means in levels}
    columns |= {f"ndcg_{kind}": scores.ndcg[kind] for kind in KINDS}
    return [
        {"query": ranking.ids[q]}
        | {name: None if np.isnan(v[i]) else float(v[i]) for name, v in columns.items()}
        for i, q in enumerate(ranking.queries)
    ]


def _lowest_seen(
    true_leaf: np.ndarray, taxonomy: Taxonomy, split: SplitAssignment
) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's true lowest seen ancestor and its depth, from one walk
    per distinct true leaf, in the order the samples first name them."""
    leaves = list(dict.fromkeys(true_leaf.tolist()))
    lsa_of = np.zeros(len(taxonomy), dtype=np.intp)
    lsa_of[leaves] = [lowest_seen_ancestor(taxonomy, split, leaf) for leaf in leaves]
    lsa = lsa_of[true_leaf]
    return lsa, _depths(taxonomy.leaf_ancestors(lsa))


def acc_blind(
    predicted_leaf: np.ndarray,
    true_leaf: np.ndarray,
    taxonomy: Taxonomy,
    split: SplitAssignment,
) -> float:
    """Accuracy of leaf predictions lifted to the true lowest seen ancestor.

    The predicted leaf is traced up to the LSA's depth (or kept as is when
    already shallower) and compared against the true LSA.
    """
    n = _sample_count(true_leaf, predicted_leaf)
    lifts = taxonomy.leaf_ancestors(predicted_leaf)
    lsa, depth = _lowest_seen(true_leaf, taxonomy, split)
    return np.count_nonzero(lifts[np.arange(n), depth] == lsa) / n


def acc_aware(
    level_predictions: dict[int, np.ndarray],
    level_classes: dict[int, set[int]],
    true_leaf: np.ndarray,
    taxonomy: Taxonomy,
    split: SplitAssignment,
) -> float | None:
    """Accuracy of the level head sitting at each sample's true LSA depth.

    Samples whose LSA depth has no head fall back to the shallowest deeper
    head that carries the LSA as a class; if none exists the sample cannot
    be evaluated and is skipped with a warning. Returns None when nothing
    is evaluable.
    """
    _sample_count(true_leaf, *level_predictions.values())
    retained = sorted(level_predictions)
    lsa, _ = _lowest_seen(true_leaf, taxonomy, split)
    nodes, inverse = np.unique(lsa, return_inverse=True)

    def head_level(node: int, node_depth: int) -> int:
        if node_depth in level_predictions:
            return node_depth
        deeper = (level for level in retained
                  if level > node_depth and node in level_classes.get(level, ()))
        return next(deeper, -1)  # -1: no head

    depths = _depths(taxonomy.leaf_ancestors(nodes)).tolist()
    heads = [head_level(node, d) for node, d in zip(nodes.tolist(), depths)]
    use = np.array(heads)[inverse]
    skipped = int(np.count_nonzero(use < 0))
    correct = 0
    for level in retained:
        at = use == level
        correct += int(np.count_nonzero(level_predictions[level][at] == lsa[at]))
    if skipped:
        warnings.warn(f"acc_aware skipped {skipped} samples whose LSA level has no head")
    if skipped == len(use):
        return None
    return correct / (len(use) - skipped)
