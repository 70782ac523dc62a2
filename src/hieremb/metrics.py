"""Evaluation of embedding spaces against the label tree.

Covers classification (macro leaf F1, unseen-class LSA accuracies) and
retrieval (RP@5, mean normalised rank over tree levels, tree-relevance
NDCG). Ranked lists order candidates by descending cosine similarity with
ties broken by ascending sample id, and never contain the query itself.
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

    @classmethod
    def from_json(cls, data: dict) -> "MetricsReport":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


# Byte budget of one block of float64 query rows (similarities, gains);
# bounds the working memory of ranking and scoring at any pool size.
_BLOCK_BYTES = 8 << 20


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
    """Row slices holding at most _BLOCK_BYTES of float64 at this width."""
    step = max(1, _BLOCK_BYTES // (8 * max(width, 1)))
    return [slice(start, start + step) for start in range(0, rows, step)]


def build_ranked_lists(
    embeddings: dict[str, np.ndarray], pool_ids: list[str] | None = None
) -> Ranking:
    """Every pool member (default: every embedded id) ranked as a query
    against the rest of the pool."""
    ids = sorted(embeddings) if pool_ids is None else sorted(pool_ids)
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
    # (a pool without duplicates has nothing to tie and is scored directly)
    distinct, column = np.unique(unit, axis=0, return_inverse=True)
    column = column.ravel()  # numpy 2.0.0 returns it as a column
    # a duplicate pair ties in the row of every other query, so such a pool
    # is sorted stably outright
    duplicates = len(distinct) < n
    queries = np.arange(n)
    order = np.empty((n, n - 1), dtype=np.min_scalar_type(n - 1))
    # a pool without duplicates sorts packed int64 keys: the bits of 2 - score
    # (positive, so as integers they order as the float does) with the low
    # `bits` replaced by the candidate's column: no two keys are equal, so
    # every sort numpy may dispatch to gives the same order
    bits = (n - 1).bit_length()
    for rows in _blocks(n, n):
        own = queries[rows]
        if duplicates:
            scores = np.take(unit[rows] @ distinct.T, column, axis=1)
            exact = slice(None)
        else:
            scores = unit[rows] @ unit.T
            keys = np.empty(scores.shape, dtype=np.int64)
            np.subtract(2.0, scores, out=keys.view(np.float64))  # ascending is best first
            keys &= -1 << bits
            keys |= queries
            keys[np.arange(len(own)), own] = own  # each query sorts first, then is cut
            keys.sort(axis=1)
            np.bitwise_and(keys[:, 1:], (1 << bits) - 1, out=order[rows], casting="unsafe")
            # two candidates whose keys agree above the column bits have equal
            # or nearly equal scores, so their row is sorted again by score
            keys >>= bits
            exact = np.flatnonzero((keys[:, 1:] == keys[:, :-1]).any(axis=1))
            del keys
        ranked = scores[exact]  # a view of the whole block, or the rows' copy
        if ranked.size:
            np.negative(ranked, out=ranked)
            ranked[np.arange(len(ranked)), own[exact]] = -np.inf
            order[rows][exact] = np.argsort(ranked, axis=1, kind="stable")[:, 1:]  # ties by id
        del scores, ranked  # no score block outlives its sort
    return Ranking(ids=tuple(ids), queries=queries, order=order)


def _pool_leaves(ranking: Ranking, leaf_of: dict[str, int]) -> tuple[list[int], np.ndarray, int]:
    """The pool's L distinct leaves, each pool member's index into them (its
    leaf code, in the narrowest unsigned dtype that holds L * L - 1), and the
    candidate count of every query."""
    n = ranking.order.shape[1]
    if n < 1 and len(ranking):
        raise MetricError(f"query {ranking.ids[ranking.queries[0]]!r} has no candidates")
    leaves, index = np.unique([leaf_of[sid] for sid in ranking.ids], return_inverse=True)
    code = index.astype(np.min_scalar_type(len(leaves) ** 2 - 1))
    return [int(leaf) for leaf in leaves], code, n


def _leaf_cells(ranking: Ranking, code: np.ndarray, n_leaves: int):
    """Per block of query rows: the rows and, for each candidate, the flat
    index of (query leaf, candidate leaf) in a leaf x leaf table."""
    query_cell = code[ranking.queries] * n_leaves
    for rows in _blocks(len(ranking), ranking.order.shape[1]):
        cells = np.take(code, ranking.order[rows])
        cells += query_cell[rows, None]
        yield rows, cells


def leaf_f1(predictions: dict[str, int], truths: dict[str, int], classes: list[int]) -> float:
    """Macro-averaged F1 over the given classes.

    A class absent from both predictions and truths still counts, with F1 0.
    """
    if not truths:
        raise MetricError("empty evaluation set")
    missing = sorted(set(truths) - set(predictions))
    if missing:
        raise MetricError(f"missing predictions for samples: {missing[:5]}")
    scores = []
    for cls in classes:
        tp = sum(1 for sid, t in truths.items() if t == cls and predictions[sid] == cls)
        fp = sum(1 for sid, t in truths.items() if t != cls and predictions[sid] == cls)
        fn = sum(1 for sid, t in truths.items() if t == cls and predictions[sid] != cls)
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


def rp_at_k(ranking: Ranking, leaf_of: dict[str, int], k: int = 5) -> float:
    """Mean fraction of the top-k candidates sharing the query's leaf."""
    if ranking.order.shape[1] < k:
        raise MetricError(f"every query needs at least {k} candidates")
    _, code, _ = _pool_leaves(ranking, leaf_of)
    hits = np.take(code, ranking.order[:, :k]) == code[ranking.queries, None]
    return float(np.mean(hits.sum(axis=1) / k))


def _mean_rank_table(
    ranking: Ranking, taxonomy: Taxonomy, leaf_of: dict[str, int], levels: list
) -> np.ndarray:
    """(queries, levels): mean shifted-normalised rank of the candidates under
    the query's ancestor at each retained level; NaN when none exist."""
    leaves, code, n = _pool_leaves(ranking, leaf_of)
    # a candidate lies under the query's ancestor at a level exactly when
    # both leaves have the same class there
    classes = taxonomy.leaf_ancestors(leaves)[:, [level for level, _ in levels]].T
    same = [cls[:, None] == cls[None, :] for cls in classes]
    shifted = np.arange(n) / n  # (rank - 1) / n
    means = np.empty((len(ranking), len(levels)))
    for rows, cells in _leaf_cells(ranking, code, len(leaves)):
        for k, table in enumerate(same):
            hits = np.take(table, cells)
            with np.errstate(invalid="ignore"):
                means[rows, k] = (hits @ shifted) / hits.sum(axis=1)
    return means


def mnr(ranking: Ranking, taxonomy: Taxonomy, leaf_of: dict[str, int]) -> float:
    """Mean normalised rank of tree-similar candidates, averaged over levels.

    For each query and each retained tree level, the candidates under the
    query's ancestor at that level count as correct; their ranks, shifted by
    one and divided by the candidate count, are averaged over answers, then
    levels, then queries. Deeper levels' members recur at every ancestor
    level, which weights fine-grained neighbours more. A level with no
    correct candidate is skipped for that query (the inner mean is undefined).
    """
    levels = taxonomy.levels_with_multiple_classes()
    if not levels:
        raise MetricError("tree has no level with more than one class")
    means = _mean_rank_table(ranking, taxonomy, leaf_of, levels)
    missing = np.isnan(means)
    unanswered = missing.all(axis=1)
    if missing.any():
        warnings.warn(f"MNR skipped {missing.sum()} query-level terms with no correct candidate")
    if unanswered.any():
        warnings.warn(f"MNR skipped {unanswered.sum()} queries with no correct candidate at all")
    if unanswered.all():
        raise MetricError("MNR undefined: no query had a correct candidate")
    return float(np.mean(np.nanmean(means[~unanswered], axis=1)))


def relevance_table(taxonomy: Taxonomy, leaves: list[int], kind: str) -> np.ndarray:
    """Tree-distance relevance between every two of the given leaves, in
    [0, 1]; a leaf's relevance to itself is 1.

    'sum' divides the total leaf-to-LCA edge count by the tree diameter;
    'max' divides the larger of the two by the tree height.
    """
    if kind not in ("sum", "max"):
        raise MetricError(f"unknown relevance kind {kind!r}")
    leaves = np.asarray(leaves)
    same = leaves[:, None] == leaves[None, :]
    if same.all():
        return np.ones(same.shape)
    height, diameter = taxonomy.height_and_diameter()
    if height == 0:
        raise MetricError("degenerate tree: distinct leaves in a height-0 tree")
    # distinct leaves agree in exactly the columns 0..depth(LCA)
    ancestors = taxonomy.leaf_ancestors(leaves)
    depth = np.array([taxonomy.depth(leaf) for leaf in leaves])
    lca_depth = (ancestors[:, None] == ancestors[None, :]).sum(axis=2) - 1
    d1, d2 = depth[:, None] - lca_depth, depth[None, :] - lca_depth
    table = 1.0 - ((d1 + d2) / diameter if kind == "sum" else np.maximum(d1, d2) / height)
    return np.where(same, 1.0, table)


def _ndcg_values(
    ranking: Ranking, taxonomy: Taxonomy, leaf_of: dict[str, int], kind: str
) -> np.ndarray:
    """Each query's DCG over its full list divided by its ideal DCG; NaN when
    every candidate has relevance 0."""
    leaves, code, n = _pool_leaves(ranking, leaf_of)
    gain = relevance_table(taxonomy, leaves, kind)
    discounts = 1.0 / np.log2(np.arange(2, n + 2))
    # the candidates are the pool less the query, so the ideal list depends
    # only on the query's leaf: the pool's gains sorted, less the query's 1.0
    ideal = np.array([np.sort(row[code])[::-1][1:] @ discounts for row in gain])
    dcg = np.empty(len(ranking))
    for rows, cells in _leaf_cells(ranking, code, len(leaves)):
        dcg[rows] = gain.ravel()[cells] @ discounts  # indexing widens cells in chunks
    idcg = ideal[code[ranking.queries]]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(idcg == 0.0, np.nan, dcg / idcg)


def ndcg(ranking: Ranking, taxonomy: Taxonomy, leaf_of: dict[str, int], kind: str) -> float:
    """Mean NDCG with linear tree-relevance gains over the full list."""
    values = _ndcg_values(ranking, taxonomy, leaf_of, kind)
    skipped = int(np.isnan(values).sum())
    if skipped:
        warnings.warn(f"NDCG skipped {skipped} queries whose candidates all have relevance 0")
    if skipped == len(values):
        raise MetricError("NDCG undefined: every query was skipped")
    return float(np.nanmean(values))


def per_query_diagnostics(
    ranking: Ranking, taxonomy: Taxonomy, leaf_of: dict[str, int]
) -> list[dict]:
    """One row per query: mean normalised rank per retained level plus both
    NDCG values; blank entries where a quantity is undefined."""
    levels = taxonomy.levels_with_multiple_classes()
    means = _mean_rank_table(ranking, taxonomy, leaf_of, levels)
    columns = {f"mnr_level_{level}": means[:, k] for k, (level, _) in enumerate(levels)}
    for kind in ("sum", "max"):
        columns[f"ndcg_{kind}"] = _ndcg_values(ranking, taxonomy, leaf_of, kind)
    return [
        {"query": ranking.ids[q]}
        | {name: None if np.isnan(v[i]) else float(v[i]) for name, v in columns.items()}
        for i, q in enumerate(ranking.queries)
    ]


def acc_blind(
    predicted_leaf: dict[str, int],
    true_leaf: dict[str, int],
    taxonomy: Taxonomy,
    split: SplitAssignment,
) -> float:
    """Accuracy of leaf predictions lifted to the true lowest seen ancestor.

    The predicted leaf is traced up to the LSA's depth (or kept as is when
    already shallower) and compared against the true LSA.
    """
    if not true_leaf:
        raise MetricError("empty prediction set")
    lifts = taxonomy.leaf_ancestors([predicted_leaf[sid] for sid in true_leaf])
    # one walk per distinct true leaf, in the order the samples first name it
    lsa_of = {leaf: lowest_seen_ancestor(taxonomy, split, leaf)
              for leaf in dict.fromkeys(true_leaf.values())}
    correct = 0
    for row, true in enumerate(true_leaf.values()):
        lsa = lsa_of[true]
        correct += int(lifts[row, taxonomy.depth(lsa)]) == lsa
    return correct / len(true_leaf)


def acc_aware(
    level_predictions: dict[int, dict[str, int]],
    level_classes: dict[int, set[int]],
    true_leaf: dict[str, int],
    taxonomy: Taxonomy,
    split: SplitAssignment,
) -> float | None:
    """Accuracy of the level head sitting at each sample's true LSA depth.

    Samples whose LSA depth has no head fall back to the shallowest deeper
    head that carries the LSA as a class; if none exists the sample cannot
    be evaluated and is skipped with a warning. Returns None when nothing
    is evaluable.
    """
    if not true_leaf:
        raise MetricError("empty prediction set")
    evaluated = 0
    correct = 0
    skipped = 0
    retained = sorted(level_predictions)
    lsa_of = {leaf: lowest_seen_ancestor(taxonomy, split, leaf)
              for leaf in dict.fromkeys(true_leaf.values())}
    for sid, true in true_leaf.items():
        lsa = lsa_of[true]
        depth = taxonomy.depth(lsa)
        use_level = None
        if depth in level_predictions:
            use_level = depth
        else:
            for level in retained:
                if level > depth and lsa in level_classes.get(level, ()):
                    use_level = level
                    break
        if use_level is None:
            skipped += 1
            continue
        evaluated += 1
        correct += level_predictions[use_level][sid] == lsa
    if skipped:
        warnings.warn(f"acc_aware skipped {skipped} samples whose LSA level has no head")
    if not evaluated:
        return None
    return correct / evaluated
