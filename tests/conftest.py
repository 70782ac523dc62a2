import numpy as np
import pytest

from hieremb.dataset import LabeledSample
from hieremb.datasplit import SplitAssignment
from hieremb.metrics import Ranking
from hieremb.taxonomy import parse_taxonomy


def t0_document():
    """Toy tree: root -> {A -> {a1, a2}, B -> {b1}}."""
    return {
        "name": "root",
        "children": [
            {"name": "A", "children": [{"name": "a1"}, {"name": "a2"}]},
            {"name": "B", "children": [{"name": "b1"}]},
        ],
    }


@pytest.fixture
def t0():
    return parse_taxonomy(t0_document())


def make_samples(taxonomy, per_leaf: dict[str, int], dim=4, seed=0):
    """Deterministic random feature vectors, `per_leaf` samples per leaf name."""
    rng = np.random.default_rng(seed)
    samples = []
    counter = 0
    for name in sorted(per_leaf):
        for _ in range(per_leaf[name]):
            samples.append(
                LabeledSample(
                    id=f"s{counter:05d}", leaf=name, features=rng.normal(size=dim)
                )
            )
            counter += 1
    return samples


def all_train_split(taxonomy, samples, fold_index=0):
    """Split with every leaf seen and every sample in train (for unit tests)."""
    return SplitAssignment(
        fold_index=fold_index,
        seen_leaves=frozenset(taxonomy.leaf_ids),
        unseen_leaves=frozenset(),
        partition={s.id: "train" for s in samples},
    )


def manual_split(taxonomy, samples, unseen_names=(), fold_index=0, subset_of=None):
    """Split with the given unseen leaves; seen-leaf samples default to train."""
    unseen = frozenset(taxonomy.id_of(n) for n in unseen_names)
    partition = {}
    for s in samples:
        if taxonomy.id_of(s.leaf) in unseen:
            partition[s.id] = "prediction"
        else:
            partition[s.id] = subset_of(s) if subset_of else "train"
    return SplitAssignment(
        fold_index=fold_index,
        seen_leaves=frozenset(taxonomy.leaf_ids) - unseen,
        unseen_leaves=unseen,
        partition=partition,
    )


def ranking_of(lists: dict[str, list[str]]) -> Ranking:
    """A Ranking from explicit candidate lists, best first; each query's
    list must hold the rest of one shared pool."""
    query, candidates = next(iter(lists.items()))
    ids = sorted([query, *candidates])
    for q, cands in lists.items():
        assert sorted([q, *cands]) == ids, f"the candidates of {q!r} are not the rest of the pool"
    position = {sid: i for i, sid in enumerate(ids)}
    return Ranking(
        ids=tuple(ids),
        queries=np.array([position[q] for q in lists]),
        order=np.array([[position[c] for c in cands] for cands in lists.values()], dtype=np.int32),
    )


def candidate_lists(ranking: Ranking) -> dict[str, list[str]]:
    """Query id -> candidate ids, best first."""
    return {
        ranking.ids[q]: [ranking.ids[c] for c in row]
        for q, row in zip(ranking.queries, ranking.order)
    }
