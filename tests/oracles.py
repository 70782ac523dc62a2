"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes results from first principles (explicit paths,
naive rank materialisation, direct formula evaluation, central finite
differences) and deliberately avoids the library code paths it checks.
Only the Taxonomy accessors parent/children/name are used for tree walks.
"""
from __future__ import annotations

import json
import math

import numpy as np


def path_from_root(tax, node):
    path = [node]
    while tax.parent(path[-1]) is not None:
        path.append(tax.parent(path[-1]))
    return list(reversed(path))


def depth_oracle(tax, node):
    return len(path_from_root(tax, node)) - 1


def lca_oracle(tax, n1, n2):
    p1, p2 = path_from_root(tax, n1), path_from_root(tax, n2)
    shared = None
    for a, b in zip(p1, p2):
        if a == b:
            shared = a
        else:
            break
    return shared


def leaves_oracle(tax):
    return [n for n in range(len(tax)) if not tax.children(n)]


def leaves_under_oracle(tax, node):
    return [l for l in leaves_oracle(tax) if node in path_from_root(tax, l)]


def pruned_seen_taxonomy_oracle(tax, split):
    """The tree without unseen leaves or the branches they leave empty, built
    as a nested name/children document and parsed back."""
    from hieremb.taxonomy import parse_taxonomy

    def build(node):
        doc = {"name": tax.name(node)}
        kept = [
            build(c) for c in tax.children(node)
            if set(leaves_under_oracle(tax, c)) & split.seen_leaves
        ]
        if kept:
            doc["children"] = kept
        return doc

    return parse_taxonomy(build(0))


def height_diameter_oracle(tax):
    leaves = leaves_oracle(tax)
    height = max(depth_oracle(tax, l) for l in leaves)
    diameter = 0
    for l1 in leaves:
        for l2 in leaves:
            a = lca_oracle(tax, l1, l2)
            dist = (depth_oracle(tax, l1) - depth_oracle(tax, a)) + (
                depth_oracle(tax, l2) - depth_oracle(tax, a)
            )
            diameter = max(diameter, dist)
    return height, diameter


def retained_levels_oracle(tax):
    """Levels with more than one class under the shallow-leaf joining rule."""
    height, _ = height_diameter_oracle(tax)
    result = []
    for level in range(1, height + 1):
        classes = []
        for n in range(len(tax)):
            d = depth_oracle(tax, n)
            if d == level or (d < level and not tax.children(n)):
                classes.append(n)
        if len(classes) > 1:
            result.append((level, classes))
    return result


def ancestor_at_depth_oracle(tax, node, depth):
    return path_from_root(tax, node)[depth]


def lowest_seen_ancestor_oracle(tax, split, leaf):
    """The first node above the leaf with a seen leaf beneath it, else the root."""
    path = path_from_root(tax, leaf)
    for node in reversed(path[:-1]):
        if set(leaves_under_oracle(tax, node)) & split.seen_leaves:
            return node
    return path[0]


def leaf_f1_oracle(predictions, truths, classes):
    """Macro F1 from counts made one sample and one class at a time."""
    scores = []
    for cls in classes:
        tp = fp = fn = 0
        for sid, truth in truths.items():
            tp += truth == cls and predictions[sid] == cls
            fp += truth != cls and predictions[sid] == cls
            fn += truth == cls and predictions[sid] != cls
        scores.append(2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
    return float(np.mean(scores))


def acc_blind_oracle(tax, split, predicted_leaf, true_leaf):
    """Share of samples whose predicted leaf, lifted to the depth of the true
    LSA (or kept when shallower), is that LSA."""
    correct = 0
    for sid, true in true_leaf.items():
        lsa = lowest_seen_ancestor_oracle(tax, split, true)
        path = path_from_root(tax, predicted_leaf[sid])
        correct += path[min(depth_oracle(tax, lsa), len(path) - 1)] == lsa
    return correct / len(true_leaf)


def acc_aware_oracle(tax, split, level_predictions, level_classes, true_leaf):
    """Share of evaluable samples whose head at the true LSA's depth (else
    the shallowest deeper head with the LSA as a class) predicts the LSA;
    None when no sample is evaluable."""
    correct = evaluated = 0
    for sid, true in true_leaf.items():
        lsa = lowest_seen_ancestor_oracle(tax, split, true)
        depth = depth_oracle(tax, lsa)
        usable = [
            level for level in sorted(level_predictions)
            if level == depth or (level > depth and lsa in level_classes.get(level, ()))
        ]
        if usable:
            evaluated += 1
            correct += level_predictions[usable[0]][sid] == lsa
    return correct / evaluated if evaluated else None


def ranked_lists_oracle(embeddings: dict[str, np.ndarray], pool_ids):
    """Naive rank materialisation: per-pair cosine, sort by (-sim, id)."""

    def cosine(u, v):
        num = math.fsum(float(a) * float(b) for a, b in zip(u, v))
        nu = math.sqrt(math.fsum(float(a) * float(a) for a in u))
        nv = math.sqrt(math.fsum(float(b) * float(b) for b in v))
        return num / (nu * nv)

    lists = {}
    ids = sorted(pool_ids)
    for qid in ids:
        others = [cid for cid in ids if cid != qid]
        sims = {cid: cosine(embeddings[qid], embeddings[cid]) for cid in others}
        lists[qid] = sorted(others, key=lambda cid: (-sims[cid], cid))
    return lists


def mnr_oracle(tax, ranked: dict[str, list[str]], leaf_of: dict[str, int]):
    """Direct evaluation of the triple mean over queries, levels, answers."""
    levels = retained_levels_oracle(tax)
    members_of = {}  # node -> set of leaves below, materialised once
    per_query = []
    for qid, candidates in ranked.items():
        n = len(candidates)
        per_level = []
        for level, _ in levels:
            q_leaf = leaf_of[qid]
            node = ancestor_at_depth_oracle(tax, q_leaf, min(level, depth_oracle(tax, q_leaf)))
            if node not in members_of:
                members_of[node] = set(leaves_under_oracle(tax, node))
            members = members_of[node]
            terms = []
            for rank, cid in enumerate(candidates, start=1):
                if leaf_of[cid] in members:
                    terms.append((rank - 1) / n)
            if terms:
                per_level.append(sum(terms) / len(terms))
        if per_level:
            per_query.append(sum(per_level) / len(per_level))
    return sum(per_query) / len(per_query)


def relevance_oracle(tax, l1, l2, kind, height_diameter=None):
    height, diameter = height_diameter or height_diameter_oracle(tax)
    if l1 == l2:
        return 1.0
    a = lca_oracle(tax, l1, l2)
    d1 = depth_oracle(tax, l1) - depth_oracle(tax, a)
    d2 = depth_oracle(tax, l2) - depth_oracle(tax, a)
    if kind == "sum":
        return 1.0 - (d1 + d2) / diameter
    return 1.0 - max(d1, d2) / height


def ndcg_oracle(tax, ranked: dict[str, list[str]], leaf_of: dict[str, int], kind: str):
    hd = height_diameter_oracle(tax)
    values = []
    for qid, candidates in ranked.items():
        rels = [
            relevance_oracle(tax, leaf_of[qid], leaf_of[cid], kind, height_diameter=hd)
            for cid in candidates
        ]
        dcg = sum(rel / math.log2(i + 1) for i, rel in enumerate(rels, start=1))
        ideal = sorted(rels, reverse=True)
        idcg = sum(rel / math.log2(i + 1) for i, rel in enumerate(ideal, start=1))
        if idcg == 0:
            continue
        values.append(dcg / idcg)
    return sum(values) / len(values)


def fd_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, element by element."""
    grad = np.zeros_like(x, dtype=np.float64)
    for i in range(x.size):
        bumped = x.copy()
        bumped.flat[i] += h
        up = f(bumped)
        bumped.flat[i] -= 2 * h
        down = f(bumped)
        grad.flat[i] = (up - down) / (2 * h)
    return grad


def gradient_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Norm-wise relative error between two gradients of one tensor."""
    scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric))
    if scale < 1e-10:
        return 0.0
    return float(np.linalg.norm(analytic - numeric) / scale)


def acc_blind_uniform_baseline(tax, split, true_leaf_of: dict[str, int], lsa_fn) -> float:
    """Exact expected blind accuracy of a uniformly random seen-leaf guess."""
    seen = sorted(split.seen_leaves)
    per_sample = []
    for sid, true in true_leaf_of.items():
        lsa = lsa_fn(tax, split, true)
        lsa_depth = depth_oracle(tax, lsa)
        hits = 0
        for leaf in seen:
            lift_depth = min(lsa_depth, depth_oracle(tax, leaf))
            if ancestor_at_depth_oracle(tax, leaf, lift_depth) == lsa:
                hits += 1
        per_sample.append(hits / len(seen))
    return sum(per_sample) / len(per_sample)


def random_tree_doc(
    rng: np.random.Generator, max_depth=4, max_children=4, p_leaf=0.35, max_nodes=math.inf
):
    """Random nested tree document with at least two leaves; may be unbalanced
    and may contain single-child chains. Every node made after the first
    `max_nodes` is a leaf, so a tree holds at most `max_nodes + max_depth *
    max_children` nodes; the default cap draws the trees an uncapped call drew."""
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"n{counter[0]}"

    def build(depth):
        node = {"name": fresh()}
        at_bottom = depth >= max_depth or counter[0] > max_nodes
        if not at_bottom and (depth == 0 or rng.random() > p_leaf):
            n_children = int(rng.integers(2 if depth == 0 else 1, max_children + 1))
            node["children"] = [build(depth + 1) for _ in range(n_children)]
        return node

    return build(0)


def uniform_tree_doc(rng: np.random.Generator, depth=3, min_children=2, max_children=3):
    """Random tree with every leaf at exactly `depth`; root branches >= 2."""
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"u{counter[0]}"

    def build(level):
        node = {"name": fresh()}
        if level < depth:
            n_children = int(rng.integers(min_children, max_children + 1))
            node["children"] = [build(level + 1) for _ in range(n_children)]
        return node

    return build(0)


def instantiate_epoch_oracle(
    taxonomy, dataset, split, triples, epoch_seed, subset="train", skip_infeasible=False
):
    """Per-triple draws: `integers` for each node of a distinct-node triple,
    `choice(n, 2, replace=False)` for a same-node anchor/positive pair."""
    from hieremb.sampler import SamplerError, TripletInstance

    by_leaf = {}
    for sample in dataset:
        if split.partition.get(sample.id) == subset:
            by_leaf.setdefault(taxonomy.id_of(sample.leaf), []).append(sample.id)

    # each leaf's root path, walked once: a node's pool is the leaves whose
    # path holds it
    paths = {leaf: set(path_from_root(taxonomy, leaf)) for leaf in leaves_oracle(taxonomy)}
    pools = {}

    def pool(node):
        if node not in pools:
            leaves = [leaf for leaf, path in paths.items() if node in path]
            pools[node] = sorted(sid for leaf in leaves for sid in by_leaf.get(leaf, ()))
        return pools[node]

    rng = np.random.default_rng(epoch_seed)
    instances = []
    for triple in triples:
        anchor_pool = pool(triple.anchor_node)
        negative_pool = pool(triple.negative_node)
        same = triple.anchor_node == triple.positive_node
        positive_pool = anchor_pool if same else pool(triple.positive_node)
        if len(anchor_pool) < (2 if same else 1) or not positive_pool or not negative_pool:
            if skip_infeasible:
                continue
            node = min(triple, key=lambda n: len(pool(n)))
            raise SamplerError(
                f"node {taxonomy.name(node)!r} has too few {subset} samples "
                f"for triple {tuple(taxonomy.name(n) for n in triple)}"
            )
        if same:
            i, j = rng.choice(len(anchor_pool), size=2, replace=False)
            anchor, positive = anchor_pool[i], anchor_pool[j]
        else:
            anchor = anchor_pool[rng.integers(len(anchor_pool))]
            positive = positive_pool[rng.integers(len(positive_pool))]
        negative = negative_pool[rng.integers(len(negative_pool))]
        instances.append(TripletInstance(anchor, positive, negative))
    return instances


def binary_cross_entropy_oracle(logits, membership, weights):
    """Node-averaged weighted BCE per row and its logit gradient, in the
    `logaddexp` form: -log s(z) = logaddexp(0, -z), s(z) = exp(-logaddexp(0, -z))."""
    n_nodes = logits.shape[-1]
    terms = np.where(membership, weights * np.logaddexp(0.0, -logits), np.logaddexp(0.0, logits))
    probs = np.exp(-np.logaddexp(0.0, -logits))
    grad = np.where(membership, weights * (probs - 1.0), probs) / n_nodes
    return terms.sum(axis=-1) / n_nodes, grad


def leaf_pair_diameter_oracle(tax):
    """Longest leaf-to-leaf path in edges, over every pair of leaves and
    their `lca`."""
    leaves = sorted(tax.leaf_ids)
    diameter = 0
    for i, l1 in enumerate(leaves):
        for l2 in leaves[i + 1 :]:
            a = tax.lca(l1, l2)
            diameter = max(diameter, tax.depth(l1) + tax.depth(l2) - 2 * tax.depth(a))
    return diameter


def validation_loss_oracle(model, table, val_instances):
    """Per-component validation loss in two passes: the heads over every
    table row, then the triplet term from each triplet's three rows embedded
    anew. Forward pass, cross-entropies and cosines are written out here
    from the parameters."""

    def forward(X):
        p = model.params
        emb = np.tanh(X @ p["embed.1.W"] + p["embed.1.b"]) @ p["embed.2.W"] + p["embed.2.b"]
        return emb, emb @ p["head.W"] + p["head.b"]

    def cross_entropy(logits, targets, weights):
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        rows = np.arange(len(targets))
        return -weights[targets] * log_probs[rows, targets]

    layout = model.layout
    # head name -> its column of the target matrix
    targets = dict(zip((h.name for h in layout.class_heads()), table.targets.T))
    components = {}
    _, logits = forward(table.features)
    if layout.leaf is not None:
        head = layout.leaf
        components["L"] = cross_entropy(
            logits[:, head.columns], targets[head.name], head.weights
        ).mean()
    if layout.levels:
        components["PL"] = sum(
            cross_entropy(logits[:, h.columns], targets[h.name], h.weights)
            for h in layout.levels
        ).mean()
    if layout.binary is not None:
        values, _ = binary_cross_entropy_oracle(
            logits[:, layout.binary.columns], table.binary_membership, layout.binary.weights
        )
        components["B"] = values.mean()
    if "T" in model.loss_config.active:
        hinges = []
        for instance in val_instances:
            ids = (instance.anchor_id, instance.positive_id, instance.negative_id)
            a, p, n = forward(table.features[[table.index[sid] for sid in ids]])[0]

            def cosine(u, v):
                return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

            hinges.append(max(0.0, cosine(a, n) - cosine(a, p) + model.loss_config.margin))
        components["T"] = float(np.mean(hinges)) if hinges else 0.0
    return {name: float(value) for name, value in components.items()}


def wide_index_metrics_oracle(ranking, tax, leaf_of, k=5):
    """NDCG ('sum' and 'max'), MNR and RP@k of a ranking in their earlier
    vectorised form: intp leaf indices, a 2-D fancy index into the leaf x
    leaf gain table and one class gather per level, over the library's
    blocks of query rows (a product's last bits can depend on its shape).
    The gain table comes from `relevance_tables` and the level classes from
    the taxonomy, which this form shares with the library, so it checks only
    that reading them through flat cells of leaf codes changes no bit. None where a
    metric is undefined."""
    from hieremb.metrics import _blocks, relevance_tables

    n = ranking.order.shape[1]
    leaves, leaf_idx = np.unique([leaf_of[sid] for sid in ranking.ids], return_inverse=True)
    leaves = [int(leaf) for leaf in leaves]
    query_leaf = leaf_idx[ranking.queries]
    candidate_leaf = leaf_idx[ranking.order]
    discounts = 1.0 / np.log2(np.arange(2, n + 2))
    values = {}
    for kind in ("sum", "max"):
        gain = relevance_tables(tax, leaves)[1][kind]
        ideal = np.array([np.sort(row[leaf_idx])[::-1][1:] @ discounts for row in gain])
        dcg = np.empty(len(ranking))
        for rows in _blocks(len(ranking), n):
            dcg[rows] = gain[query_leaf[rows, None], candidate_leaf[rows]] @ discounts
        idcg = ideal[query_leaf]
        with np.errstate(invalid="ignore", divide="ignore"):
            ratios = np.where(idcg == 0.0, np.nan, dcg / idcg)
        defined = ~np.isnan(ratios).all()
        values[f"ndcg_{kind}"] = float(np.nanmean(ratios)) if defined else None
    levels = tax.levels_with_multiple_classes()
    classes = tax.leaf_ancestors(leaves)[:, [level for level, _ in levels]].T
    shifted = np.arange(n) / n
    means = np.empty((len(ranking), len(levels)))
    for rows in _blocks(len(ranking), n):
        for j, cls in enumerate(classes):
            hits = cls[candidate_leaf[rows]] == cls[query_leaf[rows], None]
            with np.errstate(invalid="ignore"):
                means[rows, j] = (hits @ shifted) / hits.sum(axis=1)
    answered = ~np.isnan(means).all(axis=1)
    values["mnr"] = (
        float(np.mean(np.nanmean(means[answered], axis=1))) if answered.any() else None
    )
    leaf = np.array([leaf_of[sid] for sid in ranking.ids])
    hits = leaf[ranking.order[:, :k]] == leaf[ranking.queries, None]
    values["rp_at_k"] = float(np.mean(hits.sum(axis=1) / k)) if n >= k else None
    return values


def dataset_jsonl_oracle(samples) -> bytes:
    """The JSON Lines bytes of a per-record writer: one `json.dumps` of
    `{"id", "leaf", "features"}` per sample, features as Python floats."""
    return "".join(
        json.dumps({"id": s.id, "leaf": s.leaf, "features": np.asarray(s.features, np.float64).tolist()})
        + "\n" for s in samples
    ).encode()


def generate_samples_oracle(config):
    """`synthdata.generate`'s samples drawn one sample at a time: the same
    draws as the library's per-leaf blocks, each feature vector its leaf's
    mean plus one row of noise."""
    from hieremb.dataset import LabeledSample
    from hieremb.synthdata import generate

    taxonomy, _ = generate(config)
    # replay the draws in generate's order: branch counts, means, leaves
    rng = np.random.default_rng(config.seed)
    frontier = 1
    for lo, hi in config.level_branching():
        frontier = sum(int(rng.integers(lo, hi + 1)) for _ in range(frontier))
    dim = config.feature_dim
    means = np.zeros((len(taxonomy), dim))
    for nid in range(1, len(taxonomy)):
        scale = config.offset_scale * config.decay ** (depth_oracle(taxonomy, nid) - 1)
        means[nid] = means[taxonomy.parent(nid)] + scale * rng.normal(size=dim)
    samples = []
    counter = 0
    lo, hi = config.samples_per_leaf
    for leaf in sorted(leaves_oracle(taxonomy)):
        count = int(rng.integers(lo, hi + 1))
        noise = config.noise * rng.normal(size=(count, dim))
        for row in noise:
            samples.append(LabeledSample(f"s{counter:06d}", taxonomy.name(leaf), means[leaf] + row))
            counter += 1
    return samples


def config_oracle(values: dict[str, str], overrides: dict | None = None):
    """`cli.config_from_values` with each experiment key read by hand: its
    name, its parser and its default written out again here."""
    from dataclasses import fields

    from hieremb.cli import VALID_COMBOS, ExperimentConfig, parse_branching, parse_int_range
    from hieremb.dataset import named
    from hieremb.losses import parse_combo
    from hieremb.model import ModelConfig
    from hieremb.synthdata import SynthConfig

    parsers = {"branching": parse_branching, "samples_per_leaf": parse_int_range}
    merged = dict(values)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = str(value)
    unread = set(merged)

    def take(key, cast, default):
        unread.discard(key)
        if key not in merged:
            return default
        try:
            return cast(merged[key])
        except ValueError as err:
            raise named(key, err) from None

    combos_text = take("combos", str, "")
    combos = (
        tuple(parse_combo(p) for p in combos_text.split(",") if p.strip())
        if combos_text
        else VALID_COMBOS
    )
    base_seed = take("seed", int, 0)

    def from_fields(cls, prefix: str, **defaults):
        return cls(**{
            f.name: take(prefix + f.name, parsers.get(f.name, type(f.default)),
                         defaults.get(f.name, f.default))
            for f in fields(cls)
            if f.name != "input_dim"
        })

    config = ExperimentConfig(
        out=take("out", str, "runs"),
        taxonomy=take("taxonomy", str, None),
        dataset=take("dataset", str, None),
        k_folds=take("k_folds", int, 5),
        combos=combos,
        margin=take("margin", float, 0.3),
        epochs=take("epochs", int, 50),
        seed=base_seed,
        model=from_fields(ModelConfig, ""),
        synth=from_fields(SynthConfig, "synth_", seed=base_seed),
    )
    if unread:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unread))}")
    return config
