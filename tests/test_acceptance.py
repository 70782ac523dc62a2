"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a `[criterion n] PASS/FAIL` line; run with `-s` to see
them live. Criteria 6 and 7 share one set of trained models (three loss
combinations, three seeds, the default synthetic profile).
"""
import time

import numpy as np
import pytest

from hieremb.cli import evaluate_model, load_experiment_config, run_experiment
from hieremb.datasplit import lowest_seen_ancestor, make_fold_splits
from hieremb.losses import LossConfig
from hieremb.metrics import Ranking, build_ranked_lists, mnr, ndcg
from hieremb.model import (
    AdamState,
    EmbeddingModel,
    ModelConfig,
    TrainState,
    build_head_layout,
    build_target_table,
    fit,
    train_step,
)
from hieremb.sampler import count_node_triples, enumerate_node_triples, instantiate_epoch
from hieremb.synthdata import SynthConfig, generate
from hieremb.taxonomy import parse_taxonomy

from conftest import ranking_of, t0_document
from harness import clustered_samples, grad_check_max_err, train_valid_split
from oracles import (
    acc_blind_uniform_baseline,
    mnr_oracle,
    ndcg_oracle,
    random_tree_doc,
    ranked_lists_oracle,
    uniform_tree_doc,
)


def report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_gradient_correctness():
    start = time.time()
    worst = 0.0
    for seed in range(20):
        for active in ({"T"}, {"L"}, {"PL"}, {"B"}, {"L", "PL", "B", "T"}):
            worst = max(worst, grad_check_max_err(active, seed))
    elapsed = time.time() - start
    report(
        1,
        "analytic gradients match central finite differences (rel err < 1e-4)",
        worst < 1e-4 and elapsed < 30.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s for 20 seeds x 5 loss sets",
    )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_2_metric_oracle_equivalence():
    t0 = parse_taxonomy(t0_document())
    leaf_of = {
        "q": t0.id_of("a1"),
        "c1": t0.id_of("a1"),
        "c2": t0.id_of("a2"),
        "c3": t0.id_of("b1"),
        "c4": t0.id_of("b1"),
    }
    worked = mnr(ranking_of({"q": ["c1", "c2", "c3", "c4"]}), t0, leaf_of)
    worked_ok = worked == 0.0625

    rng = np.random.default_rng(20)
    worst = 0.0
    instances = 0
    while instances < 100:
        tax = parse_taxonomy(random_tree_doc(rng, max_depth=4, max_children=3))
        if not tax.levels_with_multiple_classes():
            continue
        leaves = sorted(tax.leaf_ids)
        n = int(rng.integers(5, 31))
        ids = [f"s{i:03d}" for i in range(n)]
        labels = {sid: int(rng.choice(leaves)) for sid in ids}
        embeddings = {sid: rng.normal(size=6) for sid in ids}
        ranked = build_ranked_lists(embeddings, ids)
        oracle_lists = ranked_lists_oracle(embeddings, ids)
        worst = max(worst, abs(mnr(ranked, tax, labels) - mnr_oracle(tax, oracle_lists, labels)))
        for kind in ("sum", "max"):
            worst = max(
                worst,
                abs(ndcg(ranked, tax, labels, kind) - ndcg_oracle(tax, oracle_lists, labels, kind)),
            )
        instances += 1
    report(
        2,
        "MNR/NDCG equal the brute-force oracle within 1e-9 on 100 instances",
        worked_ok and worst < 1e-9,
        f"worked T0 MNR {worked}, max |lib - oracle| {worst:.2e}",
    )


def test_criterion_3_sampler_correctness():
    t0 = parse_taxonomy(t0_document())
    names = [tuple(t0.name(n) for n in t) for t in enumerate_node_triples(t0)]
    t0_ok = set(names) == {
        ("a1", "a2", "B"),
        ("a2", "a1", "B"),
        ("b1", "b1", "A"),
        ("a1", "a1", "a2"),
        ("a2", "a2", "a1"),
    } and len(names) == 5

    rng = np.random.default_rng(21)
    count_ok = True
    invariant_ok = True
    for _ in range(50):
        tax = parse_taxonomy(random_tree_doc(rng))
        triples = enumerate_node_triples(tax)
        count_ok = count_ok and len(triples) == count_node_triples(tax)
        for t in triples:
            if t.anchor_node == t.positive_node:
                inside = not tax.is_ancestor_or_self(
                    t.negative_node, t.anchor_node
                ) and not tax.is_ancestor_or_self(t.anchor_node, t.negative_node)
                invariant_ok = invariant_ok and inside
            else:
                inner = tax.lca(t.anchor_node, t.positive_node)
                outer = tax.lca(t.anchor_node, t.negative_node)
                invariant_ok = (
                    invariant_ok
                    and tax.is_ancestor_or_self(outer, inner)
                    and inner != outer
                )
    report(
        3,
        "triple enumeration matches the closed-form count and the LCA exclusion",
        t0_ok and count_ok and invariant_ok,
        "50 random trees + exact T0 set",
    )


def test_criterion_4_flat_tree_reduction():
    tax = parse_taxonomy({"name": "root", "children": [{"name": f"l{i}"} for i in range(6)]})
    triples = enumerate_node_triples(tax)
    standard = all(
        t.anchor_node == t.positive_node
        and tax.is_leaf(t.anchor_node)
        and tax.is_leaf(t.negative_node)
        and t.negative_node != t.anchor_node
        for t in triples
    )

    samples = clustered_samples(tax, per_leaf=10, dim=6, seed=30)
    split = train_valid_split(tax, samples)
    model_config = ModelConfig(input_dim=6, hidden_dim=12, embedding_dim=4)
    matched = True
    states = {}
    for name in ("L", "PL"):
        loss_config = LossConfig(active=frozenset({name}))
        layout = build_head_layout(tax, samples, loss_config)
        table = build_target_table(tax, layout, samples)
        model = EmbeddingModel.initialise(model_config, loss_config, layout, seed=[31, 1])
        states[name] = (TrainState(model=model, adam=AdamState.for_params(model.params)), table)
    step_pairs = []
    for epoch in range(3):
        instances = instantiate_epoch(tax, samples, split, triples, epoch_seed=31 + epoch)
        order = np.random.default_rng([31 + epoch, 1]).permutation(len(instances))
        shuffled = [instances[i] for i in order]
        for start in range(0, len(shuffled), 32):
            batch = shuffled[start : start + 32]
            _, value_l = train_step(states["L"][0], batch, states["L"][1])
            _, value_pl = train_step(states["PL"][0], batch, states["PL"][1])
            step_pairs.append((value_l.total, value_pl.total))
            matched = matched and value_l.total == value_pl.total
    params_l = states["L"][0].model.params
    params_pl = states["PL"][0].model.params
    for kl, kpl in zip(sorted(params_l), sorted(params_pl)):
        matched = matched and np.array_equal(params_l[kl], params_pl[kpl])
    report(
        4,
        "on a flat tree PL trains step-for-step like L and triplets are standard",
        standard and matched,
        f"{len(step_pairs)} steps compared exactly",
    )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_5_uniform_depth_ndcg_identity():
    from hieremb.metrics import MetricError

    def per_query(one, tax, labels, kind):
        try:
            return ndcg(one, tax, labels, kind)
        except MetricError:
            return None  # all candidates at relevance 0: undefined, skipped

    rng = np.random.default_rng(40)
    worst = 0.0
    queries = 0
    consistent = True
    for _ in range(20):
        tax = parse_taxonomy(uniform_tree_doc(rng, depth=int(rng.integers(2, 5))))
        leaves = sorted(tax.leaf_ids)
        ids = [f"s{i}" for i in range(15)]
        labels = {sid: int(rng.choice(leaves)) for sid in ids}
        embeddings = {sid: rng.normal(size=5) for sid in ids}
        ranking = build_ranked_lists(embeddings, ids)
        for i in range(len(ranking)):
            one = Ranking(ranking.ids, ranking.queries[i : i + 1], ranking.order[i : i + 1])
            a = per_query(one, tax, labels, "sum")
            b = per_query(one, tax, labels, "max")
            consistent = consistent and (a is None) == (b is None)
            if a is not None and b is not None:
                worst = max(worst, abs(a - b))
                queries += 1
    report(
        5,
        "uniform-depth trees give ndcg_sum = ndcg_max per query (1e-12)",
        consistent and worst < 1e-12,
        f"max per-query gap {worst:.2e} over {queries} queries",
    )


@pytest.fixture(scope="module")
def directional_runs():
    """Train L, PL, PL+T on the default profile for three seeds (one fold)."""
    start = time.time()
    combos = {"L": frozenset({"L"}), "PL": frozenset({"PL"}), "PL+T": frozenset({"PL", "T"})}
    results = {name: {"test": [], "prediction": []} for name in combos}
    baselines = []
    unseen_counts = []
    for seed in (0, 1, 2):
        tax, samples = generate(SynthConfig(seed=seed))
        split = make_fold_splits(tax, samples, k_folds=5, seed=seed)[0]
        unseen_counts.append(len(split.unseen_leaves))
        prediction_leaf_of = {
            s.id: tax.leaf_id_for(s)
            for s in samples
            if split.partition[s.id] == "prediction"
        }
        baselines.append(
            acc_blind_uniform_baseline(tax, split, prediction_leaf_of, lowest_seen_ancestor)
        )
        for name, combo in combos.items():
            model, _ = fit(
                samples, tax, split, LossConfig(active=combo), ModelConfig(), 50, seed=seed
            )
            for subset in ("test", "prediction"):
                results[name][subset].append(evaluate_model(model, tax, samples, split, subset))
    return {
        "results": results,
        "baselines": baselines,
        "unseen_counts": unseen_counts,
        "elapsed": time.time() - start,
    }


def test_criterion_6_directional_reproduction(directional_runs):
    results = directional_runs["results"]
    mean = lambda reports, attr: float(np.mean([getattr(r, attr) for r in reports]))
    mnr_l = mean(results["L"]["test"], "mnr")
    mnr_pl = mean(results["PL"]["test"], "mnr")
    ndcg_l = mean(results["L"]["test"], "ndcg_sum")
    ndcg_pl = mean(results["PL"]["test"], "ndcg_sum")
    rp5_pl = mean(results["PL"]["test"], "leaf_rp_at_5")
    rp5_plt = mean(results["PL+T"]["test"], "leaf_rp_at_5")
    elapsed = directional_runs["elapsed"]
    ok = mnr_pl < mnr_l and ndcg_pl > ndcg_l and rp5_plt >= rp5_pl and elapsed < 15 * 60
    report(
        6,
        "hierarchy-aware losses beat the leaf baseline directionally",
        ok,
        f"MNR PL {mnr_pl:.4f} < L {mnr_l:.4f}; NDCG PL {ndcg_pl:.4f} > L {ndcg_l:.4f}; "
        f"RP@5 PL+T {rp5_plt:.4f} >= PL {rp5_pl:.4f}; {elapsed:.0f}s",
    )


def test_criterion_7_generalisation_metrics(directional_runs):
    results = directional_runs["results"]
    baselines = directional_runs["baselines"]
    unseen_ok = all(n >= 5 for n in directional_runs["unseen_counts"])
    acc = float(np.mean([r.acc_blind for r in results["PL+T"]["prediction"]]))
    baseline = float(np.mean(baselines))
    aware_only_for_pl = all(r.acc_aware is None for r in results["L"]["prediction"]) and all(
        r.acc_aware is not None for name in ("PL", "PL+T") for r in results[name]["prediction"]
    )
    ok = unseen_ok and acc >= 2 * baseline and aware_only_for_pl
    report(
        7,
        "blind LSA accuracy beats 2x the exact random baseline; aware only with PL",
        ok,
        f"acc_blind {acc:.3f} vs baseline {baseline:.3f}; "
        f"unseen leaves per seed {directional_runs['unseen_counts']}",
    )


def test_criterion_8_end_to_end_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "\n".join(
            [
                "synth_depth = 3",
                "synth_branching = 2-2,2-3",
                "synth_samples_per_leaf = 60-70",
                "synth_feature_dim = 8",
                "synth_offset_scale = 2.0",
                "synth_decay = 0.7",
                "synth_noise = 0.3",
                "k_folds = 2",
                "epochs = 2",
                "seed = 0",
                "combos = L,PL+T",
                "hidden_dim = 16",
                "embedding_dim = 8",
            ]
        )
        + "\n"
    )
    config = load_experiment_config(str(cfg), {"out": str(tmp_path / "runs")})
    run_experiment(config)
    first = (tmp_path / "runs" / "aggregate.csv").read_bytes()
    run_experiment(config)
    second = (tmp_path / "runs" / "aggregate.csv").read_bytes()
    report(
        8,
        "two identical run_experiment invocations give byte-identical aggregates",
        first == second,
        f"{len(first)} bytes",
    )
