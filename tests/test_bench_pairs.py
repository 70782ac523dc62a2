"""The rules `tools/bench_pairs.py` applies to paired benchmark runs."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def made_up_run(seed, metrics, correct=True, failed=0):
    result = {"correct": correct, "attempted": 5, "failed": failed,
              "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()}}
    return {"seed": seed, "record": {}, "result": result}


def runs_of(name, parent, change):
    """Made-up runs holding one end-to-end metric `name` and one per-layer metric."""
    return {side: [made_up_run(seed, {name: value, "cli.evaluate_model.s": 1.0})
                   for seed, value in enumerate(values, start=1)]
            for side, values in (("parent", parent), ("change", change))}


PARENT_RSS = [67.0, 67.1, 67.2, 67.3, 67.4, 67.5, 67.6, 67.7, 67.8, 67.9]


@pytest.mark.parametrize(
    "change, won, gain",
    [
        ([value - 3.5 for value in PARENT_RSS], 10, True),
        # 9 of 10 pairs is enough
        ([value - 3.5 for value in PARENT_RSS[:9]] + [68.0], 9, True),
        ([value - 3.5 for value in PARENT_RSS[:8]] + [68.0, 68.0], 8, False),
        # every pair won, but the medians lie closer than the parent's q3 - q1
        ([value - 0.05 for value in PARENT_RSS], 10, False),
    ],
    ids=["all-pairs", "nine-pairs", "eight-pairs", "inside-the-spread"],
)
def test_gain_needs_nine_in_ten_pairs_and_a_gap_beyond_the_spread(change, won, gain):
    report = bench_pairs.summary(runs_of("peak_rss_mb", PARENT_RSS, change))
    assert report["peak_rss_mb"]["pairs_won"] == won
    assert report["peak_rss_mb"]["gain"] is gain
    assert report["peak_rss_mb"]["regressed"] is False
    # a per-layer metric gets quartiles only
    assert set(report["cli.evaluate_model.s"]) == {"parent", "change"}


@pytest.mark.parametrize(
    "name, factor, regressed",
    [
        ("wall_s", 1.30, True),  # lower is better, bound 0.25
        ("wall_s", 1.20, False),
        ("peak_rss_mb", 1.21, True),  # bound 0.2
        ("eval_pairs_per_s", 0.70, True),  # higher is better, bound 0.25
        ("eval_pairs_per_s", 0.80, False),
        ("eval_pairs_per_s", 1.50, False),
    ],
)
def test_regressed_is_a_median_worse_by_more_than_the_bound(name, factor, regressed):
    parent = [float(value) for value in range(10, 20)]
    report = bench_pairs.summary(runs_of(name, parent, [value * factor for value in parent]))
    assert report[name]["regressed"] is regressed
    assert report[name]["pairs_won"] == (10 if factor > 1 and name == "eval_pairs_per_s" else 0)


@pytest.mark.parametrize(
    "bad_side, bad_seed, outcome",
    [("parent", 1, {"correct": False, "failed": 2}), ("change", 2, {"failed": 1})],
)
def test_a_run_that_is_not_correct_stops_the_script(tmp_path, monkeypatch, bad_side, bad_seed,
                                                    outcome):
    parent = tmp_path / "parent"
    parent.mkdir()

    def run_once(root, workload, seed, seconds):
        side = "parent" if root == parent.resolve() else "change"
        faults = outcome if (side, seed) == (bad_side, bad_seed) else {}
        return made_up_run(seed, {"wall_s": 1.0}, **faults)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(parent), "--workload", "staged-large", "--seeds", "1-3", "--out", str(out)]
    error = f"the {bad_side} run of seed {bad_seed} is not correct: {outcome['failed']} of 5 ops failed"
    with pytest.raises(SystemExit, match=error):
        bench_pairs.main(argv)
    assert not out.exists()
