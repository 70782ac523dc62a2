import json

import numpy as np
import pytest

from hieremb.dataset import LabeledSample, load_dataset, save_dataset


def write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def record(sid, features):
    return {"id": sid, "leaf": "a1", "features": features}


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = [LabeledSample(f"s{i}", "a1", rng.normal(size=3)) for i in range(4)]
    save_dataset(tmp_path / "d.jsonl", samples)
    loaded = load_dataset(tmp_path / "d.jsonl")
    assert [s.id for s in loaded] == [s.id for s in samples]
    for a, b in zip(loaded, samples):
        assert np.array_equal(a.features, b.features)


def test_ragged_features_name_line_and_sample(tmp_path):
    path = tmp_path / "d.jsonl"
    write_records(path, [record("s0", [1.0, 2.0]), record("s1", [1.0, 2.0]), record("s2", [1.0])])
    with pytest.raises(ValueError, match=r"d\.jsonl:3: sample 's2' has features of shape \(1,\)"):
        load_dataset(path)


def test_nested_features_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    write_records(path, [record("s0", [1.0, 2.0]), record("s1", [[1.0, 2.0]])])
    with pytest.raises(ValueError, match=r"d\.jsonl:2: sample 's1'"):
        load_dataset(path)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_features_name_line_and_sample(tmp_path, bad):
    path = tmp_path / "d.jsonl"
    lines = [
        json.dumps(record("s0", [0.5, 1.0])),
        "",
        f'{{"id": "s1", "leaf": "a1", "features": [0.5, {bad}]}}',
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"d\.jsonl:3: sample 's1' has non-finite features"):
        load_dataset(path)
