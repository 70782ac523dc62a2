import json
import re

import numpy as np
import pytest

import hieremb.dataset
from hieremb.dataset import LabeledSample, atomic_open, load_dataset, save_dataset


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


def test_saved_bytes_for_extreme_values(tmp_path):
    # the smallest subnormal, negative zero, a huge and an inexact value are
    # written as the shortest repr that reads back to the same float
    values = np.array([5e-324, -0.0, 1e308, 1 / 3])
    save_dataset(tmp_path / "d.jsonl", [LabeledSample("s0", "a1", values)])
    assert (tmp_path / "d.jsonl").read_bytes() == (
        b'{"id": "s0", "leaf": "a1", "features": [5e-324, -0.0, 1e+308, 0.3333333333333333]}\n'
    )
    (loaded,) = load_dataset(tmp_path / "d.jsonl")
    assert loaded.features.tobytes() == values.tobytes()


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


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"id": "s1", "leaf": "a1"}', "record lacks key 'features'"),
        ('["s1", "a1", [0.5]]', "malformed record: list indices must be integers"),
        ('{"id": "s1", "leaf": "a1", "features": "ab"}', "malformed record: could not convert"),
    ],
    ids=["no-features", "list", "string-features"],
)
def test_bad_record_names_its_line(tmp_path, line, message):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(record("s0", [0.5])) + "\n" + line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
        load_dataset(path)


def test_duplicate_id_names_both_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    lines = [json.dumps(record(sid, [0.5])) for sid in ("s0", "s1", "s2", "s1", "s0")]
    lines.insert(2, "")  # blank lines are skipped but counted
    path.write_text("\n".join(lines) + "\n")
    # the first id seen twice is s1 (lines 2 and 5), not s0 (lines 1 and 6)
    message = f"{path}:5: duplicate sample id 's1', first at {path}:2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_dataset(path)


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("failure", ["block-raises", "rename-fails"])
def test_failed_atomic_write_keeps_earlier_bytes(tmp_path, monkeypatch, failure):
    path = tmp_path / "out.csv"
    path.write_bytes(b"earlier\n")
    if failure == "rename-fails":
        def refuse(src, dst):
            raise Interrupted

        monkeypatch.setattr(hieremb.dataset.os, "replace", refuse)
    with pytest.raises(Interrupted):
        with atomic_open(path) as fh:
            fh.write("later\n")
            if failure == "block-raises":
                raise Interrupted
    assert path.read_bytes() == b"earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_atomic_write_creates_parents_and_replaces(tmp_path):
    path = tmp_path / "a" / "b" / "out.csv"
    for text in ("first\n", "second\n"):
        with atomic_open(path) as fh:
            fh.write(text)
    assert path.read_bytes() == b"second\n"
    assert [p.name for p in path.parent.iterdir()] == ["out.csv"]
