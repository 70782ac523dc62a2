import hashlib
import json
import re
from pathlib import Path
from types import SimpleNamespace

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


@pytest.mark.parametrize(
    "failure, mode",
    [("block-raises", "w"), ("rename-fails", "w"), ("block-raises", "wb"), ("rename-fails", "wb")],
    ids=["block-raises", "rename-fails", "block-raises-binary", "rename-fails-binary"],
)
def test_failed_atomic_write_keeps_earlier_bytes(tmp_path, monkeypatch, failure, mode):
    path = tmp_path / "out.csv"
    path.write_bytes(b"earlier\n")
    if failure == "rename-fails":
        def refuse(src, dst):
            raise Interrupted

        monkeypatch.setattr(hieremb.dataset.os, "replace", refuse)
    with pytest.raises(Interrupted):
        with atomic_open(path, mode) as fh:
            fh.write("later\n" if mode == "w" else b"later\n")
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


# -- the binary sidecar save_dataset writes beside the JSON Lines file ---------


def sample_list(n=6, dim=4):
    rng = np.random.default_rng(3)
    samples = [LabeledSample(f"s{i}", f"leaf{i % 3}", rng.normal(size=dim)) for i in range(n)]
    samples[0].features[:2] = [5e-324, -0.0]
    return samples


def as_tuples(samples):
    return [(s.id, s.leaf, s.features.tobytes()) for s in samples]


@pytest.fixture
def parses(monkeypatch):
    """The JSON records `hieremb.dataset` has parsed since the test began."""
    calls = []

    def counting_loads(text):
        calls.append(text)
        return json.loads(text)

    monkeypatch.setattr(hieremb.dataset, "json", SimpleNamespace(
        loads=counting_loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError))
    return calls


def test_sidecar_load_equals_parse(tmp_path, parses):
    # 150 samples: the JSONL is written and hashed in more than one chunk
    path = tmp_path / "d.jsonl"
    save_dataset(path, sample_list(n=150))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "d.jsonl.npz"]
    from_sidecar = load_dataset(path)
    assert parses == []
    (tmp_path / "d.jsonl.npz").unlink()
    parsed = load_dataset(path)
    assert len(parses) == 150
    assert as_tuples(from_sidecar) == as_tuples(parsed) == as_tuples(sample_list(n=150))
    assert all(s.features.dtype == np.float64 and s.features.shape == (4,) for s in from_sidecar)


def test_sidecar_of_empty_dataset(tmp_path):
    path = tmp_path / "d.jsonl"
    save_dataset(path, [])
    assert path.read_bytes() == b""
    assert (tmp_path / "d.jsonl.npz").is_file()
    assert load_dataset(path) == []


def test_jsonl_edited_after_save_is_parsed(tmp_path, parses):
    # the file is over 1 MiB and its last line is edited: the check hashes
    # every chunk of the file, not only the first
    path = tmp_path / "d.jsonl"
    save_dataset(path, sample_list(n=900, dim=64))
    lines = path.read_text().splitlines(keepends=True)
    assert path.stat().st_size - len(lines[-1]) > 1 << 20
    load_dataset(path)
    assert parses == []
    edited = json.loads(lines[-1])
    edited["features"][0] = 0.25
    path.write_text("".join(lines[:-1]) + json.dumps(edited) + "\n")
    loaded = load_dataset(path)
    assert len(parses) == 900
    assert loaded[-1].features[0] == 0.25
    # an edit that breaks the file is reported as without a sidecar
    path.write_text("".join(lines[:3]) + '{"id": "s900", "leaf": "a1"}\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: record lacks key 'features'")):
        load_dataset(path)


def rewrite_sidecar(path, **arrays):
    """Replace the sidecar of `path` with `arrays`, keyed as `save_dataset`
    keys them, under the digest of the file's current bytes."""
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    np.savez(path.with_name(path.name + ".npz"), sha256=np.array(digest), **arrays)


@pytest.mark.parametrize(
    "damage",
    [
        "truncated", "garbage", "missing-key", "float32-features", "short-ids", "flat-features",
        "scalar-features", "byte-ids",
    ],
)
def test_damaged_sidecar_is_parsed(tmp_path, parses, damage):
    path = tmp_path / "d.jsonl"
    samples = sample_list()
    save_dataset(path, samples)
    sidecar = tmp_path / "d.jsonl.npz"
    ids = np.array([s.id for s in samples])
    leaves = np.array([s.leaf for s in samples])
    features = np.stack([s.features for s in samples])
    if damage == "truncated":
        sidecar.write_bytes(sidecar.read_bytes()[: sidecar.stat().st_size // 2])
    elif damage == "garbage":
        sidecar.write_bytes(np.random.default_rng(0).bytes(3000))
    elif damage == "missing-key":
        rewrite_sidecar(path, ids=ids, leaves=leaves)
    elif damage == "float32-features":
        rewrite_sidecar(path, ids=ids, leaves=leaves, features=features.astype(np.float32))
    elif damage == "short-ids":
        rewrite_sidecar(path, ids=ids[1:], leaves=leaves, features=features)
    elif damage == "flat-features":
        rewrite_sidecar(path, ids=ids, leaves=leaves, features=features.ravel())
    elif damage == "scalar-features":
        rewrite_sidecar(path, ids=ids, leaves=leaves, features=np.float64(1.0))
    else:
        rewrite_sidecar(path, ids=ids.astype(bytes), leaves=leaves, features=features)
    assert as_tuples(load_dataset(path)) == as_tuples(samples)
    assert len(parses) == 6


class Touch:
    """Unpickling this creates the file `marker`."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return (Path.touch, (self.marker,))


def test_sidecar_with_object_array_is_parsed_not_unpickled(tmp_path, parses):
    path = tmp_path / "d.jsonl"
    samples = sample_list()
    save_dataset(path, samples)
    marker = tmp_path / "unpickled"
    ids = np.empty(len(samples), dtype=object)
    ids[:] = [Touch(marker)] * len(samples)
    rewrite_sidecar(path, ids=ids, leaves=np.array([s.leaf for s in samples]),
                    features=np.stack([s.features for s in samples]))
    assert as_tuples(load_dataset(path)) == as_tuples(samples)
    assert len(parses) == 6
    assert not marker.exists()


@pytest.mark.parametrize("bad", ["nan", "repeated-id"])
def test_bad_samples_saved_with_sidecar_name_their_line(tmp_path, bad):
    path = tmp_path / "d.jsonl"
    samples = sample_list()
    if bad == "nan":
        samples[3].features[1] = np.nan
        message = f"{path}:4: sample 's3' has non-finite features"
    else:
        samples[4] = LabeledSample("s1", "leaf1", samples[4].features)
        message = f"{path}:5: duplicate sample id 's1', first at {path}:2"
    save_dataset(path, samples)
    assert (tmp_path / "d.jsonl.npz").is_file()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_dataset(path)


@pytest.mark.parametrize("case", ["ragged", "int-id", "id-ending-in-nul"])
def test_sidecar_left_out_when_it_would_not_read_back(tmp_path, case):
    path = tmp_path / "d.jsonl"
    samples = sample_list()
    if case == "ragged":
        samples[2] = LabeledSample("s2", "leaf2", np.ones(3))
    elif case == "int-id":
        samples[2] = LabeledSample(7, "leaf2", samples[2].features)
    else:
        samples[2] = LabeledSample("s2\0", "leaf2", samples[2].features)
    save_dataset(path, samples)
    assert [p.name for p in tmp_path.iterdir()] == ["d.jsonl"]
    if case == "ragged":
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: sample 's2' has features of shape (3,)")):
            load_dataset(path)
    else:
        assert load_dataset(path)[2].id == str(samples[2].id)


def test_failed_sidecar_write_leaves_no_sidecar_that_passes(tmp_path, monkeypatch):
    path = tmp_path / "d.jsonl"
    save_dataset(path, sample_list(n=6))

    def fail_midway(fh, **arrays):
        fh.write(b"PK\x03\x04")
        raise Interrupted

    monkeypatch.setattr(hieremb.dataset.np, "savez", fail_midway)
    with pytest.raises(Interrupted):
        save_dataset(path, sample_list(n=5))
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "d.jsonl.npz"]
    # the sidecar left is the earlier one, for the earlier six samples: it
    # does not match the new file's bytes, so the new file is parsed
    assert as_tuples(load_dataset(path)) == as_tuples(sample_list(n=5))
