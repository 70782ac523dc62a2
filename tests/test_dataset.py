import hashlib
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        ('{"id": "s1", "leaf": "a1"}', "missing key 'features'"),
        ('["s1", "a1", [0.5]]', "not a JSON object"),
        ('{"id": "s1", "leaf": "a1", "features": "ab"}',
         "sample 's1' has features that are not a list of numbers"),
        # these were read: the id as "12345" (and the split file blamed for
        # it), the leaf as "None", true as 1.0 and "0.5" as 0.5; the huge
        # integer escaped as a bare OverflowError
        ('{"id": 12345, "leaf": "a1", "features": [0.5]}', "'id' is 12345, not a string"),
        ('{"id": "s1", "leaf": null, "features": [0.5]}', "'leaf' is None, not a string"),
        ('{"id": "s1", "leaf": "a1", "features": [true]}',
         "sample 's1' has features that are not a list of numbers"),
        ('{"id": "s1", "leaf": "a1", "features": ["0.5"]}',
         "sample 's1' has features that are not a list of numbers"),
        ('{"id": "s1", "leaf": "a1", "features": [1' + "0" * 400 + "]}",
         "int too large to convert to float"),
    ],
    ids=["no-features", "list", "string-features",
         "integer-id", "null-leaf", "true-feature", "string-feature", "huge-integer"],
)
def test_bad_record_names_its_line(tmp_path, line, message):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(record("s0", [0.5])) + "\n" + line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
        load_dataset(path)


def test_bytes_not_utf8_name_the_line(tmp_path):
    # used to escape as a bare UnicodeDecodeError naming neither file nor
    # line; line 250 lies past the first chunk a text reader decodes
    path = tmp_path / "d.jsonl"
    lines = [json.dumps(record(f"s{i}", [0.5])).encode() for i in range(300)]
    lines[249] = b'{"id": "r\xe9sum\xe9", "leaf": "a1", "features": [0.5]}'  # Latin-1
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert path.stat().st_size > 8192
    error = f"{path}:250: 'utf-8' codec can't decode byte 0xe9 in position 9"
    with pytest.raises(ValueError, match=re.escape(error)):
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


def test_sample_has_no_instance_dict():
    sample = sample_list(n=1)[0]
    assert not hasattr(sample, "__dict__")
    with pytest.raises(AttributeError):  # still frozen
        sample.leaf = "leaf1"
    assert sample == sample and sample != replace(sample) and hash(sample) == hash(sample)


def test_samples_of_one_label_share_its_string(tmp_path, parses):
    # whether they come from the sidecar or the parse
    path = tmp_path / "d.jsonl"
    save_dataset(path, sample_list(n=30))
    from_sidecar = load_dataset(path)
    (tmp_path / "d.jsonl.npz").unlink()
    parsed = load_dataset(path)
    assert len(parses) == 30
    for loaded in (from_sidecar, parsed):
        assert len({s.leaf for s in loaded}) == len({id(s.leaf) for s in loaded}) == 3


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
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: missing key 'features'")):
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
def test_bad_samples_saved_with_sidecar_name_their_line(tmp_path, parses, bad):
    # `save_dataset` refuses such samples; a sidecar recorded for their file
    # by other means fails its own checks, so the file is parsed
    from oracles import dataset_jsonl_oracle

    path = tmp_path / "d.jsonl"
    samples = sample_list()
    if bad == "nan":
        samples[3].features[1] = np.nan
        message = f"{path}:4: sample 's3' has non-finite features"
    else:
        samples[4] = LabeledSample("s1", "leaf1", samples[4].features)
        message = f"{path}:5: duplicate sample id 's1', first at {path}:2"
    path.write_bytes(dataset_jsonl_oracle(samples))
    rewrite_sidecar(path, ids=np.array([s.id for s in samples]), leaves=np.array([s.leaf for s in samples]),
                    features=np.stack([s.features for s in samples]))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_dataset(path)
    assert len(parses) == 6


@pytest.mark.parametrize("case", ["id-ending-in-nul"])
def test_sidecar_left_out_when_it_would_not_read_back(tmp_path, case):
    # numpy's str arrays drop a trailing NUL, so the JSONL alone holds the id
    path = tmp_path / "d.jsonl"
    samples = sample_list()
    samples[2] = LabeledSample("s2\0", "leaf2", samples[2].features)
    save_dataset(path, samples)
    assert [p.name for p in tmp_path.iterdir()] == ["d.jsonl"]
    assert load_dataset(path)[2].id == "s2\0"


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


# -- the writer's bytes against one json.dumps per record --------------------


def saved_bytes(tmp_path, samples):
    path = tmp_path / "d.jsonl"
    save_dataset(path, samples)
    return path.read_bytes()


@pytest.mark.parametrize("text", ['quote"d', "back\\slash", "caf\u00e9 \u6f22 \U0001f600",
                                  "tab\tnul\x00bell\x07", ""],
                         ids=["quote", "backslash", "non-ascii", "control", "empty"])
def test_saved_bytes_equal_per_record_json_for_any_id_and_leaf(tmp_path, text):
    from oracles import dataset_jsonl_oracle

    samples = sample_list(n=5)
    samples[1] = LabeledSample(text, "leaf1", samples[1].features)
    samples[3] = LabeledSample("s3", text, samples[3].features)
    assert saved_bytes(tmp_path, samples) == dataset_jsonl_oracle(samples)


# any character: non-ASCII, control characters and the JSON escapes
LABEL_CHARS = st.one_of(st.sampled_from(['"', "\\", "\x00", "\x07", "\t", "\x7f", "\u2028", "\u00e9",
                                         "\u6f22", "\U0001f600"]), st.characters(exclude_categories=["Cs"]))
LABEL = st.text(LABEL_CHARS, max_size=5)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(labels=st.lists(st.tuples(LABEL, LABEL), max_size=5, unique_by=lambda t: t[0]),
       nul=st.sampled_from(["", "id", "leaf"]), dim=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_saved_samples_load_back_with_and_without_sidecar(labels, nul, dim, seed):
    from oracles import dataset_jsonl_oracle

    # finite values from random bit patterns: both signs, every binary
    # exponent but 2047 (inf and NaN)
    rng = np.random.default_rng(seed)
    shape = (len(labels), dim)
    sign = rng.integers(0, 2, size=shape, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(0, 2047, size=shape, dtype=np.uint64) << np.uint64(52)
    features = (sign | exponent | rng.integers(0, 2**52, size=shape, dtype=np.uint64)).view(np.float64)
    samples = [LabeledSample(i, leaf, x) for (i, leaf), x in zip(labels, features)]
    if nul and samples:  # one id or leaf ends in NUL
        last = samples[-1]
        samples[-1] = replace(last, **{nul: getattr(last, nul) + "\0"})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        save_dataset(path, samples)
        assert path.read_bytes() == dataset_jsonl_oracle(samples)
        sidecar = Path(f"{path}.npz")
        assert sidecar.exists() == (not any(t.endswith("\0") for s in samples for t in (s.id, s.leaf)))
        for _ in ("with the sidecar", "without it"):
            loaded = load_dataset(path)
            assert [s.features.shape for s in loaded] == [(dim,)] * len(samples)
            assert as_tuples(loaded) == as_tuples(samples)
            sidecar.unlink(missing_ok=True)


@pytest.mark.parametrize("case", ["int-id", "none-leaf", "ragged", "str-features", "none-features",
                                  "nan-features", "repeated-id", "empty-rows", "empty-dataset",
                                  "long-row", "int-features", "float32-features", "numpy-str-labels",
                                  "many-rows"])
def test_saved_bytes_equal_per_record_json(tmp_path, monkeypatch, case):
    from oracles import dataset_jsonl_oracle

    samples = sample_list(n=6)
    rng = np.random.default_rng(4)
    refused = {  # samples `load_dataset` would refuse: nothing is written
        "int-id": (7, "leaf2", samples[2].features, "sample 7: 'id' is 7, not a string"),
        "none-leaf": ("s2", None, samples[2].features, "sample 's2': 'leaf' is None, not a string"),
        "ragged": ("s2", "leaf2", np.ones(3), "sample 's2' has features of shape (3,), expected (4,)"),
        # these were written, and refused with a bare numpy error or when read
        "str-features": ("s2", "leaf2", ["x", "y", "1", "2"], "sample 's2' has features that are not numbers"),
        "none-features": ("s2", "leaf2", [None, 1.0, 2.0, 3.0], "sample 's2' has non-finite features"),
        "nan-features": ("s2", "leaf2", np.full(4, np.nan), "sample 's2' has non-finite features"),
        "repeated-id": ("s1", "leaf2", samples[2].features, "duplicate sample id 's1'"),
    }
    if case in refused:
        *fields, message = refused[case]
        samples[2] = LabeledSample(*fields)
        # a later fault is not named
        samples[4] = {"none-features": LabeledSample("s4", "leaf2", np.full(4, np.inf)),
                      "nan-features": LabeledSample("s4", "leaf2", np.full(4, np.inf)),
                      "repeated-id": LabeledSample("s0", "leaf2", samples[4].features)}.get(
            case, LabeledSample("s4", "leaf2", rng.normal(size=9)))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_dataset(tmp_path / "d.jsonl", samples)
        assert list(tmp_path.iterdir()) == []
        return
    if case == "empty-rows":  # D = 0, which `load_dataset` reads back
        samples = [LabeledSample(s.id, s.leaf, np.zeros(0)) for s in samples]
    elif case == "empty-dataset":
        samples = []
    elif case == "long-row":  # rows longer than a kernel block, written one row per pass
        samples = [LabeledSample(s.id, s.leaf, rng.normal(size=5000) * 1e5) for s in samples]
    elif case == "int-features":
        samples[1] = LabeledSample("s1", "leaf1", [1, -2, 3, 0])
    elif case == "float32-features":
        samples = [LabeledSample(s.id, s.leaf, s.features.astype(np.float32)) for s in samples]
    elif case == "numpy-str-labels":  # a subclass of `str` is a string
        samples = [LabeledSample(np.str_(s.id), np.str_(s.leaf), s.features) for s in samples]
    else:  # rows that fill several kernel blocks
        samples = sample_list(n=700, dim=7)
    passes = []  # the values of each kernel pass
    kernel = hieremb.dataset._float_block
    monkeypatch.setattr(hieremb.dataset, "_float_block", lambda x: passes.append(len(x)) or kernel(x))
    assert saved_bytes(tmp_path, samples) == dataset_jsonl_oracle(samples)
    if case == "long-row":
        assert passes == [5000] * 6
    elif case == "many-rows":  # whole rows of at most 4,096 values
        assert passes == [585 * 7, 115 * 7]


@pytest.mark.parametrize("features, shape", [(np.float64(1.5), "()"), (np.ones((2, 4)), "(2, 4)"),
                                             (np.ones((1, 4)), "(1, 4)")],
                         ids=["scalar", "matrix", "row-matrix"])
@pytest.mark.parametrize("where", ["one", "all"])
def test_features_that_are_not_a_vector_are_refused(tmp_path, features, shape, where):
    # such a file was written before, as `"features": 1.5` or nested lists,
    # and `load_dataset` then refused it
    samples = sample_list(n=4)
    if where == "all":
        samples = [LabeledSample(s.id, s.leaf, features) for s in samples]
    else:
        samples[2] = LabeledSample("s2", "leaf2", features)
    first = samples[0 if where == "all" else 2].id
    with pytest.raises(ValueError, match=f"^{re.escape(f'sample {first!r} has features of shape {shape}, not a vector')}$"):
        save_dataset(tmp_path / "d.jsonl", samples)
    assert list(tmp_path.iterdir()) == []
