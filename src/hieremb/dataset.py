"""Dataset records and JSON Lines IO."""
from __future__ import annotations

import hashlib
import json
import os
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True, eq=False)
class LabeledSample:
    """One data point: unique id, fine-grained leaf label, dense feature vector."""

    id: str
    leaf: str
    features: np.ndarray


def load_dataset(path: str | Path) -> list[LabeledSample]:
    """Read samples from a JSON Lines file (one record per line).

    Every feature vector must be finite and as long as the first one. The
    samples come from the sidecar `<path>.npz` that `save_dataset` writes when
    it records the SHA-256 of the file's current bytes and passes the same
    checks; in every other case the file is parsed.
    """
    samples = _sidecar_samples(path)
    if samples is not None:
        return samples
    samples = []
    line_nos = []
    shape = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: malformed JSON record") from exc
            try:
                sample = LabeledSample(
                    id=str(record["id"]),
                    leaf=str(record["leaf"]),
                    features=np.asarray(record["features"], dtype=np.float64),
                )
            except KeyError as exc:
                raise ValueError(f"{path}:{line_no}: record lacks key {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed record: {exc}") from None
            shape = shape or sample.features.shape
            if sample.features.ndim != 1 or sample.features.shape != shape:
                raise ValueError(
                    f"{path}:{line_no}: sample {sample.id!r} has features of shape "
                    f"{sample.features.shape}, expected {shape}"
                )
            samples.append(sample)
            line_nos.append(line_no)
    # one pass over all features: a per-record isfinite call costs a sixth
    # of the record's json.loads
    finite = np.isfinite(features_matrix(samples)).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"{path}:{line_nos[bad]}: sample {samples[bad].id!r} has non-finite features")
    ids = [s.id for s in samples]
    if len(set(ids)) != len(ids):
        first_line: dict[str, int] = {}
        for sid, line_no in zip(ids, line_nos):
            seen = first_line.setdefault(sid, line_no)
            if seen != line_no:
                raise ValueError(
                    f"{path}:{line_no}: duplicate sample id {sid!r}, first at {path}:{seen}"
                )
    return samples


def _sidecar_samples(path: str | Path) -> list[LabeledSample] | None:
    """The samples of `path`'s sidecar, or None when it is missing, unreadable,
    malformed, recorded for other bytes or fails a check of `load_dataset`."""
    try:
        with np.load(f"{path}.npz", allow_pickle=False) as npz:
            digest, ids, leaves, features = (npz[k] for k in ("sha256", "ids", "leaves", "features"))
    except (OSError, EOFError, KeyError, ValueError, RuntimeError, zipfile.BadZipFile):
        # missing, damaged (a flipped zip flag raises RuntimeError) or holding pickles
        return None
    if not (
        features.dtype == np.float64 and features.ndim == 2 and np.isfinite(features).all()
        and ids.shape == leaves.shape == features.shape[:1] and digest.shape == ()
        and digest.dtype.kind == ids.dtype.kind == leaves.dtype.kind == "U"
    ):
        return None
    ids = ids.tolist()
    if len(set(ids)) != len(ids):
        return None
    sha256 = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            sha256.update(chunk)
    if sha256.hexdigest() != str(digest):
        return None
    return [LabeledSample(i, leaf, x) for i, leaf, x in zip(ids, leaves.tolist(), features)]


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """A file to write `path` through, in text (UTF-8) or binary `mode`. The
    bytes go to a sibling `<name>.partial` file that is renamed onto `path`
    only if the block completes, so a failed write leaves any earlier file
    whole and no partial file behind. Missing parent directories are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    text = {} if "b" in mode else {"newline": "", "encoding": "utf-8"}
    try:
        with open(partial, mode, **text) as fh:
            yield fh
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def save_dataset(path: str | Path, samples: list[LabeledSample]) -> None:
    """Write samples as JSON Lines; float values round-trip exactly.

    Then write the sidecar `load_dataset` reads instead of parsing: the ids,
    leaves and features matrix, and the SHA-256 of the bytes just written. It
    is left out when the samples would not read back from it as they are
    (ragged features, or an id or leaf that is not a string numpy keeps)."""
    sha256 = hashlib.sha256()
    with atomic_open(path, "wb") as fh:
        for start in range(0, len(samples), 64):  # per-line hash and write calls cost more
            records = (
                {"id": s.id, "leaf": s.leaf, "features": np.asarray(s.features, np.float64).tolist()}
                for s in samples[start:start + 64]
            )
            chunk = "".join(json.dumps(record) + "\n" for record in records).encode()
            sha256.update(chunk)
            fh.write(chunk)
    try:
        features = features_matrix(samples)
    except ValueError:
        return
    labels = [[s.id for s in samples], [s.leaf for s in samples]]
    ids, leaves = (np.array(column, dtype=str) for column in labels)
    if [ids.tolist(), leaves.tolist()] != labels:
        return
    with atomic_open(f"{path}.npz", "wb") as fh:
        np.savez(fh, sha256=np.array(sha256.hexdigest()), ids=ids, leaves=leaves, features=features)


def features_matrix(samples: list[LabeledSample]) -> np.ndarray:
    """Stack sample feature vectors into an (n, D) array, in list order."""
    if not samples:
        return np.zeros((0, 0))
    return np.array([s.features for s in samples], dtype=np.float64)
