"""Dataset records and JSON Lines IO."""
from __future__ import annotations

import json
import os
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

    Every feature vector must be finite and as long as the first one.
    """
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


@contextmanager
def atomic_open(path: str | Path):
    """A text file to write `path` through. The text goes to a sibling
    `<name>.partial` file that is renamed onto `path` only if the block
    completes, so a failed write leaves any earlier file whole and no
    partial file behind. Missing parent directories are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def save_dataset(path: str | Path, samples: list[LabeledSample]) -> None:
    """Write samples as JSON Lines; float values round-trip exactly."""
    with atomic_open(path) as fh:
        for s in samples:
            features = np.asarray(s.features, dtype=np.float64).tolist()
            record = {"id": s.id, "leaf": s.leaf, "features": features}
            fh.write(json.dumps(record) + "\n")


def features_matrix(samples: list[LabeledSample]) -> np.ndarray:
    """Stack sample feature vectors into an (n, D) array, in list order."""
    if not samples:
        return np.zeros((0, 0))
    return np.stack([s.features for s in samples]).astype(np.float64)
