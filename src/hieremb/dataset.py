"""Dataset records and JSON Lines IO."""
from __future__ import annotations

import hashlib
import json
import math
import os
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np


@dataclass(frozen=True, eq=False, slots=True)
class LabeledSample:
    """One data point: unique id, fine-grained leaf label, dense feature vector."""

    id: str
    leaf: str
    features: np.ndarray


def load_dataset(path: str | Path) -> list[LabeledSample]:
    """Read samples from a JSON Lines file: per line one UTF-8 JSON object
    with string `id` and `leaf` and a list of numbers as `features`, every
    feature vector finite and as long as the first; a fault raises a
    `ValueError` naming the file and the line.

    The samples come from the sidecar `<path>.npz` that `save_dataset`
    writes when it records the SHA-256 of the file's current bytes and
    passes the same checks; in every other case the file is parsed.
    """
    samples = _sidecar_samples(path)
    if samples is not None:
        return samples
    samples = []
    line_nos = []
    shape = None
    labels: dict[str, str] = {}  # one string per distinct label, shared by its samples
    with open(path, "rb") as fh:  # each line is decoded on its own, so a bad byte is placed
        for line_no, line in enumerate(fh, start=1):
            try:
                line = line.decode().strip()
                if not line:
                    continue
                record = json.loads(line)
                if type(record) is not dict:
                    raise TypeError("not a JSON object")
                sid, leaf, features = record["id"], record["leaf"], record["features"]
                if type(sid) is not str or type(leaf) is not str:
                    key = "id" if type(sid) is not str else "leaf"
                    raise TypeError(f"{key!r} is {record[key]!r}, not a string")
                if type(features) is not list or not set(map(type, features)) <= {float, int}:
                    raise TypeError(f"sample {sid!r} has features that are not a list of numbers")
                sample = LabeledSample(sid, labels.setdefault(leaf, leaf),
                                       np.asarray(features, dtype=np.float64))
                shape = shape or sample.features.shape
                if sample.features.shape != shape:
                    raise ValueError(f"sample {sid!r} has features of shape "
                                     f"{sample.features.shape}, expected {shape}")
            except (KeyError, TypeError, ValueError, OverflowError) as err:
                raise named(f"{path}:{line_no}", err) from None
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
    labels: dict[str, str] = {}  # `tolist` makes a string per entry; keep one per label
    return [LabeledSample(i, labels.setdefault(leaf, leaf), x)
            for i, leaf, x in zip(ids, leaves.tolist(), features)]


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


def read_json(path: str | Path, error: type[ValueError] = ValueError, **options) -> dict:
    """The top-level object of the UTF-8 JSON file at `path`, parsed with
    `json.load` `options`; any other content raises `error` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, **options)
    except ValueError as err:  # not JSON, or not UTF-8
        raise error(f"{path}: not a JSON file: {err}") from None
    if not isinstance(data, dict):
        raise error(f"{path}: not a JSON object")
    return data


def named(where: str | Path, err: Exception | str, error: type[ValueError] = ValueError) -> ValueError:
    """`err` (an error or a fault's text), met while reading `where` (a path,
    `path:line` or a config key), as an `error` naming it, a `KeyError` as
    the missing key; raise it `from None`."""
    fault = f"missing key {err}" if isinstance(err, KeyError) else err
    return error(f"{where}: {fault}")


def save_dataset(path: str | Path, samples: list[LabeledSample]) -> None:
    """Write samples as JSON Lines, each line the bytes `json.dumps` writes
    for the record `{"id", "leaf", "features"}`, so float values round-trip
    exactly. A sample `load_dataset` would refuse (an id or leaf not a `str`,
    features not a vector of finite numbers as long as the first sample's, an
    id already used) raises a `ValueError` naming it, and nothing is written.

    Then write the sidecar `load_dataset` reads instead of parsing: the ids,
    leaves and features matrix, and the SHA-256 of the bytes just written. It
    is left out when an id or leaf ends in NUL, which numpy's str arrays drop."""
    ids, leaves = [s.id for s in samples], [s.leaf for s in samples]
    if not all(issubclass(t, str) for t in {*map(type, ids), *map(type, leaves)}):
        s, key = next((s, k) for s in samples for k in ("id", "leaf") if not isinstance(getattr(s, k), str))
        raise ValueError(f"sample {s.id!r}: {key!r} is {getattr(s, key)!r}, not a string")
    try:
        features = features_matrix(samples)
        if features.ndim != 2:
            raise ValueError("not all vectors")
    except (TypeError, ValueError):  # name the first sample at fault
        first = None
        for s in samples:
            try:
                shape = np.asarray(s.features, np.float64).shape
            except (TypeError, ValueError):
                raise ValueError(f"sample {s.id!r} has features that are not numbers") from None
            if len(shape) != 1:
                raise ValueError(f"sample {s.id!r} has features of shape {shape}, not a vector") from None
            if shape != (first := first or shape):
                raise ValueError(f"sample {s.id!r} has features of shape {shape}, expected {first}") from None
    finite = np.isfinite(features).all(axis=1)  # a `None` feature reads as NaN
    if not finite.all():
        raise ValueError(f"sample {ids[int(np.argmin(finite))]!r} has non-finite features")
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        raise ValueError(f"duplicate sample id {next(i for i in ids if i in seen or seen.add(i))!r}")
    rows = max(1, _BLOCK // max(features.shape[1], 1))  # rows per kernel pass
    sha256 = hashlib.sha256()
    with atomic_open(path, "wb") as fh:
        for row in range(0, len(samples), rows):
            block = features[row:row + rows]
            text, lengths = _float_block(block.ravel())
            ends = np.cumsum(lengths.reshape(block.shape).sum(axis=1)).tolist()  # of each row's text
            # a row's values, less the last ", ", are text[a:e - 2]; rows of no values leave `text` empty
            chunk = b"".join(
                b'{"id": %b, "leaf": %b, "features": [%b]}\n'
                % (encode_basestring_ascii(i).encode(), encode_basestring_ascii(leaf).encode(), text[a:e - 2])
                for i, leaf, a, e in zip(ids[row:row + rows], leaves[row:row + rows], [0, *ends], ends)
            )
            sha256.update(chunk)
            fh.write(chunk)
    id_array, leaf_array = np.array(ids, dtype=str), np.array(leaves, dtype=str)
    if id_array.tolist() == ids and leaf_array.tolist() == leaves:  # no NUL was dropped
        with atomic_open(f"{path}.npz", "wb") as fh:
            np.savez(fh, sha256=np.array(sha256.hexdigest()), ids=id_array, leaves=leaf_array, features=features)


# -- float64 values as JSON text, byte for byte as `json.dumps` writes them -----

_BLOCK = 4096  # values per kernel pass, so no array it makes reaches 128 KiB; only one longer row takes more
_POW10 = np.array([float(10**k) for k in range(23)])  # exact up to 10**22
_QUADS = np.frombuffer(b"".join(b"%04d" % k for k in range(10_000)), np.uint32)  # "0000" ... "9999"
# a value's slot: its text right-aligned in 24 bytes, then the separator
_SLOT = np.frombuffer(b"0" * 24 + b", ", np.uint8)
# row c - 2: 255 in the columns after a point at column c; row c: True from column c on
_AFTER_POINT = np.where(np.arange(26) > np.arange(2, 25)[:, None], 255, 0).astype(np.uint8)
_FROM = np.arange(26) >= np.arange(26)[:, None]


def _float_block(x: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The float64 values `x` as `json.dumps` writes each, each followed by
    ", ", as one byte string; and each value's length in it, separator
    included. Values the shortest-digits search does not settle go through
    `json.dumps`.

    The per-column choices are masks over whole (n, 26) slots, taken from
    tables: numpy runs an operation on whole slots as one flat loop, and on
    column ranges of them row by row, several times slower."""
    exact, digits, precision, point = _shortest_digits(x)
    n = len(x)
    quads = np.empty((n, 5), np.uint32)  # `digits` as 20 decimal digits
    for k in range(4, 0, -1):
        higher = digits // 10_000
        quads[:, k] = _QUADS[digits - higher * 10_000]
        digits = higher
    quads[:, 0] = _QUADS[digits]
    significand = quads.view(np.uint8)[:, 3:]  # 17 digits, the last `precision` significant
    # the 17 digits end at column 23; those before the point, `whole` of them,
    # stand one column further left, and the point at column 6 + whole
    whole = point + 17 - precision
    slot, fraction = np.empty((n, len(_SLOT)), np.uint8), np.empty((n, len(_SLOT)), np.uint8)
    slot[:], fraction[:] = _SLOT, _SLOT
    slot[:, 6:23], fraction[:, 7:24] = significand, significand
    slot ^= (slot ^ fraction) & np.take(_AFTER_POINT, whole + 4, axis=0)
    # the text starts at the first significant digit, or at the "0" before
    # the point; the sign, if any, one column before
    start = 6 + np.minimum(17 - precision, whole - 1)
    flat, rows = slot.reshape(-1), np.arange(0, slot.size, len(_SLOT))
    flat[rows + 6 + whole] = ord(".")
    flat[rows + start - 1] = ord("-")
    start -= x < 0
    other = np.flatnonzero(~exact)
    if len(other):
        # json.dumps writes a finite float as its repr, but at ten times the cost
        text = [repr(v) if math.isfinite(v) else json.dumps(v) for v in x[other].tolist()]
        slot[other] = np.frombuffer("".join(t.rjust(24) + ", " for t in text).encode(),
                                    np.uint8).reshape(-1, len(_SLOT))
        start[other] = [24 - len(t) for t in text]
    return slot[np.take(_FROM, start, axis=0)].tobytes(), len(_SLOT) - start


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """For each float64 in `x`: whether it is settled here; the shortest
    decimal that reads back as |x|, as the integer of its significant digits;
    their count (15-17); and the number of digits before its decimal point
    (for |x| < 1, minus the number of zeros right after the point).

    |x| is scaled by 10**s into [1e16, 1e17), exactly, as the int64 `n` plus
    `lo` in [0, 1). The nearest multiple of 10**(17 - p) reads back as x when
    its gap to the scaled value is below the scaled half ulp `half`. Left
    unsettled: zero, non-finite values and |x| outside [1e-4, 1e14); powers
    of two, whose rounding interval is lopsided; a half-way candidate; a gap
    within 1e-9 of `half` (the gap's float error is below 1e-12); and a value
    whose 14-digit candidate already reads back."""
    a = np.abs(x)
    exact = (a >= 1e-4) & (a < 1e14)  # False for NaN
    a[~exact] = 1.0  # keep non-finite and subnormal values out of the arithmetic
    mantissa, exponent = np.frexp(a)
    s = 16 - np.floor(np.log10(a)).astype(np.intp)
    n, lo = _scaled(a, s)
    shift = (n < 10**16).view(np.int8) - (n >= 10**17).view(np.int8)
    if shift.any():  # log10 rounds to a power of ten just below one
        s += shift
        n, lo = _scaled(a, s)
    half = np.ldexp(_POW10[s], exponent - 54)
    exact &= (n >= 10**16) & (n < 10**17) & (mantissa != 0.5) & (lo != 0.5)
    r, precision = (n % 1000).astype(np.float64), np.full(len(n), 17)
    for unit in (10.0, 100.0, 1000.0):
        # the scaled value less the multiple of `unit` below it, rounded: it
        # reads unit / 2 for a tie and for too near a tie to tell the side
        below = r - unit * np.floor(r / unit) + lo  # np.fmod is ten times slower
        gap = np.minimum(below, unit - below)
        exact &= (below != unit / 2) & (np.abs(gap - half) > 1e-9)
        precision -= gap < half
    exact &= precision > 14
    unit = 10 ** (17 - precision)
    digits = (n + unit // 2) // unit + ((unit == 1) & (lo > 0.5))  # the nearest multiple
    return exact, digits, precision, 17 - s


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`a * 10**s` as an int64 `n` plus a float64 `lo` in [0, 1), exactly:
    Dekker's product of Veltkamp-split factors (numpy has no fused
    multiply-add) gives the rounded product and its error."""
    scale = _POW10[s]
    product = a * scale
    (ah, al), (sh, sl) = _split(a), _split(scale)
    error = ((ah * sh - product) + ah * sl + al * sh) + al * sl
    whole = np.floor(error)
    return product.astype(np.int64) + whole.astype(np.int64), error - whole


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`v` as a high part of at most 26 significant bits plus the rest."""
    c = v * 134217729.0  # 2**27 + 1
    high = c - (c - v)
    return high, v - high


def features_matrix(samples: list[LabeledSample]) -> np.ndarray:
    """Stack sample feature vectors into an (n, D) array, in list order."""
    if not samples:
        return np.zeros((0, 0))
    return np.array([s.features for s in samples], dtype=np.float64)
