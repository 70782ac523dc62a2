"""Hierarchy-aware training losses and their analytic gradients.

Four components are supported and combined by plain summation:

  T   hinge triplet loss on cosine distance
  L   weighted softmax cross-entropy over leaf classes
  PL  sum of weighted softmax cross-entropies, one per tree level
  B   mean of weighted binary cross-entropies over all non-root nodes

Cross-entropies are evaluated in log-sum-exp form straight from logits;
probabilities are never materialised near 0 or 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LOSS_NAMES = ("L", "PL", "B", "T")


@dataclass(frozen=True)
class LossConfig:
    active: frozenset[str]
    margin: float = 0.3

    def __post_init__(self):
        unknown = self.active - set(LOSS_NAMES)
        if unknown:
            raise ValueError(f"unknown loss components: {sorted(unknown)}")
        if not self.active:
            raise ValueError("at least one loss component must be active")
        if not self.margin > 0:
            raise ValueError(f"margin must be positive, got {self.margin}")


def combo_name(active: frozenset[str]) -> str:
    """Canonical display name, e.g. {'T', 'PL'} -> 'PL+T'."""
    return "+".join(name for name in LOSS_NAMES if name in active)


def parse_combo(text: str) -> frozenset[str]:
    parts = [p.strip() for p in text.split("+") if p.strip()]
    config = LossConfig(active=frozenset(parts))  # validates names
    if len(parts) != len(config.active):
        raise ValueError(f"repeated component in combination {text!r}")
    return config.active


@dataclass
class LossValue:
    """Uniformly weighted multi-task loss with per-component breakdown."""

    total: float
    per_component: dict[str, float] = field(default_factory=dict)


def combine(components: dict[str, float], active: frozenset[str]) -> LossValue:
    """Sum the component values; every active component must be present."""
    missing = active - set(components)
    if missing:
        raise ValueError(f"missing loss components: {sorted(missing)}")
    return LossValue(total=float(sum(components.values())), per_component=dict(components))


# -- embedding-space losses --------------------------------------------------


def triplet_loss_batch(
    emb: np.ndarray, margin: float, rows: np.ndarray | None = None, with_grad: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-triplet hinge values on cosine distance, and with `with_grad`
    their gradient with respect to the triplet rows (else None).

    The triplets are the rows of `emb`, or its `rows` when given, as three
    equal consecutive parts: B anchors, B positives, then B negatives. They
    are gathered into one working copy, and the (3B, E) gradient follows the
    same layout. The hinge subgradient at the kink is 0, so satisfied
    triplets stay inert.
    """
    unit = np.array(emb, dtype=np.float64) if rows is None else emb[rows]
    b = len(unit) // 3
    norms = np.sqrt(np.einsum("ij,ij->i", unit, unit))
    if np.any(norms == 0):
        raise ValueError("zero embedding vector (dead embedding)")
    unit /= norms[:, None]
    ua, up, un = unit[:b], unit[b : 2 * b], unit[2 * b :]
    sim_ap = np.einsum("ij,ij->i", ua, up)
    sim_an = np.einsum("ij,ij->i", ua, un)
    raw = -sim_ap + sim_an + margin  # d_ap - d_an + margin
    active = raw > 0
    values = np.where(active, raw, 0.0)
    if not with_grad:
        return values, None
    na, npos, nn = norms[:b, None], norms[b : 2 * b, None], norms[2 * b :, None]
    scale = active.astype(np.float64)[:, None]
    grad = np.empty_like(unit)
    grad[:b] = scale * ((un - up) + (sim_ap - sim_an)[:, None] * ua) / na
    grad[b : 2 * b] = scale * -(ua - sim_ap[:, None] * up) / npos
    grad[2 * b :] = scale * (ua - sim_an[:, None] * un) / nn
    return values, grad


# -- classification losses ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class SoftmaxSegments:
    """Consecutive softmax heads over the columns of one logit matrix, as
    `softmax_cross_entropy_batch` needs them: every head's width and first
    column, the head of every column, and the heads' class weights end to
    end. Built once per head layout (`of`)."""

    widths: np.ndarray
    starts: np.ndarray
    head_of: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, weights: list[np.ndarray]) -> "SoftmaxSegments":
        """Segments for heads with these class weights, in column order."""
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        widths = np.array([w.size for w in weights], dtype=np.intp)
        if any(w.ndim != 1 for w in weights) or not widths.all():
            shapes = [w.shape for w in weights]
            raise ValueError(f"class weights must be non-empty vectors, got {shapes}")
        return cls(
            widths=widths,
            starts=np.cumsum(widths) - widths,
            head_of=np.repeat(np.arange(len(weights)), widths),
            weights=np.concatenate(weights),
        )


def softmax_cross_entropy_batch(
    logits: np.ndarray,
    targets: np.ndarray,
    segments: SoftmaxSegments,
    with_grad: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Weighted cross-entropy per row and head of (n, C) logits, and with
    `with_grad` the logit gradients (else None).

    The columns split into the consecutive heads of `segments`; `targets`
    (n, heads) holds each row's class index within every head, and the
    values come back as (n, heads). Each row's loss and gradient in a head
    are scaled by the weight of its true class there. Every head's
    log-sum-exp comes from one segmented pass over the columns.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.intp)
    n, n_columns = logits.shape
    widths, starts, head_of = segments.widths, segments.starts, segments.head_of
    if segments.weights.size != n_columns:
        raise ValueError(f"expected {n_columns} class weights, got heads of {widths.tolist()}")
    if targets.shape != (n, len(widths)):
        raise ValueError(f"expected ({n}, {len(widths)}) targets, got {targets.shape}")
    if targets.size and ((targets < 0) | (targets >= widths)).any():
        raise ValueError("target index out of range")
    # work column-major, (C, n): each head's reductions then run over whole
    # contiguous rows of n values
    true_columns = (targets + starts).T
    rows = np.arange(n)
    w = segments.weights[true_columns]  # (heads, n) true-class weights
    log_probs = logits.T.copy()  # C order
    log_probs -= np.maximum.reduceat(log_probs, starts, axis=0)[head_of]
    grad = np.exp(log_probs)  # the gradient's buffer holds the exponentials first
    log_probs -= np.log(np.add.reduceat(grad, starts, axis=0))[head_of]
    values = (-w * log_probs[true_columns, rows]).T
    if not with_grad:
        return values, None
    np.exp(log_probs, out=grad)
    grad *= w[head_of]
    grad[true_columns, rows] -= w
    return values, grad.T


def binary_cross_entropy_nodes_batch(
    logits: np.ndarray, membership: np.ndarray, weights: np.ndarray, with_grad: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Node-averaged weighted binary cross-entropy per row, and with
    `with_grad` the logit gradients (else None).

    Rows are samples, columns are the non-root tree nodes; the class weight
    multiplies the positive (member) term only. Member entries are a few per
    row (a leaf's root path), so they are negated and weighted in place by
    ufuncs masked with `where=member`; no branch is taken per element.
    """
    logits = np.asarray(logits, dtype=np.float64)
    member = np.asarray(membership, dtype=bool)
    weights = np.asarray(weights, dtype=np.float64)
    if logits.shape != member.shape or logits.shape[-1] != weights.shape[0]:
        raise ValueError("logits, membership, and weights shapes do not line up")
    n_nodes = logits.shape[-1]
    # softplus with one exp: -log s(z) = max(-z, 0) + log1p(e) and
    # -log(1 - s(z)) = max(z, 0) + log1p(e), where e = exp(-|z|) <= 1
    e = np.exp(-np.abs(logits))
    terms = np.negative(logits, out=logits.copy(), where=member)
    np.maximum(terms, 0.0, out=terms)
    terms += np.log1p(e)
    np.multiply(terms, weights, out=terms, where=member)
    values = terms.sum(axis=-1) / n_nodes
    if not with_grad:
        return values, None
    # s(z) is 1 / (1 + e) for z >= 0 and e / (1 + e) below; members get
    # w (s(z) - 1)
    grad = np.maximum(e, logits >= 0)
    grad *= 1 / (1 + e)
    np.subtract(grad, 1.0, out=grad, where=member)
    np.multiply(grad, weights, out=grad, where=member)
    grad /= n_nodes
    return values, grad


def class_weights(counts: dict) -> dict:
    """Inverse-frequency weights, normalised to mean 1 over the classes."""
    if not counts:
        raise ValueError("no classes to weight")
    bad = sorted(str(k) for k, v in counts.items() if v < 1)
    if bad:
        raise ValueError(f"classes with zero count: {bad}")
    inverse = {key: 1.0 / value for key, value in counts.items()}
    mean = sum(inverse.values()) / len(inverse)
    return {key: value / mean for key, value in inverse.items()}
