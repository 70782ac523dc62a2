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


def combine(components: dict[str, float], active: frozenset[str] | None = None) -> LossValue:
    """Sum the component values; every active component must be present."""
    if active is not None:
        missing = active - set(components)
        if missing:
            raise ValueError(f"missing loss components: {sorted(missing)}")
    return LossValue(total=float(sum(components.values())), per_component=dict(components))


# -- embedding-space losses --------------------------------------------------


def unit_rows(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalise; a zero row means a dead embedding and is an error."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero embedding vector (dead embedding)")
    return vectors / norms[:, None], norms


def triplet_loss_batch(
    emb_anchor: np.ndarray,
    emb_positive: np.ndarray,
    emb_negative: np.ndarray,
    margin: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-triplet hinge values and gradients for (B, E) embedding blocks.

    The hinge subgradient at the kink is 0, so satisfied triplets stay inert.
    """
    b = len(emb_anchor)
    unit, norms = unit_rows(np.concatenate([emb_anchor, emb_positive, emb_negative]))
    ua, up, un = unit[:b], unit[b : 2 * b], unit[2 * b :]
    na, npos, nn = norms[:b], norms[b : 2 * b], norms[2 * b :]
    sim_ap = (ua * up).sum(axis=1)
    sim_an = (ua * un).sum(axis=1)
    raw = -sim_ap + sim_an + margin  # d_ap - d_an + margin
    active = raw > 0
    values = np.where(active, raw, 0.0)
    scale = active.astype(np.float64)[:, None]
    grad_a = scale * ((un - up) + (sim_ap - sim_an)[:, None] * ua) / na[:, None]
    grad_p = scale * -(ua - sim_ap[:, None] * up) / npos[:, None]
    grad_n = scale * (ua - sim_an[:, None] * un) / nn[:, None]
    return values, grad_a, grad_p, grad_n


# -- classification losses ---------------------------------------------------


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_cross_entropy_batch(
    logits: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted cross-entropy per row of (n, C) logits, plus logit gradients.

    Each row's loss and gradient are scaled by the weight of its true class.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.intp)
    weights = np.asarray(weights, dtype=np.float64)
    n, n_classes = logits.shape
    if weights.shape != (n_classes,):
        raise ValueError(f"expected {n_classes} class weights, got {weights.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise ValueError("target index out of range")
    log_probs = log_softmax(logits)
    rows = np.arange(n)
    w = weights[targets]
    values = -w * log_probs[rows, targets]
    grad = w[:, None] * np.exp(log_probs)
    grad[rows, targets] -= w
    return values, grad


def binary_cross_entropy_nodes_batch(
    logits: np.ndarray, membership: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Node-averaged weighted binary cross-entropy per row, plus gradients.

    Rows are samples, columns are the non-root tree nodes; the class weight
    multiplies the positive (member) term only.
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
    softplus_tail = np.log1p(e)
    terms = np.where(
        member,
        weights * (np.maximum(-logits, 0.0) + softplus_tail),
        np.maximum(logits, 0.0) + softplus_tail,
    )
    values = terms.sum(axis=-1) / n_nodes
    inverse = 1.0 / (1.0 + e)
    probs = np.where(logits >= 0, inverse, e * inverse)  # s(z)
    grad = np.where(member, weights * (probs - 1.0), probs) / n_nodes
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
