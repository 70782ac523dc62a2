"""Synthetic hierarchical datasets.

A random label tree is grown level by level, every node gets a Gaussian
mean offset from its parent with a scale that decays with depth, and each
leaf emits noisy copies of its mean. Feature distance therefore mirrors
tree distance, which is what the hierarchy-aware losses need to exploit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledSample
from .taxonomy import Taxonomy, parse_taxonomy

Range = tuple[int, int]


@dataclass(frozen=True)
class SynthConfig:
    """Generator profile.

    `depth` counts node levels including the root, so depth 4 means three
    branching levels below the root. `branching` is one (lo, hi) range per
    level below the root, or a single range reused for all of them.
    """

    depth: int = 4
    branching: tuple[Range, ...] = ((3, 4),)
    samples_per_leaf: Range = (20, 40)
    feature_dim: int = 32
    offset_scale: float = 1.0
    decay: float = 0.6
    noise: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.feature_dim < 2:
            raise ValueError("feature_dim must be at least 2")
        for name in ("offset_scale", "noise"):
            if not 0 <= (value := getattr(self, name)) < np.inf:  # `nan < 0` is False
                raise ValueError(f"scales must be non-negative and finite: {name} is {value}")
        if not 0 < self.decay <= 1:
            raise ValueError("decay must be in (0, 1]")
        ranges = self.level_branching()
        for lo, hi in ranges + [self.samples_per_leaf]:
            if not 1 <= lo <= hi:
                raise ValueError(f"impossible range ({lo}, {hi})")

    def level_branching(self) -> list[Range]:
        """Branching range per level below the root."""
        n_levels = self.depth - 1
        ranges = [tuple(r) for r in self.branching]
        if len(ranges) == 1:
            ranges = ranges * n_levels
        if len(ranges) != n_levels:
            raise ValueError(
                f"branching needs 1 or {n_levels} ranges for depth {self.depth}, "
                f"got {len(ranges)}"
            )
        return ranges


def generate(config: SynthConfig) -> tuple[Taxonomy, list[LabeledSample]]:
    """Build the tree and its samples; identical seeds give identical output.

    Draw order is fixed: branch counts level by level, then node mean
    offsets in pre-order, then per-leaf sample counts and features in
    pre-order leaf order.
    """
    rng = np.random.default_rng(config.seed)
    root_doc: dict = {"name": "root"}
    frontier = [root_doc]
    for lo, hi in config.level_branching():
        next_frontier = []
        for node_doc in frontier:
            n_children = int(rng.integers(lo, hi + 1))
            children = [
                {"name": f"{node_doc['name']}.{k}"} for k in range(n_children)
            ]
            node_doc["children"] = children
            next_frontier.extend(children)
        frontier = next_frontier
    taxonomy = parse_taxonomy(root_doc)

    dim = config.feature_dim
    means = np.zeros((len(taxonomy), dim))
    for nid in range(1, len(taxonomy)):
        scale = config.offset_scale * config.decay ** (taxonomy.depth(nid) - 1)
        means[nid] = means[taxonomy.parent(nid)] + scale * rng.normal(size=dim)

    samples = []
    lo, hi = config.samples_per_leaf
    for leaf in sorted(taxonomy.leaf_ids):
        count = int(rng.integers(lo, hi + 1))
        name = taxonomy.name(leaf)
        block = means[leaf] + config.noise * rng.normal(size=(count, dim))  # a row per sample
        samples += [LabeledSample(f"s{len(samples) + k:06d}", name, row) for k, row in enumerate(block)]
    return taxonomy, samples
