"""Hierarchy-aware embedding learning.

Samples generalised triplets from a label tree, trains a small embedder
with hybrid losses (triplet, binary, per-level, leaf), and evaluates how
well the embedding space matches the tree, including generalisation to
unseen classes.
"""

from .dataset import LabeledSample, load_dataset, save_dataset
from .datasplit import (
    SplitAssignment,
    is_seen_node,
    lowest_seen_ancestor,
    make_fold_splits,
    pruned_seen_taxonomy,
    split_leaves,
    split_within_leaf,
)
from .losses import LossConfig, LossValue
from .metrics import MetricsReport, Ranking
from .model import EmbeddingModel, ModelConfig, fit
from .sampler import NodeTriple, TripletInstance, count_node_triples, enumerate_node_triples
from .synthdata import SynthConfig, generate
from .taxonomy import Taxonomy, TaxonomyError, TaxonomyNode, load_taxonomy, parse_taxonomy

__version__ = "0.1.0"

__all__ = [
    "EmbeddingModel",
    "LabeledSample",
    "LossConfig",
    "LossValue",
    "MetricsReport",
    "ModelConfig",
    "NodeTriple",
    "Ranking",
    "SplitAssignment",
    "SynthConfig",
    "Taxonomy",
    "TaxonomyError",
    "TaxonomyNode",
    "TripletInstance",
    "count_node_triples",
    "enumerate_node_triples",
    "fit",
    "generate",
    "is_seen_node",
    "load_dataset",
    "load_taxonomy",
    "lowest_seen_ancestor",
    "make_fold_splits",
    "parse_taxonomy",
    "pruned_seen_taxonomy",
    "save_dataset",
    "split_leaves",
    "split_within_leaf",
]
