"""Hierarchy-aware embedding learning.

Samples generalised triplets from a label tree, trains a small embedder
with hybrid losses (triplet, binary, per-level, leaf), and evaluates how
well the embedding space matches the tree, including generalisation to
unseen classes.
"""

from .datasplit import make_fold_splits
from .losses import LossConfig
from .model import ModelConfig, fit
from .synthdata import SynthConfig, generate

__version__ = "0.1.0"

__all__ = ["LossConfig", "ModelConfig", "SynthConfig", "fit", "generate", "make_fold_splits"]
