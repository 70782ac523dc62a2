"""Label tree representation and structural queries.

The tree is immutable after construction. Node ids are assigned in
pre-order over the input document, so parsing the same document twice
yields identical trees; every "iterate over nodes" loop below runs in
ascending id order, which is exactly pre-order.
"""
from __future__ import annotations

import json
import numbers
from pathlib import Path

import numpy as np

from .dataset import LabeledSample, atomic_open


class TaxonomyError(ValueError):
    """Invalid tree document or invalid structural query."""


class Taxonomy:
    """Rooted tree of labels; leaf names form the fine-grained label set."""

    def __init__(self, names: list[str], parents: list[int | None]):
        if not names:
            raise TaxonomyError("empty taxonomy")
        if len(names) != len(parents):
            raise TaxonomyError("names/parents length mismatch")
        if parents[0] is not None or any(p is None for p in parents[1:]):
            raise TaxonomyError("exactly one root (node 0) is required")
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise TaxonomyError(f"duplicate node names: {dupes}")
        children: list[list[int]] = [[] for _ in names]
        paths = [[0]]  # each node's root-to-node path
        for nid, parent in enumerate(parents[1:], start=1):
            if not 0 <= parent < nid:
                # pre-order guarantees parents precede children
                raise TaxonomyError(f"node {nid} has invalid parent {parent}")
            children[parent].append(nid)
            paths.append(paths[parent] + [nid])
        self._names = list(names)
        self._parents = list(parents)
        self._children = [tuple(c) for c in children]
        self._depths = [len(path) - 1 for path in paths]
        leaves: list[list[int]] = [[] for _ in names]
        for nid, path in enumerate(paths):  # ascending ids keep each list sorted
            if not children[nid]:
                for node in path:
                    leaves[node].append(nid)
        self._leaves = [tuple(under) for under in leaves]
        # the longest leaf-to-leaf path bends at the node whose two deepest
        # child subtrees reach furthest down together
        deepest = [max(self._depths[leaf] for leaf in under) for under in self._leaves]
        diameter = 0
        for nid, kids in enumerate(children):
            if len(kids) > 1:
                reach = sorted(deepest[c] for c in kids)
                diameter = max(diameter, reach[-1] + reach[-2] - 2 * self._depths[nid])
        self._height_and_diameter = (deepest[0], diameter)
        # (nodes, height + 1): column d of a node's row is its ancestor at
        # depth d, or the node itself past its own depth
        width = max(self._depths) + 1
        self._ancestors = np.array(
            [path + path[-1:] * (width - len(path)) for path in paths], dtype=np.intp
        )
        self._name_to_id = {name: nid for nid, name in enumerate(names)}
        self.root = 0
        self.leaf_ids = frozenset(self._leaves[0])

    def __len__(self) -> int:
        return len(self._names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Taxonomy)
            and self._names == other._names
            and self._parents == other._parents
        )

    def name(self, node_id: int) -> str:
        self._check_id(node_id)
        return self._names[node_id]

    def id_of(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise TaxonomyError(f"unknown node name {name!r}") from None

    def parent(self, node_id: int) -> int | None:
        self._check_id(node_id)
        return self._parents[node_id]

    def children(self, node_id: int) -> tuple[int, ...]:
        self._check_id(node_id)
        return self._children[node_id]

    def is_leaf(self, node_id: int) -> bool:
        self._check_id(node_id)
        return not self._children[node_id]

    def depth(self, node_id: int) -> int:
        """Number of edges on the root-to-node path; the root has depth 0."""
        self._check_id(node_id)
        return self._depths[node_id]

    def lca(self, n1: int, n2: int) -> int:
        """Deepest node that is an ancestor-or-self of both arguments."""
        self._check_id(n1)
        self._check_id(n2)
        # two rows agree exactly on their shared root path
        row1, row2 = self._ancestors[n1], self._ancestors[n2]
        return int(row1[np.count_nonzero(row1 == row2) - 1])

    def is_ancestor_or_self(self, ancestor: int, descendant: int) -> bool:
        self._check_id(ancestor)
        self._check_id(descendant)
        return bool(self._ancestors[descendant, self._depths[ancestor]] == ancestor)

    def path_to_root(self, node_id: int) -> list[int]:
        """Nodes from the argument up to and including the root."""
        self._check_id(node_id)
        return self._ancestors[node_id, self._depths[node_id]::-1].tolist()

    def leaf_ancestors(self, leaves: list[int]) -> np.ndarray:
        """(len(leaves), height + 1) ids whose column d is each leaf's class at
        tree level d: its ancestor at depth d, or the leaf itself past its own
        depth. Column 0 is the root and the last column the leaf."""
        ids = np.asarray(leaves)
        if ids.ndim != 1 or ids.dtype.kind not in "biu" or (
            ids.size and not 0 <= ids.min() <= ids.max() < len(self._names)
        ):
            for leaf in leaves:  # names the first invalid id
                self._check_id(leaf)
        return self._ancestors[ids.astype(np.intp)]

    def height_and_diameter(self) -> tuple[int, int]:
        """Longest root-to-leaf path and longest leaf-to-leaf path, in edges."""
        return self._height_and_diameter

    def leaves_under(self, node_id: int) -> tuple[int, ...]:
        """Leaf ids in the subtree rooted at the node (ascending id order)."""
        self._check_id(node_id)
        return self._leaves[node_id]

    def levels_with_multiple_classes(self) -> list[tuple[int, list[int]]]:
        """Classification levels of the tree.

        For each depth >= 1, the class set holds the nodes at that depth plus
        every leaf that bottoms out above it, so each sample keeps exactly one
        target per level. Levels whose class set has fewer than two entries
        are dropped; the deepest retained level's class set is the leaf set.
        """
        classes = self._ancestors[sorted(self.leaf_ids)]
        levels = [(d, sorted(set(classes[:, d].tolist()))) for d in range(1, classes.shape[1])]
        return [(level, class_set) for level, class_set in levels if len(class_set) > 1]

    def leaf_id_for(self, sample: LabeledSample) -> int:
        leaf_id = self._name_to_id.get(sample.leaf)
        if leaf_id is None or self._children[leaf_id]:
            label = "unknown leaf label" if leaf_id is None else "an internal node as leaf label"
            raise TaxonomyError(f"sample {sample.id!r} has {label} {sample.leaf!r}")
        return leaf_id

    def to_document(self) -> dict:
        """Nested name/children form, inverse of parse_taxonomy."""

        def build(nid: int) -> dict:
            doc: dict = {"name": self._names[nid]}
            if self._children[nid]:
                doc["children"] = [build(c) for c in self._children[nid]]
            return doc

        return build(self.root)

    def _check_id(self, node_id: int) -> None:
        if not isinstance(node_id, numbers.Integral) or not 0 <= node_id < len(self._names):
            raise TaxonomyError(f"invalid node id {node_id!r}")


def parse_taxonomy(document: dict) -> Taxonomy:
    """Build a Taxonomy from a nested name/children document.

    Node ids follow a pre-order traversal with children kept in input order.
    """
    if not isinstance(document, dict) or not document.get("name"):
        raise TaxonomyError("document must be a single object with a non-empty 'name'")
    names: list[str] = []
    parents: list[int | None] = []
    seen_objects: set[int] = set()
    stack: list[tuple[dict, int | None, int]] = [(document, None, 0)]
    while stack:
        node_doc, parent, index = stack.pop()
        if not isinstance(node_doc, dict) or "name" not in node_doc:
            raise TaxonomyError(
                f"every node needs a 'name' field: child {index} of {names[parent]!r} has none"
            )
        if id(node_doc) in seen_objects:
            raise TaxonomyError("cycle detected: a node object appears twice")
        seen_objects.add(id(node_doc))
        nid = len(names)
        names.append(str(node_doc["name"]))
        parents.append(parent)
        children = node_doc.get("children") or []
        if not isinstance(children, list):
            raise TaxonomyError(f"'children' of {node_doc['name']!r} must be a list")
        stack.extend((children[i], nid, i) for i in reversed(range(len(children))))
    return Taxonomy(names, parents)


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Parse a taxonomy from a JSON file with one top-level object; a file
    that is not UTF-8 JSON of a valid tree raises a `TaxonomyError` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_taxonomy(json.load(fh))
    except ValueError as err:  # also the JSON, UTF-8 and tree errors
        raise TaxonomyError(f"{path}: {err}") from None


def save_taxonomy(path: str | Path, taxonomy: Taxonomy) -> None:
    with atomic_open(path) as fh:
        json.dump(taxonomy.to_document(), fh, indent=2)
        fh.write("\n")
