import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hieremb.metrics import _depths
from hieremb.taxonomy import Taxonomy, TaxonomyError, load_taxonomy, parse_taxonomy

from conftest import t0_document
from oracles import (
    ancestor_at_depth_oracle,
    depth_oracle,
    height_diameter_oracle,
    lca_oracle,
    leaf_pair_diameter_oracle,
    leaves_under_oracle,
    path_from_root,
    random_tree_doc,
    retained_levels_oracle,
)

# the node cap of the derandomised random trees: an edit that draws other
# trees cannot make them large (uncapped, one drew 1,734 nodes)
MAX_NODES = 200


class TestParse:
    def test_t0_structure(self, t0):
        assert len(t0) == 6
        assert len(t0.leaf_ids) == 3
        assert t0.depth(t0.root) == 0
        # pre-order ids with children in input order
        assert [t0.name(i) for i in range(6)] == ["root", "A", "a1", "a2", "B", "b1"]
        assert t0.children(t0.id_of("A")) == (t0.id_of("a1"), t0.id_of("a2"))

    def test_single_node(self):
        tax = parse_taxonomy({"name": "root"})
        assert len(tax) == 1
        assert tax.leaf_ids == {tax.root}

    def test_duplicate_name_rejected(self):
        doc = {"name": "root", "children": [{"name": "A"}, {"name": "A"}]}
        with pytest.raises(TaxonomyError, match="duplicate"):
            parse_taxonomy(doc)

    def test_empty_document_rejected(self):
        with pytest.raises(TaxonomyError):
            parse_taxonomy({})
        with pytest.raises(TaxonomyError):
            parse_taxonomy({"name": ""})

    @pytest.mark.parametrize("names, parents, message", [
        ([], [], "empty taxonomy"),
        (["root", "a"], [None], "names/parents length mismatch"),
        (["root", "a"], [None, None], "exactly one root (node 0) is required"),
        (["root", "a"], [0, 0], "exactly one root (node 0) is required"),
        (["root", "a", "b"], [None, 2, 0], "node 1 has invalid parent 2"),
        (["root", "a"], [None, -1], "node 1 has invalid parent -1"),
    ], ids=["empty", "length-mismatch", "two-roots", "rootless", "parent-after-child", "negative-parent"])
    def test_constructor_guards(self, names, parents, message):
        with pytest.raises(TaxonomyError, match=f"^{re.escape(message)}$"):
            Taxonomy(names, parents)

    def test_cycle_rejected(self):
        shared = {"name": "X"}
        doc = {"name": "root", "children": [shared]}
        shared["children"] = [shared]
        with pytest.raises(TaxonomyError, match="cycle"):
            parse_taxonomy(doc)

    def test_parse_is_deterministic(self):
        doc = t0_document()
        assert parse_taxonomy(doc).to_document() == parse_taxonomy(t0_document()).to_document()


class TestLoad:
    """A taxonomy file that cannot be read as a tree fails naming the file."""

    def test_truncated_json_is_named(self, tmp_path):
        path = tmp_path / "taxonomy.json"
        path.write_text(json.dumps(t0_document(), indent=2)[:-9], encoding="utf-8")
        with pytest.raises(TaxonomyError, match=re.escape(f"{path}: ") + ".* line 22 column"):
            load_taxonomy(path)

    def test_non_utf8_is_named(self, tmp_path):
        path = tmp_path / "taxonomy.json"
        path.write_bytes(b'{"name": "r\xe9sum\xe9"}')  # Latin-1
        with pytest.raises(TaxonomyError, match=re.escape(f"{path}: not a JSON file: 'utf-8' codec")):
            load_taxonomy(path)

    @pytest.mark.parametrize(
        "key, value, fault",
        [
            ("name", 7, "node name 7 is not a string"),
            ("name", ["A"], "node name ['A'] is not a string"),
            ("name", None, "node name None is not a string"),
            *(("children", value, "'children' of 'A' must be a list") for value in (0, False, "", {}, None)),
        ],
    )
    def test_entry_of_the_wrong_type_is_named(self, tmp_path, key, value, fault):
        # a name used to be read as its str() ("7", "['A']", "None"), and such
        # children as none, making A a leaf
        doc = t0_document()
        doc["children"][0][key] = value
        path = tmp_path / "taxonomy.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(TaxonomyError, match=f"^{re.escape(f'{path}: {fault}')}$"):
            load_taxonomy(path)

    def test_nameless_node_is_placed(self, tmp_path):
        doc = t0_document()
        doc["children"][0]["children"][1] = {"children": []}  # a2 loses its name
        path = tmp_path / "taxonomy.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(TaxonomyError, match=re.escape(f"{path}: every node needs a 'name' "
                                                          "field: child 1 of 'A' has none")):
            load_taxonomy(path)


class TestQueries:
    def test_lca_t0(self, t0):
        a1, a2, b1 = t0.id_of("a1"), t0.id_of("a2"), t0.id_of("b1")
        assert t0.lca(a1, a2) == t0.id_of("A") == lca_oracle(t0, a1, a2)
        assert t0.lca(a1, b1) == t0.root == lca_oracle(t0, a1, b1)
        assert t0.lca(a1, a1) == a1

    def test_depth_t0(self, t0):
        assert t0.depth(t0.root) == 0
        assert t0.depth(t0.id_of("A")) == 1
        assert t0.depth(t0.id_of("a1")) == 2

    def test_invalid_id(self, t0):
        with pytest.raises(TaxonomyError, match="invalid node id"):
            t0.depth(99)
        with pytest.raises(TaxonomyError, match="invalid node id"):
            t0.lca(0, -1)

    def test_height_diameter(self, t0):
        assert t0.height_and_diameter() == (2, 4)
        assert parse_taxonomy({"name": "x"}).height_and_diameter() == (0, 0)

    def test_perfect_binary_depth3(self):
        def binary(name, depth):
            if depth == 0:
                return {"name": name}
            return {
                "name": name,
                "children": [binary(name + "0", depth - 1), binary(name + "1", depth - 1)],
            }

        tax = parse_taxonomy(binary("r", 3))
        assert tax.height_and_diameter() == (3, 6)

    def test_lca_properties_random_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            tax = parse_taxonomy(random_tree_doc(rng))
            nodes = rng.integers(0, len(tax), size=(10, 2))
            for n1, n2 in nodes:
                a = tax.lca(int(n1), int(n2))
                assert a == tax.lca(int(n2), int(n1))
                assert a == lca_oracle(tax, int(n1), int(n2))
                assert tax.is_ancestor_or_self(a, int(n1))
                assert tax.is_ancestor_or_self(a, int(n2))

    def test_height_diameter_random_trees(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            tax = parse_taxonomy(random_tree_doc(rng))
            height, diameter = tax.height_and_diameter()
            assert (height, diameter) == height_diameter_oracle(tax)
            leaves = sorted(tax.leaf_ids)
            for l1 in leaves:
                for l2 in leaves:
                    a = tax.lca(l1, l2)
                    d1 = tax.depth(l1) - tax.depth(a)
                    d2 = tax.depth(l2) - tax.depth(a)
                    assert d1 + d2 <= diameter
                    assert max(d1, d2) <= height


    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_depth=st.integers(1, 6),
        max_children=st.integers(2, 5),
        p_leaf=st.floats(0.0, 0.8),
        max_nodes=st.just(MAX_NODES),
    )
    @example(seed=0, max_depth=6, max_children=5, p_leaf=0.2, max_nodes=math.inf)  # 1,003 nodes
    def test_one_pass_diameter_matches_leaf_pair_loop(
        self, seed, max_depth, max_children, p_leaf, max_nodes
    ):
        doc = random_tree_doc(np.random.default_rng(seed), max_depth, max_children, p_leaf, max_nodes)
        tax = parse_taxonomy(doc)
        if max_nodes == math.inf:  # the explicit case keeps a large tree covered
            assert len(tax) >= 1000
        else:
            assert len(tax) <= max_nodes + max_depth * max_children
        height, diameter = tax.height_and_diameter()
        assert diameter == leaf_pair_diameter_oracle(tax)
        assert height == max(depth_oracle(tax, l) for l in tax.leaf_ids)


class TestLevels:
    def test_t0_levels(self, t0):
        levels = t0.levels_with_multiple_classes()
        named = [(lv, {t0.name(c) for c in classes}) for lv, classes in levels]
        assert named == [(1, {"A", "B"}), (2, {"a1", "a2", "b1"})]

    def test_path_graph_has_no_levels(self):
        doc = {"name": "root", "children": [{"name": "x", "children": [{"name": "y"}]}]}
        assert parse_taxonomy(doc).levels_with_multiple_classes() == []

    def test_four_level_tree_has_three_tasks(self):
        # shallow leaf B joins both deeper class sets; three retained levels
        doc = {
            "name": "root",
            "children": [
                {
                    "name": "A",
                    "children": [
                        {"name": "C", "children": [{"name": "c1"}, {"name": "c2"}]},
                        {"name": "D", "children": [{"name": "d1"}]},
                    ],
                },
                {"name": "B"},
            ],
        }
        tax = parse_taxonomy(doc)
        levels = tax.levels_with_multiple_classes()
        named = [(lv, {tax.name(c) for c in classes}) for lv, classes in levels]
        assert named == [
            (1, {"A", "B"}),
            (2, {"C", "D", "B"}),
            (3, {"c1", "c2", "d1", "B"}),
        ]

    def test_deepest_level_is_leaf_set(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            tax = parse_taxonomy(random_tree_doc(rng))
            levels = tax.levels_with_multiple_classes()
            assert [(lv, classes) for lv, classes in levels] == retained_levels_oracle(tax)
            if levels:
                deepest = levels[-1][1]
                assert set(deepest) == tax.leaf_ids

    def test_target_at_level(self, t0):
        a1 = t0.id_of("a1")
        targets = t0.leaf_ancestors([a1])
        assert targets[0, 1] == t0.id_of("A")
        assert targets[0, 2] == a1

    def test_shallow_leaf_targets_itself(self):
        doc = {
            "name": "root",
            "children": [
                {"name": "deep", "children": [
                    {"name": "mid", "children": [{"name": "x"}, {"name": "y"}]},
                    {"name": "mid2", "children": [{"name": "z"}]},
                ]},
                {"name": "shallow"},
            ],
        }
        tax = parse_taxonomy(doc)
        shallow = tax.id_of("shallow")
        targets = tax.leaf_ancestors([shallow])
        for level, classes in tax.levels_with_multiple_classes():
            assert targets[0, level] == shallow
            assert shallow in classes

    def test_every_sample_has_one_target_per_level(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            tax = parse_taxonomy(random_tree_doc(rng))
            leaves = sorted(tax.leaf_ids)
            targets = tax.leaf_ancestors(leaves)
            for level, classes in tax.levels_with_multiple_classes():
                class_set = set(classes)
                for row, leaf in enumerate(leaves):
                    target = targets[row, level]
                    assert target in class_set
                    # the target is the only class on the leaf's root path
                    path = set(tax.path_to_root(leaf))
                    assert class_set & path == {target}

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_depth=st.integers(1, 6),
        max_children=st.integers(2, 5),
        p_leaf=st.floats(0.0, 0.8),
    )
    def test_leaf_ancestors_match_path_oracle(self, seed, max_depth, max_children, p_leaf):
        rng = np.random.default_rng(seed)
        tax = parse_taxonomy(random_tree_doc(rng, max_depth, max_children, p_leaf, MAX_NODES))
        leaves = sorted(tax.leaf_ids)
        height = max(depth_oracle(tax, l) for l in leaves)
        # every leaf in order, then any nodes, internal ones and repeats included
        for nodes in (leaves, rng.integers(0, len(tax), size=7).tolist()):
            table = tax.leaf_ancestors(nodes)
            assert table.shape == (len(nodes), height + 1)
            assert _depths(table).tolist() == [depth_oracle(tax, node) for node in nodes]
            for row, node in enumerate(nodes):
                depth = depth_oracle(tax, node)
                for d in range(height + 1):
                    assert table[row, d] == ancestor_at_depth_oracle(tax, node, min(d, depth))
        # the other queries read the same tables: every node, every pair;
        # the leaves under a node are `leaves_under_oracle`'s, from paths walked once
        paths = [path_from_root(tax, node) for node in range(len(tax))]
        for node, path in enumerate(paths):
            assert tax.path_to_root(node) == path[::-1]
            assert tax.leaves_under(node) == tuple(l for l in leaves if node in paths[l])
            ancestors = [a for a in range(len(tax)) if tax.is_ancestor_or_self(a, node)]
            assert ancestors == sorted(path)
        # an invalid id anywhere in the list is named
        for bad in (-1, len(tax), 2**70, 1.0, "n1", None):
            nodes = leaves[:]
            nodes.insert(int(rng.integers(len(nodes) + 1)), bad)
            with pytest.raises(TaxonomyError, match=re.escape(f"invalid node id {bad!r}")):
                tax.leaf_ancestors(nodes)
