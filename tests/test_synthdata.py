import numpy as np
import pytest

from hieremb.synthdata import SynthConfig, generate


def node_means(tax, samples):
    """Empirical mean feature vector per leaf name."""
    by_leaf = {}
    for s in samples:
        by_leaf.setdefault(s.leaf, []).append(s.features)
    return {leaf: np.mean(rows, axis=0) for leaf, rows in by_leaf.items()}


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="depth"):
            SynthConfig(depth=0)
        with pytest.raises(ValueError, match="decay"):
            SynthConfig(decay=0.0)
        with pytest.raises(ValueError, match="impossible range"):
            SynthConfig(branching=((3, 2),))
        with pytest.raises(ValueError, match="branching needs"):
            SynthConfig(depth=4, branching=((2, 2), (2, 2)))
        # `nan < 0` is False, so a NaN scale used to pass and every feature was NaN
        for name in ("offset_scale", "noise"):
            for value in (np.nan, np.inf, -1.0):
                message = f"^scales must be non-negative and finite: {name} is {value}$"
                with pytest.raises(ValueError, match=message):
                    SynthConfig(**{name: value})

    def test_single_range_broadcasts(self):
        assert SynthConfig(depth=4, branching=((2, 3),)).level_branching() == [
            (2, 3),
            (2, 3),
            (2, 3),
        ]


class TestGenerate:
    def test_same_seed_same_output(self):
        a_tax, a_samples = generate(SynthConfig(seed=11))
        b_tax, b_samples = generate(SynthConfig(seed=11))
        assert a_tax.to_document() == b_tax.to_document()
        assert [s.id for s in a_samples] == [s.id for s in b_samples]
        assert all(
            np.array_equal(x.features, y.features) for x, y in zip(a_samples, b_samples)
        )

    def test_structure_within_ranges(self):
        config = SynthConfig(
            depth=3, branching=((2, 3), (2, 4)), samples_per_leaf=(5, 8),
            feature_dim=6, seed=3,
        )
        tax, samples = generate(config)
        height, _ = tax.height_and_diameter()
        assert height == 2
        assert all(s.features.shape == (6,) for s in samples)
        counts = {}
        for s in samples:
            counts[s.leaf] = counts.get(s.leaf, 0) + 1
        assert all(5 <= c <= 8 for c in counts.values())
        root_children = tax.children(tax.root)
        assert 2 <= len(root_children) <= 3
        for child in root_children:
            assert 2 <= len(tax.children(child)) <= 4

    def test_default_profile_shape(self):
        tax, samples = generate(SynthConfig(seed=0))
        height, _ = tax.height_and_diameter()
        assert height == 3
        assert 27 <= len(tax.leaf_ids) <= 64  # branching 3-4 over three levels
        per_leaf = len(samples) / len(tax.leaf_ids)
        assert 20 <= per_leaf <= 40

    def test_zero_noise_collapses_leaves(self):
        config = SynthConfig(depth=2, branching=((3, 3),), samples_per_leaf=(4, 4),
                             feature_dim=5, noise=0.0, seed=4)
        _, samples = generate(config)
        by_leaf = {}
        for s in samples:
            by_leaf.setdefault(s.leaf, []).append(s.features)
        for rows in by_leaf.values():
            assert all(np.array_equal(rows[0], r) for r in rows)

    def test_tiny_decay_makes_siblings_indistinguishable(self):
        config = SynthConfig(
            depth=3, branching=((3, 3), (3, 3)), samples_per_leaf=(2, 2),
            feature_dim=16, decay=1e-8, noise=0.0, seed=5,
        )
        tax, samples = generate(config)
        means = node_means(tax, samples)
        # within one level-1 subtree all leaf means coincide (up to decay scale),
        # across subtrees they differ at the level-1 offset scale
        for child in tax.children(tax.root):
            names = [tax.name(l) for l in tax.leaves_under(child)]
            spread = max(
                np.linalg.norm(means[a] - means[b]) for a in names for b in names
            )
            assert spread < 1e-6
        first = tax.children(tax.root)[0]
        second = tax.children(tax.root)[1]
        across = np.linalg.norm(
            means[tax.name(tax.leaves_under(first)[0])]
            - means[tax.name(tax.leaves_under(second)[0])]
        )
        assert across > 1.0


class TestMeanDistanceLaw:
    def test_monte_carlo_matches_closed_form(self):
        # E||mean(l1)-mean(l2)||^2 = 2 * sum_{j=a+1..H} (offset * decay^(j-1))^2 * D
        # for leaves at depth H whose LCA sits at depth a
        base = dict(
            depth=3, branching=((2, 2), (2, 2)), samples_per_leaf=(1, 1),
            feature_dim=8, offset_scale=1.0, decay=0.6, noise=0.0,
        )
        height = base["depth"] - 1
        scale = lambda j: base["offset_scale"] * base["decay"] ** (j - 1)
        dim = base["feature_dim"]

        sq_sibling = []  # lca depth 1
        sq_cousin = []  # lca depth 0
        for seed in range(4000):
            tax, samples = generate(SynthConfig(seed=seed, **base))
            means = node_means(tax, samples)
            l_first = tax.name(tax.leaves_under(tax.children(tax.root)[0])[0])
            l_sib = tax.name(tax.leaves_under(tax.children(tax.root)[0])[1])
            l_cousin = tax.name(tax.leaves_under(tax.children(tax.root)[1])[0])
            sq_sibling.append(np.sum((means[l_first] - means[l_sib]) ** 2))
            sq_cousin.append(np.sum((means[l_first] - means[l_cousin]) ** 2))

        expect_sibling = 2 * sum(scale(j) ** 2 for j in range(2, height + 1)) * dim
        expect_cousin = 2 * sum(scale(j) ** 2 for j in range(1, height + 1)) * dim
        assert np.mean(sq_sibling) == pytest.approx(expect_sibling, rel=0.05)
        assert np.mean(sq_cousin) == pytest.approx(expect_cousin, rel=0.05)
        # feature distance grows with tree distance
        assert np.mean(sq_cousin) > np.mean(sq_sibling)


@pytest.mark.parametrize("config", [SynthConfig(seed=3), SynthConfig(
    depth=4, branching=((3, 3), (4, 4), (4, 4)), samples_per_leaf=(240, 240), seed=1)],
    ids=["default", "staged-large"])
def test_samples_equal_the_per_sample_draws(config):
    from oracles import generate_samples_oracle

    _, samples = generate(config)
    expected = generate_samples_oracle(config)
    assert [(s.id, s.leaf) for s in samples] == [(s.id, s.leaf) for s in expected]
    assert all(s.features.tobytes() == e.features.tobytes() for s, e in zip(samples, expected))
