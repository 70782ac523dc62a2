import re

import numpy as np
import pytest

from hieremb.losses import (
    LossConfig,
    SoftmaxSegments,
    binary_cross_entropy_nodes_batch,
    class_weights,
    combine,
    combo_name,
    parse_combo,
    softmax_cross_entropy_batch,
    triplet_loss_batch,
)
from hieremb.model import Head, HeadLayout, head_losses

from oracles import binary_cross_entropy_oracle, fd_gradient, gradient_rel_error


def triplet(a, p, n, margin, with_grad=False):
    """Hinge values, and with `with_grad` the anchor, positive and negative
    gradients, of (B, E) blocks stacked the way the kernel takes them."""
    values, grad = triplet_loss_batch(np.concatenate([a, p, n]), margin, with_grad=with_grad)
    return (values, *np.split(grad, 3)) if with_grad else values


def vectors_with_distances(d_ap, d_an):
    """2-D embeddings whose cosine distances to the anchor are as given."""
    anchor = np.array([1.0, 0.0])
    theta_p = np.arccos(-d_ap)
    theta_n = np.arccos(-d_an)
    positive = np.array([np.cos(theta_p), np.sin(theta_p)])
    negative = np.array([np.cos(theta_n), np.sin(theta_n)])
    return anchor, positive, negative


class TestCosineDistance:
    def test_reference_points(self):
        # with the negative equal to the anchor (distance -1) and a margin of
        # 3 the hinge is active: value = d(anchor, positive) + 1 + 3
        u = np.array([[0.3, -1.2, 0.5]])
        for positive, distance in [(u, -1.0), (-u, 1.0)]:
            values = triplet(u, positive, u, margin=3.0)
            assert values[0] - 4.0 == pytest.approx(distance)
        x, y = np.array([[1.0, 0.0]]), np.array([[0.0, 2.0]])
        values = triplet(x, y, x, margin=3.0)
        assert values[0] - 4.0 == pytest.approx(0.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="dead embedding"):
            triplet(np.zeros((1, 3)), np.ones((1, 3)), np.ones((1, 3)), margin=0.3)


class TestTripletLoss:
    def test_inactive_hinge(self):
        a, p, n = vectors_with_distances(0.2, 0.9)
        values, *grads = triplet(a[None], p[None], n[None], margin=0.3, with_grad=True)
        assert values[0] == 0.0
        for g in grads:
            assert np.all(g == 0.0)

    def test_positive_equals_negative_gives_margin(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=4)
        p = rng.normal(size=4)
        values = triplet(a[None], p[None], p[None].copy(), margin=0.3)
        assert values[0] == pytest.approx(0.3)

    def test_hand_evaluated_hinge(self):
        a, p, n = vectors_with_distances(0.5, 0.4)
        values = triplet(a[None], p[None], n[None], margin=0.3)
        assert values[0] == pytest.approx(0.4)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        a, p, n = rng.normal(size=(3, 1, 5))
        base = triplet(a, p, n, margin=0.3)
        for c in (0.01, 3.0, 250.0):
            scaled = triplet(c * a, p, n, margin=0.3)
            assert scaled[0] == pytest.approx(base[0], abs=1e-12)

    def test_value_range(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, p, n = rng.normal(size=(3, 1, 4))
            values = triplet(a, p, n, margin=0.3)
            assert 0.0 <= values[0] <= 2.0 + 0.3

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)

        def cosine(u, v):
            return u @ v / (np.linalg.norm(u) * np.linalg.norm(v))

        def value(a, p, n):
            return triplet(a[None], p[None], n[None], 0.3)[0]

        checked = 0
        while checked < 10:
            a, p, n = rng.normal(size=(3, 5))
            raw = -cosine(a, p) + cosine(a, n) + 0.3
            if abs(raw) < 1e-2:  # keep clear of the hinge kink
                continue
            checked += 1
            _, ga, gp, gn = triplet(a[None], p[None], n[None], margin=0.3, with_grad=True)
            for vec, grad, f in [
                (a, ga[0], lambda x: value(x, p, n)),
                (p, gp[0], lambda x: value(a, x, n)),
                (n, gn[0], lambda x: value(a, p, x)),
            ]:
                assert gradient_rel_error(grad, fd_gradient(f, vec)) < 1e-5


class TestMulticlassLoss:
    # one head: (n, 1) targets and values
    def test_uniform_logits(self):
        values, _ = softmax_cross_entropy_batch(
            np.zeros((1, 4)), [[2]], SoftmaxSegments.of([np.ones(4)])
        )
        assert values[0, 0] == pytest.approx(np.log(4.0))

    def test_perfect_prediction_limit(self):
        logits = np.array([[40.0, 0.0, 0.0]])
        values, _ = softmax_cross_entropy_batch(logits, [[0]], SoftmaxSegments.of([np.ones(3)]))
        assert values[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_weight_linearity(self):
        logits = np.array([[0.3, -0.8, 1.1]])
        w1 = np.ones(3)
        v1, g1 = softmax_cross_entropy_batch(logits, [[1]], SoftmaxSegments.of([w1]), True)
        v2, g2 = softmax_cross_entropy_batch(logits, [[1]], SoftmaxSegments.of([2.0 * w1]), True)
        assert v2[0, 0] == pytest.approx(2 * v1[0, 0])
        assert np.allclose(g2, 2 * g1)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(1, 6))
        segments = SoftmaxSegments.of([np.ones(6)])
        v1, _ = softmax_cross_entropy_batch(logits, [[3]], segments)
        v2, _ = softmax_cross_entropy_batch(logits + 123.4, [[3]], segments)
        assert v1[0, 0] == pytest.approx(v2[0, 0])

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy_batch(np.zeros((1, 3)), [[3]], SoftmaxSegments.of([np.ones(3)]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            logits = rng.normal(size=5)
            segments = SoftmaxSegments.of([rng.uniform(0.5, 2.0, size=5)])
            _, grad = softmax_cross_entropy_batch(logits[None], [[2]], segments, with_grad=True)
            fd = fd_gradient(
                lambda z: softmax_cross_entropy_batch(z[None], [[2]], segments)[0][0, 0], logits
            )
            assert gradient_rel_error(grad[0], fd) < 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        segments = SoftmaxSegments.of([np.ones(4)])
        for _ in range(100):
            logits = rng.normal(size=(1, 4)) * 3
            values, _ = softmax_cross_entropy_batch(logits, [[int(rng.integers(4))]], segments)
            assert values[0, 0] >= 0.0


class TestSegmentedSoftmax:
    """Several heads side by side in one call must score like one call per
    head; only the order of each head's exponential sum may differ."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_one_call_per_head(self, seed):
        rng = np.random.default_rng(seed)
        widths = rng.integers(1, 41, size=int(rng.integers(1, 6)))
        n = int(rng.integers(1, 50))
        logits = rng.normal(scale=3.0, size=(n, widths.sum()))
        extreme = rng.random(logits.shape) < 0.2
        logits[extreme] = rng.choice([-800.0, 800.0], size=extreme.sum())
        weights = [rng.uniform(0.2, 3.0, size=w) for w in widths]
        targets = np.stack([rng.integers(0, w, size=n) for w in widths], axis=1)
        values, grad = softmax_cross_entropy_batch(
            logits, targets, SoftmaxSegments.of(weights), with_grad=True
        )
        assert values.shape == (n, len(widths)) and grad.shape == logits.shape
        stops = np.cumsum(widths)
        for k, (start, stop) in enumerate(zip(stops - widths, stops)):
            want_values, want_grad = softmax_cross_entropy_batch(
                logits[:, start:stop], targets[:, [k]], SoftmaxSegments.of([weights[k]]), True
            )
            assert want_values.shape == (n, 1)
            np.testing.assert_allclose(values[:, k], want_values[:, 0], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(grad[:, start:stop], want_grad, rtol=1e-12, atol=1e-15)

    def test_per_head_formula(self):
        rng = np.random.default_rng(20)
        widths = [2, 1, 5]
        logits = rng.normal(size=(7, 8))
        weights = [rng.uniform(0.5, 2.0, size=w) for w in widths]
        targets = np.stack([rng.integers(0, w, size=7) for w in widths], axis=1)
        values, grad = softmax_cross_entropy_batch(
            logits, targets, SoftmaxSegments.of(weights), with_grad=True
        )
        rows = np.arange(7)
        for k, (start, stop) in enumerate([(0, 2), (2, 3), (3, 8)]):
            z = logits[:, start:stop]
            probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            w = weights[k][targets[:, k]]
            np.testing.assert_allclose(values[:, k], -w * np.log(probs[rows, targets[:, k]]))
            onehot = np.eye(stop - start)[targets[:, k]]
            np.testing.assert_allclose(grad[:, start:stop], w[:, None] * (probs - onehot), atol=1e-15)

    @pytest.mark.parametrize("shape", [(1, 5), (4, 1), (3, 5)])
    def test_logits_left_unchanged(self, shape):
        logits = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        before = logits.copy()
        segments = SoftmaxSegments.of([np.ones(shape[1])])
        softmax_cross_entropy_batch(logits, np.zeros((shape[0], 1), dtype=int), segments)
        assert np.array_equal(logits, before)

    def test_head_widths_must_cover_the_columns(self):
        segments = SoftmaxSegments.of([np.ones(2), np.ones(2)])
        with pytest.raises(ValueError, match="expected 5 class weights"):
            softmax_cross_entropy_batch(np.zeros((1, 5)), [[0, 0]], segments)
        segments = SoftmaxSegments.of([np.ones(2), np.ones(3)])
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy_batch(np.zeros((1, 5)), [[0, 3]], segments)

    @pytest.mark.parametrize("seed", range(6))
    def test_prepared_segments_match_the_weight_list(self, seed):
        # segments prepared once and used for every call, as a head layout
        # uses them, score like segments built afresh from the weights
        rng = np.random.default_rng(seed)
        widths = rng.integers(1, 30, size=int(rng.integers(1, 5)))
        n = int(rng.integers(1, 40))
        logits = rng.normal(scale=3.0, size=(n, widths.sum()))
        weights = [rng.uniform(0.2, 3.0, size=w) for w in widths]
        targets = np.stack([rng.integers(0, w, size=n) for w in widths], axis=1)
        segments = SoftmaxSegments.of(weights)
        for with_grad in (False, True):
            want = softmax_cross_entropy_batch(logits, targets, SoftmaxSegments.of(weights), with_grad)
            got = softmax_cross_entropy_batch(logits, targets, segments, with_grad)
            assert got[0].tobytes() == want[0].tobytes()
            if with_grad:
                assert got[1].tobytes() == want[1].tobytes()

    def test_prepared_segments_keep_the_width_and_range_checks(self):
        segments = SoftmaxSegments.of([np.ones(2), np.ones(2)])
        with pytest.raises(ValueError, match="expected 5 class weights"):
            softmax_cross_entropy_batch(np.zeros((1, 5)), [[0, 0]], segments)
        with pytest.raises(ValueError, match=re.escape("expected (1, 2) targets")):
            softmax_cross_entropy_batch(np.zeros((1, 4)), [0], segments)
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy_batch(np.zeros((1, 4)), [[0, 2]], segments)
        with pytest.raises(ValueError, match="non-empty vectors"):
            SoftmaxSegments.of([np.ones(2), np.ones(0)])


class TestBinaryNodeLoss:
    def test_logit_zero_is_ln2(self):
        for member in (np.zeros((1, 5), dtype=bool), np.ones((1, 5), dtype=bool)):
            values, _ = binary_cross_entropy_nodes_batch(np.zeros((1, 5)), member, np.ones(5))
            assert values[0] == pytest.approx(np.log(2.0))

    def test_perfect_prediction_limit(self):
        member = np.array([[True, False, True]])
        logits = np.where(member, 50.0, -50.0)
        values, _ = binary_cross_entropy_nodes_batch(logits, member, np.ones(3))
        assert values[0] == pytest.approx(0.0, abs=1e-12)

    def test_averages_over_nodes(self):
        # one wrong node out of five contributes its term / 5
        member = np.zeros((1, 5), dtype=bool)
        logits = np.array([[0.0, -50.0, -50.0, -50.0, -50.0]])
        values, _ = binary_cross_entropy_nodes_batch(logits, member, np.ones(5))
        assert values[0] == pytest.approx(np.log(2.0) / 5, abs=1e-12)

    def test_positive_term_weighting(self):
        logit = np.array([[0.7]])
        member = np.array([[True]])
        v1, _ = binary_cross_entropy_nodes_batch(logit, member, np.array([1.0]))
        v2, _ = binary_cross_entropy_nodes_batch(logit, member, np.array([3.0]))
        assert v2[0] == pytest.approx(3 * v1[0])
        # negative term is unweighted
        v3, _ = binary_cross_entropy_nodes_batch(logit, ~member, np.array([1.0]))
        v4, _ = binary_cross_entropy_nodes_batch(logit, ~member, np.array([3.0]))
        assert v3[0] == pytest.approx(v4[0])

    @pytest.mark.parametrize("density", [0.02, 0.5, 1.0])
    def test_bitwise_equal_to_the_selected_branches(self, density):
        # the masked, branch-free kernel computes each entry by the same
        # floating-point operations as selecting between both branches
        rng = np.random.default_rng(int(density * 100))
        fused = rng.normal(scale=4.0, size=(30, 50))
        logits = fused[:, 4:45]  # a head's columns of the fused logits
        logits[rng.random(logits.shape) < 0.1] = 0.0
        extreme = rng.random(logits.shape) < 0.05
        logits[extreme] = rng.choice([-800.0, 800.0], size=extreme.sum())
        member = rng.random(logits.shape) < density
        weights = rng.uniform(0.2, 3.0, size=41)
        e = np.exp(-np.abs(logits))
        tail = np.log1p(e)
        terms = np.where(
            member, weights * (np.maximum(-logits, 0.0) + tail), np.maximum(logits, 0.0) + tail
        )
        inverse = 1.0 / (1.0 + e)
        probs = np.where(logits >= 0, inverse, e * inverse)
        want_grad = np.where(member, weights * (probs - 1.0), probs) / 41
        values, grad = binary_cross_entropy_nodes_batch(logits, member, weights, with_grad=True)
        assert values.tobytes() == (terms.sum(axis=-1) / 41).tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="line up"):
            binary_cross_entropy_nodes_batch(
                np.zeros((1, 3)), np.zeros((1, 4), dtype=bool), np.ones(3)
            )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            logits = rng.normal(size=7)
            member = rng.random((1, 7)) < 0.5
            weights = rng.uniform(0.5, 2.0, size=7)
            _, grad = binary_cross_entropy_nodes_batch(
                logits[None], member, weights, with_grad=True
            )
            fd = fd_gradient(
                lambda z: binary_cross_entropy_nodes_batch(z[None], member, weights)[0][0],
                logits,
            )
            assert gradient_rel_error(grad[0], fd) < 1e-6

    def test_batch_matches_logaddexp_oracle(self):
        # rows as wide as a wide tree's binary head (~200 nodes): one ulp of
        # s(z) (1.1e-16) divided by the node count stays below 1e-17
        rng = np.random.default_rng(10)
        for scale in (1.0, 10.0, 100.0, 800.0):
            logits = rng.uniform(-scale, scale, size=(16, 200))
            logits[0, :4] = [0.0, -0.0, scale, -scale]
            member = rng.random((16, 200)) < 0.3
            weights = rng.uniform(0.2, 3.0, size=200)
            values, grad = binary_cross_entropy_nodes_batch(
                logits, member, weights, with_grad=True
            )
            want_values, want_grad = binary_cross_entropy_oracle(logits, member, weights)
            assert np.isfinite(values).all() and np.isfinite(grad).all()
            assert np.max(np.abs(values - want_values) / want_values) <= 1e-15
            assert np.max(np.abs(grad - want_grad)) <= 1e-17


class TestValuesWithoutGradients:
    """A kernel asked for no gradient returns None in its place, and values
    bitwise equal to those it returns alongside a gradient."""

    @pytest.mark.parametrize("seed", range(4))
    def test_softmax(self, seed):
        rng = np.random.default_rng(seed)
        widths = rng.integers(1, 9, size=3)
        logits = rng.normal(scale=4.0, size=(11, widths.sum()))
        weights = [rng.uniform(0.2, 3.0, size=w) for w in widths]
        targets = np.stack([rng.integers(0, w, size=11) for w in widths], axis=1)
        segments = SoftmaxSegments.of(weights)
        values, grad = softmax_cross_entropy_batch(logits, targets, segments, with_grad=True)
        bare, none = softmax_cross_entropy_batch(logits, targets, segments)
        assert grad is not None and none is None
        assert bare.tobytes() == values.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_binary(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=5.0, size=(9, 13))
        member = rng.random(logits.shape) < 0.4
        weights = rng.uniform(0.2, 3.0, size=13)
        values, grad = binary_cross_entropy_nodes_batch(logits, member, weights, with_grad=True)
        bare, none = binary_cross_entropy_nodes_batch(logits, member, weights)
        assert grad is not None and none is None
        assert bare.tobytes() == values.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_triplet_rows_gathered_once(self, seed):
        # the triplets as rows of a larger embedding matrix score like the
        # same triplets stacked, with or without a gradient
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(20, 6))
        rows = rng.integers(0, 20, size=3 * 7)
        before = emb.copy()
        values, grad = triplet_loss_batch(emb[rows], 0.3, with_grad=True)
        bare, none = triplet_loss_batch(emb, 0.3, rows)
        assert grad.shape == (21, 6) and none is None
        assert bare.tobytes() == values.tobytes()
        assert np.array_equal(emb, before)


class TestPerLevelLoss:
    # PL over a two-level layout: level_1 has classes {A, B}, level_2 {a, b, c}
    layout = HeadLayout(
        leaf=None,
        levels=[
            Head("level_1", 1, ["A", "B"], np.ones(2)),
            Head("level_2", 2, ["a", "b", "c"], np.ones(3)),
        ],
        binary=None,
    )

    def test_sum_over_levels(self):
        targets = np.array([[0, 2]])  # level_1, level_2
        components, grad = head_losses(self.layout, np.zeros((1, 5)), targets, None, True)
        assert components["PL"] == pytest.approx(np.log(2.0) + np.log(3.0))
        assert grad.shape == (1, 5)

    def test_all_heads_perfect(self):
        logits = np.array([[60.0, 0.0, 0.0, 60.0, 0.0]])
        targets = np.array([[0, 1]])  # level_1, level_2
        components, _ = head_losses(self.layout, logits, targets, None)
        assert components["PL"] == pytest.approx(0.0, abs=1e-12)


class TestClassWeights:
    def test_reference_values(self):
        assert class_weights({"a1": 10, "a2": 40}) == pytest.approx({"a1": 1.6, "a2": 0.4})
        assert class_weights({"x": 1, "y": 1, "z": 2}) == pytest.approx(
            {"x": 1.2, "y": 1.2, "z": 0.6}
        )

    def test_equal_counts_give_unit_weights(self):
        weights = class_weights({c: 7 for c in "abcd"})
        assert all(w == pytest.approx(1.0) for w in weights.values())

    def test_mean_is_one(self):
        rng = np.random.default_rng(9)
        counts = {i: int(rng.integers(1, 100)) for i in range(20)}
        weights = class_weights(counts)
        assert np.mean(list(weights.values())) == pytest.approx(1.0)
        assert all(w > 0 for w in weights.values())

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="zero count"):
            class_weights({"a": 0, "b": 3})

    def test_no_classes_rejected(self):
        with pytest.raises(ValueError, match="^no classes to weight$"):
            class_weights({})


class TestCombine:
    def test_sum(self):
        value = combine({"T": 0.3, "PL": 1.0}, active=frozenset({"T", "PL"}))
        assert value.total == pytest.approx(1.3)
        value = combine({"PL": 0.7, "B": 0.2, "T": 0.1}, active=frozenset({"PL", "B", "T"}))
        assert value.total == pytest.approx(1.0)
        assert value.total == pytest.approx(sum(value.per_component.values()))

    def test_single_component(self):
        assert combine({"L": 0.42}, active=frozenset({"L"})).total == pytest.approx(0.42)

    def test_missing_component_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            combine({"T": 0.1}, active=frozenset({"T", "PL"}))


class TestLossConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            LossConfig(active=frozenset())
        with pytest.raises(ValueError, match="unknown"):
            LossConfig(active=frozenset({"X"}))
        with pytest.raises(ValueError, match="margin"):
            LossConfig(active=frozenset({"T"}), margin=-1.0)

    def test_combo_names(self):
        assert combo_name(frozenset({"T", "PL"})) == "PL+T"
        assert combo_name(frozenset({"T", "B", "PL"})) == "PL+B+T"
        assert parse_combo("PL+B+T") == frozenset({"PL", "B", "T"})
        with pytest.raises(ValueError, match="repeated"):
            parse_combo("T+T")
