"""Classification head, label weighting, BCE, and 4-class accuracy."""

import numpy as np
import pytest

from conftest import numeric_grad, rng
from fdcnet.errors import DegenerateDataError
from fdcnet.model.classifier import (
    ClassifierHead,
    accuracy_4class,
    class_weights,
    classify_forward,
    weighted_bce,
)
from fdcnet.kernels import sigmoid
from fdcnet.tensor import GradTape, Tensor, backward


def _head(d=8, hidden=4, seed=0):
    return ClassifierHead(d, hidden, rng=rng(seed))


class TestClassifyForward:
    def test_zero_params_give_half_probs(self):
        head = _head()
        for t in head.params.values():
            t.data[:] = 0.0
        h = Tensor(rng(1).normal(size=(3, 10, 8)))
        logits, p = classify_forward(h, head)
        np.testing.assert_allclose(logits.numpy(), 0.0, atol=1e-15)
        np.testing.assert_allclose(p.numpy(), 0.5, atol=1e-15)

    def test_probabilities_in_open_interval(self):
        head = _head(seed=2)
        h = Tensor(rng(3).normal(size=(4, 6, 8)) * 5.0)
        _, p = classify_forward(h, head)
        assert p.numpy().min() > 0.0 and p.numpy().max() < 1.0

    def test_uniform_attention_equals_temporal_mean(self):
        head = _head(seed=4)
        head.params["attn.w"].data[:] = 0.0  # constant scores -> uniform softmax weights
        head.params["attn.b"].data[:] = 0.3
        h = rng(5).normal(size=(2, 7, 8))
        logits, _ = classify_forward(Tensor(h), head)

        pooled = h.mean(axis=1)
        w1, b1 = head.params["head.w1"].numpy(), head.params["head.b1"].numpy()
        w2, b2 = head.params["head.w2"].numpy(), head.params["head.b2"].numpy()
        hid = pooled @ w1.T + b1
        hid = 0.5 * hid * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (hid + 0.044715 * hid ** 3)))
        expect = hid @ w2.T + b2
        assert np.abs(logits.numpy() - expect).max() < 1e-12

    def test_output_shapes(self):
        head = _head(seed=6)
        logits, p = classify_forward(Tensor(rng(7).normal(size=(5, 3, 8))), head)
        assert logits.shape == (5, 2) and p.shape == (5, 2)


class TestClassWeights:
    def test_balanced(self):
        labels = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
        w = class_weights(labels)
        np.testing.assert_allclose(w, [1.4142135623730951] * 2, atol=1e-12)

    def test_quarter_frequency(self):
        labels = np.array([[1, 1]] + [[0, 0]] * 3, dtype=float)
        w = class_weights(labels)
        np.testing.assert_allclose(w, [2.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(1 / w**2, [0.25, 0.25], atol=1e-12)

    def test_hand_example_three_quarters(self):
        labels = np.array([[1, 1], [1, 1], [1, 1], [0, 0]], dtype=float)
        w = class_weights(labels)
        np.testing.assert_allclose(w, [1.1547005383792517] * 2, atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDataError):
            class_weights(np.array([[1, 0], [1, 1]], dtype=float))  # valence all 1


class TestWeightedBce:
    def _w(self, w=(1.0, 1.0)):
        return np.asarray(w, float)

    def test_perfect_prediction_near_zero(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = weighted_bce(Tensor(y.copy()), y, self._w())
        assert float(loss.numpy()) < 1e-6

    def test_half_probs_give_2ln2(self):
        p = Tensor(np.full((4, 2), 0.5))
        y = rng(8).integers(0, 2, size=(4, 2)).astype(float)
        loss = float(weighted_bce(p, y, self._w()).numpy())
        assert abs(loss - 2.0 * np.log(2.0)) < 1e-12

    def test_uniform_weight_scales_unweighted(self):
        p = Tensor(rng(9).uniform(0.05, 0.95, size=(6, 2)))
        y = rng(10).integers(0, 2, size=(6, 2)).astype(float)
        base = float(weighted_bce(p, y, self._w()).numpy())
        scaled = float(weighted_bce(p, y, self._w((1.7, 1.7))).numpy())
        assert abs(scaled - 1.7 * base) < 1e-12

    def test_boundary_probabilities_clamped_finite(self):
        p = Tensor(np.array([[0.0, 1.0]]))
        y = np.array([[1.0, 0.0]])  # worst case at the boundary
        loss = float(weighted_bce(p, y, self._w()).numpy())
        assert np.isfinite(loss) and loss > 10.0

    def test_batch_permutation_invariance(self):
        r = rng(11)
        p = r.uniform(0.05, 0.95, size=(8, 2))
        y = r.integers(0, 2, size=(8, 2)).astype(float)
        perm = r.permutation(8)
        a = float(weighted_bce(Tensor(p), y, self._w()).numpy())
        b = float(weighted_bce(Tensor(p[perm]), y[perm], self._w()).numpy())
        assert abs(a - b) < 1e-12

    def test_gradient_through_sigmoid_matches_fd(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        w = np.array([1.3, 0.8])
        logits0 = rng(12).normal(size=(3, 2))

        def f_np(logits):
            p = 1.0 / (1.0 + np.exp(-logits))
            pc = np.clip(p, 1e-7, 1.0 - 1e-7)
            per = -(y * np.log(pc) + (1 - y) * np.log(1 - pc))
            return float((per * w).sum(axis=1).mean())

        t = Tensor(logits0.copy(), requires_grad=True)
        with GradTape():
            loss = weighted_bce(sigmoid(t), y, w)
            backward(loss)
        numeric = numeric_grad(lambda arr: f_np(arr), logits0.copy(), h=1e-6)
        denom = max(np.abs(t.grad).max(), np.abs(numeric).max())
        assert np.abs(t.grad - numeric).max() / denom < 1e-5


class TestAccuracy:
    def test_perfect(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert accuracy_4class(y.copy(), y) == 1.0

    def test_one_dimension_wrong_everywhere(self):
        y = np.array([[1.0, 0.0], [0.0, 0.0]])
        p = np.array([[1.0, 1.0], [1.0, 0.0]])  # arousal wrong / valence wrong
        assert accuracy_4class(p, y) == 0.0

    def test_chance_level(self):
        r = rng(13)
        p = r.uniform(0, 1, size=(1000, 2))
        y = r.integers(0, 2, size=(1000, 2)).astype(float)
        acc = accuracy_4class(p, y)
        assert abs(acc - 0.25) < 0.05

    def test_bounded_by_per_dimension_accuracy(self):
        r = rng(14)
        p = r.uniform(0, 1, size=(500, 2))
        y = r.integers(0, 2, size=(500, 2)).astype(float)
        pred = (p > 0.5).astype(float)
        acc_v = (pred[:, 0] == y[:, 0]).mean()
        acc_a = (pred[:, 1] == y[:, 1]).mean()
        assert accuracy_4class(p, y) <= min(acc_v, acc_a) + 1e-12
