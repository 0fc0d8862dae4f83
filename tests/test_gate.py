"""Channel-aware gating: squeeze stats, two-layer excite, modulation."""

import numpy as np
import pytest

from conftest import rng
from fdcnet.errors import DimensionError
from fdcnet.model.gate import ChannelGate, channel_stats, modulate
from fdcnet.tensor import Tensor


class TestChannelStats:
    def test_constant_channels(self):
        x = np.zeros((2, 3, 8))
        for c, v in enumerate((1.0, -2.0, 0.5)):
            x[:, c, :] = v
        out = channel_stats(Tensor(x)).numpy()
        np.testing.assert_allclose(out, [[1.0, -2.0, 0.5]] * 2, atol=1e-15)

    def test_hand_mean(self):
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        assert channel_stats(Tensor(x)).numpy()[0, 0] == 2.5

    def test_loop_oracle(self):
        x = rng(0).normal(size=(3, 5, 16))
        out = channel_stats(Tensor(x)).numpy()
        expect = np.zeros((3, 5))
        for b in range(3):
            for c in range(5):
                expect[b, c] = x[b, c].mean()
        assert np.abs(out - expect).max() < 1e-12


class TestGateWeights:
    def test_zero_params_give_half(self):
        gate = ChannelGate(4, reduction=4, rng=rng(2))
        for t in gate.params.values():
            t.data[:] = 0.0
        z = Tensor(rng(3).normal(size=(3, 4)))
        np.testing.assert_allclose(gate.weights(z).numpy(), 0.5, atol=1e-15)

    def test_saturation_towards_one(self):
        gate = ChannelGate(4, reduction=4, rng=rng(4))
        for t in (gate.params["w1"], gate.params["b1"], gate.params["w2"]):
            t.data[:] = 0.0
        gate.params["b2"].data[:] = 20.0
        z = Tensor(rng(5).normal(size=(2, 4)))
        assert gate.weights(z).numpy().min() > 0.999999

    def test_two_layer_loop_oracle(self):
        gate = ChannelGate(8, reduction=4, rng=rng(6))
        z = rng(7).normal(size=(3, 8))
        got = gate.weights(Tensor(z)).numpy()
        w1, b1 = gate.params["w1"].numpy(), gate.params["b1"].numpy()
        w2, b2 = gate.params["w2"].numpy(), gate.params["b2"].numpy()
        for b in range(3):
            hidden = np.maximum(w1 @ z[b] + b1, 0.0)
            expect = 1.0 / (1.0 + np.exp(-(w2 @ hidden + b2)))
            assert np.abs(got[b] - expect).max() < 1e-12

    def test_open_interval(self):
        gate = ChannelGate(8, reduction=2, rng=rng(8))
        z = Tensor(rng(9).normal(size=(16, 8)) * 10.0)
        a = gate.weights(z).numpy()
        assert a.min() > 0.0 and a.max() < 1.0

    def test_shape_mismatch(self):
        gate = ChannelGate(4, reduction=4, rng=rng(11))
        with pytest.raises(DimensionError):
            gate.weights(Tensor(np.zeros((2, 5))))


class TestModulate:
    def test_identity_and_zero(self):
        x = Tensor(rng(12).normal(size=(2, 3, 8)))
        np.testing.assert_array_equal(
            modulate(x, Tensor(np.ones((2, 3)))).numpy(), x.numpy()
        )
        np.testing.assert_array_equal(
            modulate(x, Tensor(np.zeros((2, 3)))).numpy(), np.zeros((2, 3, 8))
        )

    def test_hand_arithmetic(self):
        x = Tensor(np.array([[[4.0, 8.0]]]))
        out = modulate(x, Tensor(np.array([[0.25]])))
        np.testing.assert_array_equal(out.numpy(), [[[1.0, 2.0]]])
