"""AdamW: update formula, decoupled decay, and the missing-gradient contract."""

import numpy as np
import pytest

from fdcnet.errors import ContractError
from fdcnet.optim import AdamW
from fdcnet.tensor import Tensor


def _param(val, requires_grad=True):
    return Tensor(np.asarray(val, dtype=np.float64), requires_grad=requires_grad)


class TestStep:
    def test_zero_grad_zero_decay_unchanged(self):
        p = _param([1.0, -2.0])
        opt = AdamW({"w": p}, lr=0.01, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.numpy(), [1.0, -2.0])

    def test_first_step_magnitude(self):
        # g=1 at t=1: m_hat = 1, v_hat = 1, update = -lr/(1+eps) ~ -lr
        p = _param([0.0])
        lr = 0.003
        opt = AdamW({"w": p}, lr=lr, weight_decay=0.0)
        p.grad = np.ones(1)
        opt.step()
        assert abs(p.numpy()[0] + lr) < 1e-9

    def test_decoupled_decay_factor(self):
        p = _param([2.0])
        lr, wd = 0.01, 0.1
        opt = AdamW({"w": p}, lr=lr, weight_decay=wd)
        for _ in range(3):
            p.grad = np.zeros(1)
            opt.step()
        np.testing.assert_allclose(p.numpy(), [2.0 * (1 - lr * wd) ** 3], rtol=1e-12)

    def test_constant_grad_trajectory_matches_reference(self):
        # independent re-implementation of the update rule
        lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.004
        g = np.array([0.7, -1.3])
        p = _param([0.5, 0.25])
        opt = AdamW({"w": p}, lr=lr, weight_decay=wd)

        ref = np.array([0.5, 0.25])
        m = np.zeros(2)
        v = np.zeros(2)
        for t in range(1, 6):
            p.grad = g.copy()
            opt.step()
            ref = ref * (1 - lr * wd)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            ref = ref - lr * mh / (np.sqrt(vh) + eps)
            np.testing.assert_allclose(p.numpy(), ref, atol=1e-12)

    def test_step_counter_increments(self):
        p = _param([1.0])
        opt = AdamW({"w": p})
        assert opt.t == 0
        for expected in (1, 2, 3):
            p.grad = np.ones(1)
            opt.step()
            assert opt.t == expected


class TestContracts:
    def test_missing_gradient_names_parameter(self):
        a, b = _param([1.0]), _param([2.0])
        opt = AdamW({"layer.w": a, "layer.b": b})
        a.grad = np.ones(1)
        with pytest.raises(ContractError) as exc:
            opt.step()
        assert "layer.b" in str(exc.value)

    def test_moment_buffers_cover_registered_set(self):
        params = {"a": _param([1.0]), "b": _param(np.zeros((2, 3)))}
        opt = AdamW(params)
        assert set(opt.m) == {"a", "b"}
        assert set(opt.v) == {"a", "b"}
        assert opt.m["b"].shape == (2, 3)

    def test_zero_grad_clears(self):
        p = _param([1.0])
        opt = AdamW({"w": p})
        p.grad = np.ones(1)
        opt.zero_grad()
        assert p.grad is None
