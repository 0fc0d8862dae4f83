"""Feedback coupling: embedding, enhancement range, projection, joint loss."""

import numpy as np
import pytest

from conftest import rng
from fdcnet.model.feedback import (
    FeedbackModule,
    feature_enhance,
    feedback_embed,
    feedback_project,
    joint_loss,
)
from fdcnet.tensor import Tensor


def _fb(d_model=16, seed=0):
    return FeedbackModule(d_model, rng=rng(seed))


class TestEmbed:
    def test_low_dimensional_output(self):
        fb = _fb(16)
        x = Tensor(rng(1).normal(size=(3, 16)))
        z = feedback_embed(x, fb)
        assert z.shape == (3, 4)  # d = d_model/4
        assert z.numpy().min() >= 0.0  # ReLU



class TestEnhance:
    def test_multiplier_strictly_inside_1_2(self):
        fb = _fb(16, seed=4)
        x = Tensor(rng(5).normal(size=(500, 4)))
        f = Tensor(rng(6).normal(size=(500, 4)))
        out = feature_enhance(x, f, fb).numpy()
        ratio = out / x.numpy()
        assert ratio.min() > 1.0 and ratio.max() < 2.0

    def test_zero_gate_weights_give_factor_1p5(self):
        fb = _fb(16, seed=7)
        fb.params["enhance.w"].data[:] = 0.0
        fb.params["enhance.b"].data[:] = 0.0
        x = Tensor(rng(8).normal(size=(3, 4)))
        out = feature_enhance(x, Tensor(rng(9).normal(size=(3, 4))), fb).numpy()
        np.testing.assert_allclose(out, 1.5 * x.numpy(), atol=1e-12)


class TestProject:
    def test_gate_in_open_interval(self):
        fb = _fb(16, seed=10)
        y = Tensor(rng(11).uniform(0, 1, size=(6, 2)))
        g = feedback_project(y, fb).numpy()
        assert g.shape == (6, 16)
        assert g.min() > 0.0 and g.max() < 1.0

    def test_requires_two_outputs(self):
        fb = _fb(16, seed=12)
        with pytest.raises(Exception):
            feedback_project(Tensor(rng(13).normal(size=(2, 3))), fb)


class TestJointLoss:
    def _inputs(self, seed=0):
        r = rng(seed)
        clean = Tensor(r.normal(size=(4, 2, 8)))
        x_hat = Tensor(r.normal(size=(4, 2, 8)))
        p = Tensor(r.uniform(0.05, 0.95, size=(4, 2)))
        y = r.integers(0, 2, size=(4, 2)).astype(float)
        w = np.array([1.2, 0.9])
        return clean, x_hat, p, y, w

    def test_convex_combination(self):
        clean, x_hat, p, y, w = self._inputs(1)
        total, mse, bce = joint_loss(clean, x_hat, p, y, w, alpha=0.6, return_parts=True)
        combo = 0.6 * float(mse.numpy()) + 0.4 * float(bce.numpy())
        assert abs(float(total.numpy()) - combo) < 1e-12

    def test_alpha_extremes(self):
        clean, x_hat, p, y, w = self._inputs(2)
        t1, mse, _ = joint_loss(clean, x_hat, p, y, w, alpha=1.0, return_parts=True)
        t0, _, bce = joint_loss(clean, x_hat, p, y, w, alpha=0.0, return_parts=True)
        assert abs(float(t1.numpy()) - float(mse.numpy())) < 1e-12
        assert abs(float(t0.numpy()) - float(bce.numpy())) < 1e-12

    def test_scalar_output(self):
        clean, x_hat, p, y, w = self._inputs(4)
        loss = joint_loss(clean, x_hat, p, y, w, alpha=0.6)
        assert loss.size == 1


class TestParameterInventory:
    def test_named_parameters_complete(self):
        fb = _fb(16, seed=14)
        names = set(fb.params)
        assert names == {
            "embed.w", "embed.b", "enhance.w", "enhance.b",
            "project.w", "project.b", "inj_den.w", "inj_cls.w",
        }

    def test_injection_matrices_start_at_zero(self):
        fb = _fb(16, seed=15)
        assert np.all(fb.params["inj_den.w"].numpy() == 0.0)
        assert np.all(fb.params["inj_cls.w"].numpy() == 0.0)
