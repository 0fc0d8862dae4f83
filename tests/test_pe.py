"""Band-limited learnable positional encoding."""

import numpy as np
import pytest

from conftest import numeric_grad, rng
from fdcnet.errors import DimensionError
from fdcnet.kernels import softmax
from fdcnet.model.pe import K_HI, K_LO, BandLimitedPE, sinusoid_table
from fdcnet.tensor import GradTape, Tensor, backward, tmean


def envelope_oracle(logits: np.ndarray) -> float:
    """Direct summation of sum_k softmax(logits)_k / sqrt(k) over k=4..45."""
    e = np.exp(logits - logits.max())
    alpha = e / e.sum()
    ks = np.arange(K_LO, K_HI + 1, dtype=np.float64)
    return float((alpha / np.sqrt(ks)).sum())


class TestTable:
    def test_shape_and_band_count(self):
        pe = BandLimitedPE(d_model=16, t_max=64)
        assert pe.alpha_logits.shape == (42,)
        assert K_HI - K_LO + 1 == 42
        out = pe.forward(10)
        assert out.shape == (10, 16)

    def test_pos_zero_row(self):
        pe = BandLimitedPE(d_model=8, t_max=32)
        out = pe.forward(4).numpy()
        env = envelope_oracle(pe.alpha_logits.numpy())
        np.testing.assert_allclose(out[0, 0::2], 0.0, atol=1e-15)  # sin(0)
        np.testing.assert_allclose(out[0, 1::2], env, atol=1e-12)  # cos(0)*envelope

    def test_uniform_logits_give_uniform_alpha(self):
        pe = BandLimitedPE(d_model=8)
        alpha = softmax(pe.alpha_logits).numpy()
        np.testing.assert_allclose(alpha, np.full(42, 1.0 / 42), atol=1e-12)

    def test_bound_by_envelope(self):
        pe = BandLimitedPE(d_model=32, t_max=128)
        pe.alpha_logits.data[:] = rng(0).normal(size=42)
        out = np.abs(pe.forward(128).numpy())
        env = envelope_oracle(pe.alpha_logits.numpy())
        assert out.max() <= env + 1e-12
        assert env <= 0.5 + 1e-12  # sum alpha_k / sqrt(k) <= 1/sqrt(4)

    def test_bound_is_tight_at_pos_zero(self):
        pe = BandLimitedPE(d_model=8)
        pe.alpha_logits.data[:] = rng(1).normal(size=42)
        out = np.abs(pe.forward(4).numpy())
        env = envelope_oracle(pe.alpha_logits.numpy())
        assert abs(out.max() - env) < 1e-12

    def test_pos_count_over_t_max(self):
        pe = BandLimitedPE(d_model=8, t_max=16)
        with pytest.raises(DimensionError):
            pe.forward(17)

    def test_envelope_bound_method_matches_oracle(self):
        pe = BandLimitedPE(d_model=8)
        pe.alpha_logits.data[:] = rng(2).normal(size=42)
        assert abs(pe.envelope_bound() - envelope_oracle(pe.alpha_logits.numpy())) < 1e-12


class TestSinusoidTable:
    def test_even_odd_pairing(self):
        tab = sinusoid_table(16, 8)
        # column 2i and 2i+1 share the same argument: sin^2 + cos^2 = 1
        s, c = tab[:, 0::2], tab[:, 1::2]
        np.testing.assert_allclose(s ** 2 + c ** 2, 1.0, atol=1e-12)

    def test_classic_form(self):
        d = 8
        tab = sinusoid_table(4, d)
        for pos in range(4):
            for i in range(0, d, 2):
                arg = pos / (10000.0 ** (i / d))
                assert abs(tab[pos, i] - np.sin(arg)) < 1e-12
                assert abs(tab[pos, i + 1] - np.cos(arg)) < 1e-12


class TestGradients:
    def test_alpha_logits_receive_gradient(self):
        pe = BandLimitedPE(d_model=8, t_max=32)
        pe.alpha_logits.data[:] = rng(3).normal(size=42) * 0.1
        with GradTape():
            out = pe.forward(16)
            backward(tmean(out * out))
        assert pe.alpha_logits.grad is not None
        assert np.abs(pe.alpha_logits.grad).max() > 0.0

    def test_alpha_gradient_matches_fd(self):
        pe = BandLimitedPE(d_model=8, t_max=32)
        base = rng(4).normal(size=42) * 0.1

        def f(logits):
            pe.alpha_logits.data[:] = logits
            return float(tmean(pe.forward(16) ** 2.0).numpy())

        pe.alpha_logits.data[:] = base
        with GradTape():
            backward(tmean(pe.forward(16) ** 2.0))
        analytic = pe.alpha_logits.grad.copy()
        numeric = numeric_grad(f, base.copy(), h=1e-6)
        denom = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
        assert np.abs(analytic - numeric).max() / denom < 1e-6

    def test_named_parameters(self):
        pe = BandLimitedPE(d_model=8)
        assert set(pe.named_parameters()) == {"alpha_logits"}
