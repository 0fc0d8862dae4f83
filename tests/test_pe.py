"""Band-limited learnable positional encoding: the sinusoid table scaled
by the envelope, as the encoder applies it with eegsp."""

import numpy as np

from conftest import numeric_grad, rng
from fdcnet.kernels import softmax
from fdcnet.model.pe import K_HI, K_LO, BandLimitedPE, sinusoid_table
from fdcnet.tensor import GradTape, backward, mul, tmean


def envelope_oracle(logits: np.ndarray) -> float:
    """Direct summation of sum_k softmax(logits)_k / sqrt(k) over k=4..45."""
    e = np.exp(logits - logits.max())
    alpha = e / e.sum()
    ks = np.arange(K_LO, K_HI + 1, dtype=np.float64)
    return float((alpha / np.sqrt(ks)).sum())


def encoding(pe: BandLimitedPE, d_model: int, pos_count: int, t_max: int = 512):
    """The (pos_count, d_model) eegsp encoding: envelope times table rows."""
    return mul(pe.envelope(), sinusoid_table(t_max, d_model)[:pos_count])


class TestTable:
    def test_shape_and_band_count(self):
        pe = BandLimitedPE()
        assert pe.params["alpha_logits"].shape == (42,)
        assert K_HI - K_LO + 1 == 42
        out = encoding(pe, 16, 10, t_max=64)
        assert out.shape == (10, 16)

    def test_pos_zero_row(self):
        pe = BandLimitedPE()
        out = encoding(pe, 8, 4, t_max=32).numpy()
        env = envelope_oracle(pe.params["alpha_logits"].numpy())
        np.testing.assert_allclose(out[0, 0::2], 0.0, atol=1e-15)  # sin(0)
        np.testing.assert_allclose(out[0, 1::2], env, atol=1e-12)  # cos(0)*envelope

    def test_uniform_logits_give_uniform_alpha(self):
        pe = BandLimitedPE()
        alpha = softmax(pe.params["alpha_logits"]).numpy()
        np.testing.assert_allclose(alpha, np.full(42, 1.0 / 42), atol=1e-12)

    def test_bound_by_envelope(self):
        pe = BandLimitedPE()
        pe.params["alpha_logits"].data[:] = rng(0).normal(size=42)
        out = np.abs(encoding(pe, 32, 128, t_max=128).numpy())
        env = envelope_oracle(pe.params["alpha_logits"].numpy())
        assert out.max() <= env + 1e-12
        assert env <= 0.5 + 1e-12  # sum alpha_k / sqrt(k) <= 1/sqrt(4)

    def test_bound_is_tight_at_pos_zero(self):
        pe = BandLimitedPE()
        pe.params["alpha_logits"].data[:] = rng(1).normal(size=42)
        out = np.abs(encoding(pe, 8, 4).numpy())
        env = envelope_oracle(pe.params["alpha_logits"].numpy())
        assert abs(out.max() - env) < 1e-12

    def test_envelope_matches_oracle(self):
        pe = BandLimitedPE()
        pe.params["alpha_logits"].data[:] = rng(2).normal(size=42)
        env = envelope_oracle(pe.params["alpha_logits"].numpy())
        assert abs(float(pe.envelope().numpy()) - env) < 1e-12


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
        pe = BandLimitedPE()
        logits = pe.params["alpha_logits"]
        logits.data[:] = rng(3).normal(size=42) * 0.1
        with GradTape():
            out = encoding(pe, 8, 16, t_max=32)
            backward(tmean(out * out))
        assert logits.grad is not None
        assert np.abs(logits.grad).max() > 0.0

    def test_alpha_gradient_matches_fd(self):
        pe = BandLimitedPE()
        base = rng(4).normal(size=42) * 0.1

        def loss():
            y = encoding(pe, 8, 16, t_max=32)
            return tmean(mul(y, y))

        def f(logits):
            pe.params["alpha_logits"].data[:] = logits
            return float(loss().numpy())

        pe.params["alpha_logits"].data[:] = base
        with GradTape():
            backward(loss())
        analytic = pe.params["alpha_logits"].grad.copy()
        numeric = numeric_grad(f, base.copy(), h=1e-6)
        denom = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
        assert np.abs(analytic - numeric).max() / denom < 1e-6

    def test_params(self):
        pe = BandLimitedPE()
        assert set(pe.params) == {"alpha_logits"}
