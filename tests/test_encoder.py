"""Encoder stack: determinism, shapes, PE learnability, head split."""

import numpy as np
import pytest

from conftest import rng
from fdcnet.errors import ConfigError
from fdcnet.model.encoder import EegspEncoder, EncoderLayer
from fdcnet.tensor import GradTape, Tensor, backward, tmean


def _encoder(d=16, layers=1, heads=4, seed=0, **kw):
    return EegspEncoder(d, layers, heads, ff_dim=32, dropout_rate=0.1,
                        rng=rng(seed), t_max=64, **kw)


class TestForward:
    def test_eval_deterministic(self):
        enc = _encoder()
        x = Tensor(rng(1).normal(size=(2, 16, 16)))
        a = enc.forward(x, training=False).numpy()
        b = enc.forward(x, training=False).numpy()
        np.testing.assert_array_equal(a, b)

    def test_shape_contract(self):
        enc = EegspEncoder(32, 2, 8, ff_dim=64, dropout_rate=0.1, rng=rng(2), t_max=128)
        x = Tensor(rng(3).normal(size=(2, 128, 32)))
        assert enc.forward(x, training=False).shape == (2, 128, 32)

    def test_dropout_changes_training_output(self):
        enc = _encoder()
        x = Tensor(rng(4).normal(size=(2, 8, 16)))
        a = enc.forward(x, training=True, rng=rng(5)).numpy()
        b = enc.forward(x, training=True, rng=rng(6)).numpy()
        assert not np.array_equal(a, b)

    def test_training_with_same_rng_deterministic(self):
        enc = _encoder()
        x = Tensor(rng(7).normal(size=(2, 8, 16)))
        a = enc.forward(x, training=True, rng=rng(8)).numpy()
        b = enc.forward(x, training=True, rng=rng(8)).numpy()
        np.testing.assert_array_equal(a, b)


class TestPeLearnability:
    def test_alpha_logits_gradient_nonzero(self):
        enc = _encoder()
        x = Tensor(rng(9).normal(size=(2, 8, 16)))
        with GradTape():
            out = enc.forward(x, training=False)
            backward(tmean(out * out))
        g = enc.pe.alpha_logits.grad
        assert g is not None and np.abs(g).max() > 0.0

    def test_fixed_pe_has_no_learnables(self):
        enc = _encoder(eegsp=False)
        assert not any(k.startswith("pe.") for k in enc.named_parameters())


class TestConfig:
    def test_odd_heads_rejected_with_freq_split(self):
        with pytest.raises(ConfigError):
            EncoderLayer(16, 3, 32, 0.1, rng(10))

    def test_odd_heads_allowed_time_only(self):
        layer = EncoderLayer(15, 3, 32, 0.1, rng(11), freq_heads=False)
        x = Tensor(rng(12).normal(size=(2, 6, 15)))
        assert layer.forward(x, training=False).shape == (2, 6, 15)

    def test_head_dim_must_divide(self):
        with pytest.raises(ConfigError):
            EncoderLayer(18, 4, 32, 0.1, rng(13))

    def test_named_parameters_structure(self):
        enc = _encoder(layers=2)
        names = set(enc.named_parameters())
        assert "pe.alpha_logits" in names
        for i in (0, 1):
            for sub in ("attn.wq", "attn.wk", "attn.wv", "attn.wo",
                        "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2",
                        "ln1.gamma", "ln1.beta", "ln2.gamma", "ln2.beta"):
                assert f"layers.{i}.{sub}" in names


class TestMixedHeads:
    def test_freq_heads_change_output(self):
        # same weights, freq split on vs off should differ on generic input
        a = EncoderLayer(16, 4, 32, 0.1, rng(20), freq_heads=True)
        b = EncoderLayer(16, 4, 32, 0.1, rng(20), freq_heads=False)
        for (ka, ta), (kb, tb) in zip(a.named_parameters().items(), b.named_parameters().items()):
            assert ka == kb
            np.testing.assert_array_equal(ta.data, tb.data)
        x = Tensor(rng(21).normal(size=(2, 8, 16)))
        out_a = a.forward(x, training=False).numpy()
        out_b = b.forward(x, training=False).numpy()
        assert not np.allclose(out_a, out_b)
