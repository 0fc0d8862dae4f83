"""Post-norm Transformer encoder with mixed time/frequency attention heads."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, DimensionError
from ..kernels import dropout, gelu, layer_norm, linear
from ..tensor import Tensor, add, concat, reshape, transpose
from .attention import attention_head_freq, attention_head_time
from .pe import BandLimitedPE, sinusoid_table


class EncoderLayer:
    """Multi-head attention (half the heads in the time domain, half in the
    DCT domain) + feed-forward, each with residual, dropout, and layer norm
    after the residual (post-norm)."""

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        ff_dim: int,
        dropout_rate: float,
        rng: np.random.Generator,
        freq_heads: bool = True,
    ):
        if d_model % n_heads != 0:
            raise ConfigError(f"n_heads {n_heads} must divide d_model {d_model}")
        if freq_heads and n_heads % 2 != 0:
            raise ConfigError(f"n_heads must be even for the time/freq split, got {n_heads}")
        self.n_heads = n_heads
        self.head_dim = d_model // n_heads
        self.n_time = n_heads if not freq_heads else n_heads // 2
        self.dropout_rate = dropout_rate
        s = 1.0 / math.sqrt(d_model)

        def w(shape, scale):
            return Tensor(rng.normal(0.0, scale, shape), requires_grad=True)

        self.wq = w((d_model, d_model), s)
        self.wk = w((d_model, d_model), s)
        self.wv = w((d_model, d_model), s)
        self.wo = w((d_model, d_model), s)
        self.ffn_w1 = w((ff_dim, d_model), s)
        self.ffn_b1 = Tensor(np.zeros(ff_dim), requires_grad=True)
        self.ffn_w2 = w((d_model, ff_dim), 1.0 / math.sqrt(ff_dim))
        self.ffn_b2 = Tensor(np.zeros(d_model), requires_grad=True)
        self.ln1_gamma = Tensor(np.ones(d_model), requires_grad=True)
        self.ln1_beta = Tensor(np.zeros(d_model), requires_grad=True)
        self.ln2_gamma = Tensor(np.ones(d_model), requires_grad=True)
        self.ln2_beta = Tensor(np.zeros(d_model), requires_grad=True)

    def _split_heads(self, x) -> Tensor:
        b, t, _ = x.shape
        return transpose(reshape(x, (b, t, self.n_heads, self.head_dim)), (0, 2, 1, 3))

    def forward(self, h, training: bool = False, rng=None) -> Tensor:
        b, t, d = h.shape
        q = self._split_heads(linear(h, self.wq))  # B H T hd
        k = self._split_heads(linear(h, self.wk))
        v = self._split_heads(linear(h, self.wv))
        nt = self.n_time
        if nt == self.n_heads:
            heads = attention_head_time(q, k, v)
        else:
            heads = concat(
                [
                    attention_head_time(q[:, :nt], k[:, :nt], v[:, :nt]),
                    attention_head_freq(q[:, nt:], k[:, nt:], v[:, nt:]),
                ],
                axis=1,
            )
        merged = reshape(transpose(heads, (0, 2, 1, 3)), (b, t, d))
        attn_out = dropout(linear(merged, self.wo), self.dropout_rate, rng, training)
        h = layer_norm(add(h, attn_out), self.ln1_gamma, self.ln1_beta)
        ffn = linear(gelu(linear(h, self.ffn_w1, self.ffn_b1)), self.ffn_w2, self.ffn_b2)
        ffn = dropout(ffn, self.dropout_rate, rng, training)
        return layer_norm(add(h, ffn), self.ln2_gamma, self.ln2_beta)

    def named_parameters(self) -> dict[str, Tensor]:
        return {
            "attn.wq": self.wq,
            "attn.wk": self.wk,
            "attn.wv": self.wv,
            "attn.wo": self.wo,
            "ffn.w1": self.ffn_w1,
            "ffn.b1": self.ffn_b1,
            "ffn.w2": self.ffn_w2,
            "ffn.b2": self.ffn_b2,
            "ln1.gamma": self.ln1_gamma,
            "ln1.beta": self.ln1_beta,
            "ln2.gamma": self.ln2_gamma,
            "ln2.beta": self.ln2_beta,
        }


class EegspEncoder:
    """Positional encoding plus a stack of encoder layers over (B, T, d).

    With ``eegsp`` the encoding is the learnable band-limited one and half
    of each layer's heads attend in the DCT domain; without it the encoding
    is the fixed sinusoid table and every head attends in time.
    """

    def __init__(
        self,
        d_model: int,
        n_layers: int,
        n_heads: int,
        ff_dim: int,
        dropout_rate: float,
        rng: np.random.Generator,
        t_max: int = 512,
        eegsp: bool = True,
    ):
        self.pe = BandLimitedPE(d_model, t_max) if eegsp else None
        self._fixed_table = None if eegsp else sinusoid_table(t_max, d_model)
        self.layers = [
            EncoderLayer(d_model, n_heads, ff_dim, dropout_rate, rng, freq_heads=eegsp)
            for _ in range(n_layers)
        ]

    def forward(self, x_emb, training: bool = False, rng=None) -> Tensor:
        t = x_emb.shape[1]
        if self.pe is not None:
            table = self.pe.forward(t)
        elif t <= len(self._fixed_table):
            table = self._fixed_table[:t]
        else:
            raise DimensionError(f"pos_count {t} exceeds table size {len(self._fixed_table)}")
        h = add(x_emb, table)
        for layer in self.layers:
            h = layer.forward(h, training, rng)
        return h

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        if self.pe is not None:
            for name, p in self.pe.named_parameters().items():
                out[f"pe.{name}"] = p
        for i, layer in enumerate(self.layers):
            for name, p in layer.named_parameters().items():
                out[f"layers.{i}.{name}"] = p
        return out
