"""Post-norm Transformer encoder with mixed time/frequency attention heads."""

from __future__ import annotations

import math

import numpy as np

from ..kernels import dropout, gelu, layer_norm, linear
from ..tensor import Tensor, add, cast, concat, mul, reshape, transpose
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
        self.n_heads = n_heads
        self.head_dim = d_model // n_heads
        self.n_time = n_heads if not freq_heads else n_heads // 2
        self.dropout_rate = dropout_rate
        s = 1.0 / math.sqrt(d_model)

        def w(shape, scale):
            return Tensor(rng.normal(0.0, scale, shape), requires_grad=True)

        def const(shape, value):
            return Tensor(np.full(shape, value), requires_grad=True)

        self.params = {
            "attn.wq": w((d_model, d_model), s),
            "attn.wk": w((d_model, d_model), s),
            "attn.wv": w((d_model, d_model), s),
            "attn.wo": w((d_model, d_model), s),
            "ffn.w1": w((ff_dim, d_model), s),
            "ffn.b1": const(ff_dim, 0.0),
            "ffn.w2": w((d_model, ff_dim), 1.0 / math.sqrt(ff_dim)),
            "ffn.b2": const(d_model, 0.0),
            "ln1.gamma": const(d_model, 1.0),
            "ln1.beta": const(d_model, 0.0),
            "ln2.gamma": const(d_model, 1.0),
            "ln2.beta": const(d_model, 0.0),
        }

    def _split_heads(self, x) -> Tensor:
        b, t, _ = x.shape
        return transpose(reshape(x, (b, t, self.n_heads, self.head_dim)), (0, 2, 1, 3))

    def forward(self, h, training: bool = False, rng=None) -> Tensor:
        p = self.params
        b, t, d = h.shape
        q = self._split_heads(linear(h, p["attn.wq"]))  # B H T hd
        k = self._split_heads(linear(h, p["attn.wk"]))
        v = self._split_heads(linear(h, p["attn.wv"]))
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
        attn_out = dropout(linear(merged, p["attn.wo"]), self.dropout_rate, rng, training)
        h = layer_norm(add(h, attn_out), p["ln1.gamma"], p["ln1.beta"])
        ffn = linear(gelu(linear(h, p["ffn.w1"], p["ffn.b1"])), p["ffn.w2"], p["ffn.b2"])
        ffn = dropout(ffn, self.dropout_rate, rng, training)
        return layer_norm(add(h, ffn), p["ln2.gamma"], p["ln2.beta"])


class EegspEncoder:
    """Positional encoding plus a stack of encoder layers over (B, T, d),
    T <= t_max.

    Both settings add one sinusoid table: with ``eegsp`` scaled by the
    learnable band-limited envelope, and half of each layer's heads attend
    in the DCT domain; without it as it is, and every head attends in time.
    The table and the envelope are cast to the input's dtype.
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
        self.pe = BandLimitedPE() if eegsp else None
        self.table = sinusoid_table(t_max, d_model)
        self.layers = [
            EncoderLayer(d_model, n_heads, ff_dim, dropout_rate, rng, freq_heads=eegsp)
            for _ in range(n_layers)
        ]
        self.params = {f"pe.{name}": p for name, p in self.pe.params.items()} if eegsp else {}
        for i, layer in enumerate(self.layers):
            self.params.update({f"layers.{i}.{name}": p for name, p in layer.params.items()})

    def forward(self, x_emb, training: bool = False, rng=None) -> Tensor:
        dtype = x_emb.dtype
        table = self.table[: x_emb.shape[1]].astype(dtype, copy=False)
        if self.pe is not None:
            table = mul(cast(self.pe.envelope(), dtype), table)
        h = add(x_emb, table)
        for layer in self.layers:
            h = layer.forward(h, training, rng)
        return h
