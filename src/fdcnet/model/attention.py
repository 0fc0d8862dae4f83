"""Scaled dot-product attention heads in the time and DCT-coefficient domains.

Heads accept (..., T, d_h) with any leading batch/head dims. The frequency
head conjugates the same attention by an orthonormal DCT along the token
axis.
"""

from __future__ import annotations

import math

import numpy as np

from ..kernels import dct_forward, dct_inverse
from ..tensor import Tensor, as_tensor, make_op, swapaxes


# bytes of (..., T, T) attention weights handled at a time: about one
# core's L2 cache
BLOCK_BYTES = 1 << 20


def _blocks(shape) -> list:
    """Slices of the leading axis whose (..., T, T) weights take about
    BLOCK_BYTES each; one block when there is no leading axis."""
    if len(shape) == 2:
        return [slice(None)]
    # an empty head group (one head, split into time and frequency) has
    # no weights at all
    per_row = max(1, math.prod(shape[1:-1]) * shape[-2] * 8)
    step = max(1, BLOCK_BYTES // per_row)
    return [slice(i, i + step) for i in range(0, shape[0], step)]


def _weights(q, k, scale) -> np.ndarray:
    """softmax(Q K^T * scale) along the last axis, built in place."""
    p = np.matmul(q, np.swapaxes(k, -1, -2))
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def attention_head_time(q, k, v) -> Tensor:
    """softmax(Q K^T / sqrt(d_h)) V as one tape node.

    The node keeps only Q, K and V. The forward walks the leading axis in
    blocks of about BLOCK_BYTES of weights P and drops each block's P once
    it has written P V; the backward recomputes each block's P the same way.
    Both do the arithmetic of the matmul, scale, softmax, matmul chain in
    the same order, so values and gradients are that chain's bytes. The node
    is recorded under the op name ``softmax``.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    qd, kd, vd = q.data, k.data, v.data
    scale = 1.0 / math.sqrt(qd.shape[-1])
    blocks = _blocks(qd.shape)
    out = np.empty(qd.shape)
    for b in blocks:
        np.matmul(_weights(qd[b], kd[b], scale), vd[b], out=out[b])

    def bw(g):
        gv, gq = np.empty(qd.shape), np.empty(qd.shape)
        # K's gradient is built as (..., d_h, T) and returned transposed,
        # the layout the unfused chain handed on
        gkt = np.empty(qd.shape[:-2] + (qd.shape[-1], qd.shape[-2]))
        for b in blocks:
            p = _weights(qd[b], kd[b], scale)
            gs = np.matmul(g[b], np.swapaxes(vd[b], -1, -2))
            np.matmul(np.swapaxes(p, -1, -2), g[b], out=gv[b])
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= scale
            np.matmul(gs, kd[b], out=gq[b])
            np.matmul(np.swapaxes(qd[b], -1, -2), gs, out=gkt[b])
        return [gv, gq, np.swapaxes(gkt, -1, -2)]

    # V first: the order the unfused chain delivered its gradients in, which
    # fixes the sum when Q, K and V are the same tensor
    return make_op(out, (v, q, k), bw, "softmax")


def _dct_tokens(x) -> Tensor:
    # DCT along the token axis (second to last)
    return swapaxes(dct_forward(swapaxes(x, -1, -2)), -1, -2)


def _idct_tokens(x) -> Tensor:
    return swapaxes(dct_inverse(swapaxes(x, -1, -2)), -1, -2)


def attention_head_freq(q, k, v) -> Tensor:
    """Attention computed between DCT coefficient sequences, mapped back to
    the time domain."""
    return _idct_tokens(attention_head_time(_dct_tokens(q), _dct_tokens(k), _dct_tokens(v)))
