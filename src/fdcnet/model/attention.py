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


# bytes of (..., T, T) scores handled at a time: about one core's L2 cache
BLOCK_BYTES = 1 << 20


def _blocks(shape, itemsize: int) -> list:
    """Slices of the leading axis whose (..., T, T) scores, of itemsize
    bytes each, take about BLOCK_BYTES; one block when there is no leading
    axis."""
    if len(shape) == 2:
        return [slice(None)]
    # an empty head group (one head, split into time and frequency) has
    # no scores at all
    per_row = max(1, math.prod(shape[1:-1]) * shape[-2] * itemsize)
    step = max(1, BLOCK_BYTES // per_row)
    return [slice(i, i + step) for i in range(0, shape[0], step)]


def attention_head_time(q, k, v) -> Tensor:
    """softmax(Q K^T / sqrt(d_h)) V as one tape node.

    With Qs = Q / sqrt(d_h), m the row max of Qs K^T, E = exp(Qs K^T - m)
    and s the row sum of E, the output is O = (E V) / s. The scale goes on
    Q and the normalisation on the (T, d_h) output, so the forward makes
    four passes over the (T, T) scores: max, subtract, exp and sum.

    The node keeps Q, K, V and the per-row m and s, never E or O. The
    backward rebuilds E from them (subtract, exp) and takes the softmax
    term from the output, D = rowsum(dO * O) / s, so that
    dS = E * ((dO / s) V^T - D) costs two more passes (subtract, multiply).
    Then dV = E^T (dO / s), dQ = dS K / sqrt(d_h) and dK = dS^T Qs.

    Both walk the leading axis in blocks of about BLOCK_BYTES of scores.
    Values and gradients agree with the unfused matmul, scale, softmax,
    matmul chain to rounding. The node is recorded under the op name
    ``softmax``.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    qd, kd, vd = q.data, k.data, v.data
    scale = 1.0 / math.sqrt(qd.shape[-1])
    blocks = _blocks(qd.shape, qd.itemsize)
    out = np.empty(qd.shape, qd.dtype)
    m, s = np.empty(qd.shape[:-1] + (1,), qd.dtype), np.empty(qd.shape[:-1] + (1,), qd.dtype)
    for b in blocks:
        e = np.matmul(qd[b] * scale, np.swapaxes(kd[b], -1, -2))
        e.max(axis=-1, keepdims=True, out=m[b])
        e -= m[b]
        np.exp(e, out=e)
        e.sum(axis=-1, keepdims=True, out=s[b])
        np.matmul(e, vd[b], out=out[b])
        out[b] /= s[b]

    def bw(g):
        gv, gq = np.empty(qd.shape, qd.dtype), np.empty(qd.shape, qd.dtype)
        # K's gradient is built as (..., d_h, T) and returned transposed,
        # the layout the unfused chain handed on
        gkt = np.empty(qd.shape[:-2] + (qd.shape[-1], qd.shape[-2]), qd.dtype)
        for b in blocks:
            qs = qd[b] * scale
            e = np.matmul(qs, np.swapaxes(kd[b], -1, -2))
            e -= m[b]
            np.exp(e, out=e)
            gn = g[b] / s[b]
            np.matmul(np.swapaxes(e, -1, -2), gn, out=gv[b])
            d = (gn * np.matmul(e, vd[b])).sum(axis=-1, keepdims=True)
            d /= s[b]
            gs = np.matmul(gn, np.swapaxes(vd[b], -1, -2))
            gs -= d
            gs *= e
            np.matmul(gs, kd[b], out=gq[b])
            np.matmul(np.swapaxes(qs, -1, -2), gs, out=gkt[b])
        gq *= scale
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
