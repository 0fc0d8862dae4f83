"""Scaled dot-product attention heads in the time and DCT-coefficient domains.

Heads accept (..., T, d_h) with any leading batch/head dims. The frequency
head conjugates the same attention by an orthonormal DCT along the token
axis.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DimensionError
from ..kernels import dct_forward, dct_inverse
from ..tensor import Tensor, as_tensor, make_op, swapaxes


def _check(q, k, v):
    if not (q.shape == k.shape == v.shape):
        raise DimensionError(f"Q/K/V shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    if q.ndim < 2:
        raise DimensionError(f"attention needs (..., T, d_h), got {q.shape}")


def attention_head_time(q, k, v) -> Tensor:
    """softmax(Q K^T / sqrt(d_h)) V as one tape node.

    The node keeps only Q, K, V and the softmax output P. Forward and
    backward do the arithmetic of the matmul, scale, softmax, matmul chain
    in the same order, so values and gradients are that chain's bytes. The
    node is recorded under the op name ``softmax``.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    _check(q, k, v)
    scale = 1.0 / math.sqrt(q.shape[-1])
    p = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def bw(g):
        gs = np.matmul(g, np.swapaxes(v.data, -1, -2))
        gv = np.matmul(np.swapaxes(p, -1, -2), g)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        gq = np.matmul(gs, k.data)
        gk = np.swapaxes(np.matmul(np.swapaxes(q.data, -1, -2), gs), -1, -2)
        # V first: the order the unfused chain delivered its gradients in,
        # which fixes the sum when Q, K and V are the same tensor
        return [(v, gv), (q, gq), (k, gk)]

    return make_op(np.matmul(p, v.data), (q, k, v), bw, "softmax")


def _dct_tokens(x) -> Tensor:
    # DCT along the token axis (second to last)
    return swapaxes(dct_forward(swapaxes(x, -1, -2)), -1, -2)


def _idct_tokens(x) -> Tensor:
    return swapaxes(dct_inverse(swapaxes(x, -1, -2)), -1, -2)


def attention_head_freq(q, k, v) -> Tensor:
    """Attention computed between DCT coefficient sequences, mapped back to
    the time domain."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    _check(q, k, v)
    return _idct_tokens(attention_head_time(_dct_tokens(q), _dct_tokens(k), _dct_tokens(v)))
