"""Differentiable kernels on top of the tensor core.

Conventions:
  * conv1d is cross-correlation (the usual machine-learning convention),
    weight layout (C_out, C_in, K).
  * conv1d_transposed is its exact adjoint, weight layout (C_in, C_out, K),
    so the inner-product identity <conv(x, w), y> == <x, convT(y, w)> holds
    with the same weight tensor.
  * DCT-II / DCT-III use orthonormal scaling, so the inverse is the
    transpose and Parseval holds exactly.
  * GELU is the tanh approximation, differentiated analytically.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateDataError, DimensionError
from .tensor import Tensor, as_tensor, make_op

# -- activations -------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    y = 1.0 / (1.0 + np.exp(-x.data))

    def bw(g):
        return [g * y * (1.0 - y)]

    return make_op(y, (x,), bw, "sigmoid")


def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0

    def bw(g):
        return [g * mask]

    return make_op(np.where(mask, x.data, 0.0), (x,), bw, "relu")


def gelu(x) -> Tensor:
    x = as_tensor(x)
    d = x.data
    # u = C * (d + 0.044715 * (d * d * d)), then t = tanh(u), built in one
    # buffer; d * d * d, not d**3: NumPy sends integer powers other than 2
    # to libm pow
    t = d * d
    t *= d
    t *= 0.044715
    t += d
    t *= _GELU_C
    np.tanh(t, out=t)
    # y = 0.5 * d * (1 + t) in one more buffer; halving is exact, so where
    # it falls in the product changes no bit
    y = t + 1.0
    y *= d
    y *= 0.5

    def bw(g):
        # g * (0.5 * (1 + t) + 0.5 * d * (1 - t**2) * du) on three buffers,
        # with du = C * (1 + 3 * 0.044715 * d**2)
        du = d * d
        du *= 3 * 0.044715
        du += 1.0
        du *= _GELU_C
        dt = t * t
        np.subtract(1.0, dt, out=dt)
        gx = 0.5 * d
        dt *= gx
        dt *= du
        np.add(t, 1.0, out=gx)
        gx *= 0.5
        gx += dt
        gx *= g
        return [gx]

    return make_op(y, (x,), bw, "gelu")


def softmax(x) -> Tensor:
    """Softmax along the last dimension."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        return [(g - (g * y).sum(axis=-1, keepdims=True)) * y]

    return make_op(y, (x,), bw, "softmax")


# -- affine layers -----------------------------------------------------------

def linear(x, w, b=None) -> Tensor:
    """y = x @ w.T (+ b); w has shape (out, in), x shape (..., in)."""
    x, w = as_tensor(x), as_tensor(w)
    if x.shape[-1] != w.shape[1]:
        raise DimensionError(f"linear: x {x.shape} incompatible with w {w.shape}")
    xd, wd = x.data, w.data
    y = xd @ wd.T
    parents = [x, w]
    if b is not None:
        b = as_tensor(b)
        y = y + b.data
        parents.append(b)
    has_bias = b is not None

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        x2 = xd.reshape(-1, xd.shape[-1])
        grads = [g @ wd, g2.T @ x2]
        if has_bias:
            grads.append(g2.sum(axis=0))
        return grads

    return make_op(y, parents, bw, "linear")


def dropout(x, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    x = as_tensor(x)
    if not training or rate <= 0.0:
        return x
    # the tape keeps the boolean keep-mask (1 byte an element, not 8); forward
    # and backward rebuild the same float64 scale from it
    keep = rng.random(x.shape) >= rate

    def bw(g):
        return [g * (keep / (1.0 - rate))]

    return make_op(x.data * (keep / (1.0 - rate)), (x,), bw, "dropout")


# -- 1-D convolution ---------------------------------------------------------
# Stride 1. conv1d's forward and conv1d_transposed's input gradient both run
# _correlate; the other two run _scatter. Both are plain NumPy, so no backward
# records an op of its own. Each weight gradient contracts the other operand
# with a window matrix, as np.tensordot would, to the same bytes.

def _window_matrix(x: np.ndarray, k: int, padding: int) -> np.ndarray:
    """The (B * T_out, A * K) matrix of the length-K windows of x (B, A, T)
    padded by p on each side, T_out = T + 2p - K + 1."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding))) if padding else x
    win = sliding_window_view(xp, k, axis=2)
    b, a, t_out, _ = win.shape
    return win.transpose(0, 2, 1, 3).reshape(b * t_out, a * k)


def _correlate(x: np.ndarray, w: np.ndarray, padding: int) -> tuple[np.ndarray, np.ndarray]:
    """x (B, A, T) cross-correlated with w (D, A, K) -> (B, D, T_out), and
    the window matrix of x that it multiplied w with."""
    d, a, k = w.shape
    m = _window_matrix(x, k, padding)
    # contract (A, K) pairs through BLAS: (B * T_out, D) -> (B, D, T_out)
    y = np.dot(m, w.transpose(1, 2, 0).reshape(a * k, d)).reshape(len(x), -1, d).transpose(0, 2, 1)
    return np.ascontiguousarray(y), m


def _scatter(x: np.ndarray, w: np.ndarray, padding: int) -> np.ndarray:
    """x (B, A, T) scattered through w (A, D, K) -> (B, D, T + K - 1 - 2p);
    the adjoint of _correlate in x."""
    b, _, t = x.shape
    k = w.shape[2]
    xt = x.transpose(0, 2, 1)
    # built as (B, T + K - 1, D), so that each tap adds one contiguous slab
    full = np.zeros((b, t + k - 1, w.shape[1]))
    for kk in range(k):
        # (B, T, A) @ (A, D) -> (B, T, D), added at offset kk
        full[:, kk : kk + t] += np.matmul(xt, w[:, :, kk])
    return np.ascontiguousarray(full[:, padding : full.shape[1] - padding].transpose(0, 2, 1))


def conv1d(x, w, padding: int = 0) -> Tensor:
    """Cross-correlation: x (B, C_in, T), w (C_out, C_in, K) -> (B, C_out, T_out)."""
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 3 or w.ndim != 3:
        raise DimensionError(f"conv1d expects 3-D x and w, got {x.shape}, {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise DimensionError(f"conv1d channel mismatch: x {x.shape} vs w {w.shape}")
    k = w.shape[2]
    t_pad = x.shape[2] + 2 * padding
    if k > t_pad:
        raise DimensionError(
            f"kernel size {k} exceeds padded length {t_pad} (T={x.shape[2]}, padding={padding})"
        )
    xd, wd = x.data, w.data
    y, _ = _correlate(xd, wd, padding)

    def bw(g):
        # the window matrix is K times the size of x: rebuilt, not kept
        gw = np.dot(g.transpose(1, 0, 2).reshape(g.shape[1], -1), _window_matrix(xd, k, padding))
        # conv1d weights are (C_out, C_in, K): the scatter's (A, D, K) layout
        return [_scatter(g, wd, padding), gw.reshape(wd.shape)]

    return make_op(y, (x, w), bw, "conv1d")


def conv1d_transposed(x, w, padding: int = 0) -> Tensor:
    """Adjoint of conv1d: x (B, C_in, T), w (C_in, C_out, K) -> (B, C_out, T_up).

    T_up = T - 2 * padding + K - 1.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 3 or w.ndim != 3:
        raise DimensionError(f"conv1d_transposed expects 3-D x and w, got {x.shape}, {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"conv1d_transposed channel mismatch: x {x.shape} vs w {w.shape}")
    t_up = x.shape[2] + w.shape[2] - 1 - 2 * padding
    if t_up < 1:
        raise DimensionError(f"conv1d_transposed output length {t_up} < 1 "
                             f"(T={x.shape[2]}, K={w.shape[2]}, padding={padding})")

    xd, wd = x.data, w.data

    def bw(g):
        # the weights are (C_in, C_out, K): the correlation's (D, A, K) layout
        gx, gm = _correlate(g, wd, padding)
        gw = np.dot(xd.transpose(1, 0, 2).reshape(xd.shape[1], -1), gm)
        return [gx, gw.reshape(wd.shape)]

    return make_op(_scatter(xd, wd, padding), (x, w), bw, "conv1d_transposed")


# -- normalization -----------------------------------------------------------

NORM_EPS = 1e-5  # added to the variance of both norms
BN_MOMENTUM = 0.1  # weight of a batch's statistics in the running buffers


def batch_norm(
    x,
    gamma,
    beta,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    *,
    training: bool,
) -> Tensor:
    """Per-channel batch norm over (B, T) of a (B, C, T) input.

    Training mode standardizes with biased batch statistics and folds them
    into the running buffers with momentum BN_MOMENTUM; eval mode uses the
    running buffers.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 3:
        raise DimensionError(f"batch_norm expects (B, C, T), got {x.shape}")
    b, c, t = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(f"batch_norm gamma/beta must be ({c},)")
    gm = gamma.data.reshape(1, c, 1)
    bt = beta.data.reshape(1, c, 1)
    if training:
        n = b * t
        if n < 2:
            raise DegenerateDataError(f"batch_norm needs B*T >= 2 in train mode, got {n}")
        mu = x.data.mean(axis=(0, 2))
        var = x.data.var(axis=(0, 2))
        running_mean += BN_MOMENTUM * (mu - running_mean)
        running_var += BN_MOMENTUM * (var - running_var)
        ivar = 1.0 / np.sqrt(var + NORM_EPS)
        xhat = (x.data - mu.reshape(1, c, 1)) * ivar.reshape(1, c, 1)

        def bw(g):
            gsum = g.sum(axis=(0, 2), keepdims=True)
            gx_sum = (g * xhat).sum(axis=(0, 2), keepdims=True)
            gx = (gm * ivar.reshape(1, c, 1) / n) * (n * g - gsum - xhat * gx_sum)
            return [gx, (g * xhat).sum(axis=(0, 2)), g.sum(axis=(0, 2))]

    else:
        ivar = 1.0 / np.sqrt(running_var + NORM_EPS)
        xhat = (x.data - running_mean.reshape(1, c, 1)) * ivar.reshape(1, c, 1)

        def bw(g):
            return [g * gm * ivar.reshape(1, c, 1), (g * xhat).sum(axis=(0, 2)), g.sum(axis=(0, 2))]

    return make_op(xhat * gm + bt, (x, gamma, beta), bw, "batch_norm")


def layer_norm(x, gamma, beta) -> Tensor:
    """Layer norm over the last dimension."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = (x.data - mu) * ivar
    gd = gamma.data

    def bw(g):
        gh = g * gd
        gx = ivar / d * (d * gh - gh.sum(axis=-1, keepdims=True) - xhat * (gh * xhat).sum(axis=-1, keepdims=True))
        lead = tuple(range(xhat.ndim - 1))
        return [gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)]

    return make_op(xhat * gd + beta.data, (x, gamma, beta), bw, "layer_norm")


# -- orthonormal DCT ---------------------------------------------------------

_DCT_CACHE: dict[int, np.ndarray] = {}


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix C: y = C @ x; C @ C.T == I."""
    mat = _DCT_CACHE.get(n)
    if mat is None:
        t = np.arange(n)
        k = t.reshape(-1, 1)
        mat = np.cos(np.pi * (2 * t + 1) * k / (2.0 * n))
        mat *= np.sqrt(2.0 / n)
        mat[0] *= np.sqrt(0.5)
        _DCT_CACHE[n] = mat
    return mat


def dct_forward(x) -> Tensor:
    """Orthonormal DCT-II along the last dimension."""
    x = as_tensor(x)
    c = dct_matrix(x.shape[-1])

    def bw(g):
        return [g @ c]

    return make_op(x.data @ c.T, (x,), bw, "dct_forward")


def dct_inverse(x) -> Tensor:
    """Orthonormal DCT-III (inverse of dct_forward) along the last dimension."""
    x = as_tensor(x)
    c = dct_matrix(x.shape[-1])

    def bw(g):
        return [g @ c.T]

    return make_op(x.data @ c, (x,), bw, "dct_inverse")
