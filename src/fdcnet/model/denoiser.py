"""Denoising path: conv channel lift, transposed-conv decoder, residual output."""

from __future__ import annotations

import math

import numpy as np

from ..kernels import batch_norm, conv1d, conv1d_transposed, gelu
from ..tensor import Tensor, add, cast, reshape, swapaxes, tmean, mul, sub


def _add_bias(y, b) -> Tensor:
    """y (B, C, T) plus the (C,) bias b, in y's dtype."""
    return add(y, cast(reshape(b, (1, b.shape[0], 1)), y.dtype))


class ConvStem:
    """Channel lift C -> d_model, kernel 7, stride 1, same-length padding."""

    def __init__(self, n_channels: int, d_model: int, kernel_size: int, rng: np.random.Generator):
        self.padding = kernel_size // 2
        scale = 1.0 / math.sqrt(n_channels * kernel_size)
        self.params = {
            "w": Tensor(rng.normal(0.0, scale, (d_model, n_channels, kernel_size)), requires_grad=True),
            "b": Tensor(np.zeros(d_model), requires_grad=True),
        }

    def forward(self, x) -> Tensor:
        return _add_bias(conv1d(x, self.params["w"], padding=self.padding), self.params["b"])


class Decoder:
    """Transposed conv d_model -> d_model, BatchNorm, GELU, then a
    zero-initialized transposed conv d_model -> C. Zero init makes the whole
    network start at the identity mapping through the residual connection."""

    def __init__(self, d_model: int, n_channels: int, kernel_size: int, rng: np.random.Generator):
        self.padding = kernel_size // 2
        scale = 1.0 / math.sqrt(d_model * kernel_size)
        self.params = {
            "conv1.w": Tensor(rng.normal(0.0, scale, (d_model, d_model, kernel_size)), requires_grad=True),
            "conv1.b": Tensor(np.zeros(d_model), requires_grad=True),
            "bn.gamma": Tensor(np.ones(d_model), requires_grad=True),
            "bn.beta": Tensor(np.zeros(d_model), requires_grad=True),
            "conv2.w": Tensor(np.zeros((d_model, n_channels, kernel_size)), requires_grad=True),
            "conv2.b": Tensor(np.zeros(n_channels), requires_grad=True),
        }
        # BatchNorm running statistics: checkpointed, never trained
        self.buffers = {"bn.running_mean": np.zeros(d_model), "bn.running_var": np.ones(d_model)}

    def forward(self, h, training: bool = False) -> Tensor:
        p, buf = self.params, self.buffers
        y = conv1d_transposed(h, p["conv1.w"], padding=self.padding)
        y = _add_bias(y, p["conv1.b"])
        y = batch_norm(y, p["bn.gamma"], p["bn.beta"], buf["bn.running_mean"], buf["bn.running_var"],
                       training=training)
        y = gelu(y)
        y = conv1d_transposed(y, p["conv2.w"], padding=self.padding)
        return _add_bias(y, p["conv2.b"])


def denoise_forward(x_noisy, h_denoise, decoder: Decoder, training: bool = False) -> Tensor:
    """x_hat = decoder(h_denoise) + x_noisy; h_denoise is (B, T, d_model)."""
    return add(decoder.forward(swapaxes(h_denoise, 1, 2), training), x_noisy)


def denoise_loss(x_clean, x_hat) -> Tensor:
    """Mean squared reconstruction error (mean over batch and elements)."""
    diff = sub(x_hat, x_clean)
    return tmean(mul(diff, diff))
