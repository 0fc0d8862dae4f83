"""Denoising path: conv channel lift, transposed-conv decoder, residual output."""

from __future__ import annotations

import math

import numpy as np

from ..errors import DimensionError
from ..kernels import batch_norm, conv1d, conv1d_transposed, gelu
from ..tensor import Tensor, add, as_tensor, reshape, swapaxes, tmean, mul, sub


class ConvStem:
    """Channel lift C -> d_model, kernel 7, stride 1, same-length padding."""

    def __init__(self, n_channels: int, d_model: int, kernel_size: int, rng: np.random.Generator):
        self.padding = kernel_size // 2
        scale = 1.0 / math.sqrt(n_channels * kernel_size)
        self.w = Tensor(rng.normal(0.0, scale, (d_model, n_channels, kernel_size)), requires_grad=True)
        self.b = Tensor(np.zeros(d_model), requires_grad=True)

    def forward(self, x) -> Tensor:
        y = conv1d(x, self.w, padding=self.padding)
        return add(y, reshape(self.b, (1, self.b.shape[0], 1)))

    def named_parameters(self) -> dict[str, Tensor]:
        return {"w": self.w, "b": self.b}


class Decoder:
    """Transposed conv d_model -> d_model, BatchNorm, GELU, then a
    zero-initialized transposed conv d_model -> C. Zero init makes the whole
    network start at the identity mapping through the residual connection."""

    def __init__(self, d_model: int, n_channels: int, kernel_size: int, rng: np.random.Generator):
        self.padding = kernel_size // 2
        scale = 1.0 / math.sqrt(d_model * kernel_size)
        self.w1 = Tensor(rng.normal(0.0, scale, (d_model, d_model, kernel_size)), requires_grad=True)
        self.b1 = Tensor(np.zeros(d_model), requires_grad=True)
        self.bn_gamma = Tensor(np.ones(d_model), requires_grad=True)
        self.bn_beta = Tensor(np.zeros(d_model), requires_grad=True)
        self.running_mean = np.zeros(d_model)
        self.running_var = np.ones(d_model)
        self.w2 = Tensor(np.zeros((d_model, n_channels, kernel_size)), requires_grad=True)
        self.b2 = Tensor(np.zeros(n_channels), requires_grad=True)

    def forward(self, h, training: bool = False) -> Tensor:
        y = conv1d_transposed(h, self.w1, padding=self.padding)
        y = add(y, reshape(self.b1, (1, self.b1.shape[0], 1)))
        y = batch_norm(y, self.bn_gamma, self.bn_beta, self.running_mean, self.running_var, training=training)
        y = gelu(y)
        y = conv1d_transposed(y, self.w2, padding=self.padding)
        return add(y, reshape(self.b2, (1, self.b2.shape[0], 1)))

    def named_parameters(self) -> dict[str, Tensor]:
        return {
            "conv1.w": self.w1,
            "conv1.b": self.b1,
            "bn.gamma": self.bn_gamma,
            "bn.beta": self.bn_beta,
            "conv2.w": self.w2,
            "conv2.b": self.b2,
        }

    def named_buffers(self) -> dict[str, np.ndarray]:
        return {"bn.running_mean": self.running_mean, "bn.running_var": self.running_var}


def denoise_forward(x_noisy, h_denoise, decoder: Decoder, training: bool = False) -> Tensor:
    """x_hat = decoder(h_denoise) + x_noisy; h_denoise is (B, T, d_model)."""
    x_noisy = as_tensor(x_noisy)
    dec = decoder.forward(swapaxes(h_denoise, 1, 2), training)
    if dec.shape != x_noisy.shape:
        raise DimensionError(f"decoder output {dec.shape} does not match input {x_noisy.shape}")
    return add(dec, x_noisy)


def denoise_loss(x_clean, x_hat) -> Tensor:
    """Mean squared reconstruction error (mean over batch and elements)."""
    x_clean = as_tensor(x_clean)
    x_hat = as_tensor(x_hat)
    if x_clean.shape != x_hat.shape:
        raise DimensionError(f"shape mismatch: {x_clean.shape} vs {x_hat.shape}")
    diff = sub(x_hat, x_clean)
    return tmean(mul(diff, diff))
