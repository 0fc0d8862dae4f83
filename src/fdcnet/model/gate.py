"""Channel-aware dynamic gating: squeeze (temporal mean), two-layer
excitation, and per-channel multiplicative modulation."""

from __future__ import annotations

import math

import numpy as np

from ..errors import DimensionError
from ..kernels import linear, relu, sigmoid
from ..tensor import Tensor, as_tensor, mul, reshape, tmean


def channel_stats(x) -> Tensor:
    """Temporal mean per channel: (B, C, T) -> (B, C)."""
    x = as_tensor(x)
    if x.ndim != 3:
        raise DimensionError(f"channel_stats expects (B, C, T), got {x.shape}")
    return tmean(x, axis=2)


class ChannelGate:
    def __init__(self, n_channels: int, reduction: int, rng: np.random.Generator):
        hidden = n_channels // reduction
        self.n_channels = n_channels
        self.params = {
            "w1": Tensor(rng.normal(0.0, 1.0 / math.sqrt(n_channels), (hidden, n_channels)), requires_grad=True),
            "b1": Tensor(np.zeros(hidden), requires_grad=True),
            "w2": Tensor(rng.normal(0.0, 1.0 / math.sqrt(hidden), (n_channels, hidden)), requires_grad=True),
            "b2": Tensor(np.zeros(n_channels), requires_grad=True),
        }

    def weights(self, z) -> Tensor:
        """(B, C) channel statistics -> gate values strictly inside (0, 1)."""
        z = as_tensor(z)
        if z.ndim != 2 or z.shape[1] != self.n_channels:
            raise DimensionError(f"expected (B, {self.n_channels}), got {z.shape}")
        p = self.params
        return sigmoid(linear(relu(linear(z, p["w1"], p["b1"])), p["w2"], p["b2"]))


def modulate(x, alpha) -> Tensor:
    """Scale each channel of (B, C, T) by its (B, C) gate."""
    x = as_tensor(x)
    alpha = as_tensor(alpha)
    if x.ndim != 3 or alpha.ndim != 2 or x.shape[:2] != alpha.shape:
        raise DimensionError(f"modulate shapes disagree: x {x.shape}, alpha {alpha.shape}")
    return mul(x, reshape(alpha, alpha.shape + (1,)))
