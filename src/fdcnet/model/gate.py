"""Channel-aware dynamic gating: squeeze (temporal mean), two-layer
excitation, and per-channel multiplicative modulation."""

from __future__ import annotations

import math

import numpy as np

from ..kernels import linear, relu, sigmoid
from ..tensor import Tensor, cast, mul, reshape, tmean


def channel_stats(x) -> Tensor:
    """Temporal mean per channel: (B, C, T) -> (B, C), in float64."""
    return cast(tmean(x, axis=2), np.float64)


class ChannelGate:
    def __init__(self, n_channels: int, reduction: int, rng: np.random.Generator):
        hidden = n_channels // reduction
        self.params = {
            "w1": Tensor(rng.normal(0.0, 1.0 / math.sqrt(n_channels), (hidden, n_channels)), requires_grad=True),
            "b1": Tensor(np.zeros(hidden), requires_grad=True),
            "w2": Tensor(rng.normal(0.0, 1.0 / math.sqrt(hidden), (n_channels, hidden)), requires_grad=True),
            "b2": Tensor(np.zeros(n_channels), requires_grad=True),
        }

    def weights(self, z) -> Tensor:
        """(B, C) channel statistics -> gate values strictly inside (0, 1)."""
        p = self.params
        return sigmoid(linear(relu(linear(z, p["w1"], p["b1"])), p["w2"], p["b2"]))


def modulate(x, alpha) -> Tensor:
    """Scale each channel of (B, C, T) by its (B, C) gate, in x's dtype."""
    return mul(x, cast(reshape(alpha, alpha.shape + (1,)), x.dtype))
