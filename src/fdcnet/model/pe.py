"""Positional encoding: the classic sin/cos table, and the learnable
band-limited envelope that scales it when ``eegsp`` is on.

Softmax weights alpha over the EEG bands k = 4..45 Hz contribute
alpha_k / sqrt(k) each to the scalar envelope, so every entry of the scaled
table is bounded in magnitude by sum_k alpha_k / sqrt(k) <= 1/2.
"""

from __future__ import annotations

import numpy as np

from ..kernels import softmax
from ..tensor import Tensor, mul, tsum

K_LO = 4
K_HI = 45
_INV_SQRT_K = 1.0 / np.sqrt(np.arange(K_LO, K_HI + 1, dtype=np.float64))


def sinusoid_table(t_max: int, d_model: int) -> np.ndarray:
    """Classic positional table: even columns sin(pos/10000^(2i/d)), odd
    columns cos with the same argument."""
    cols = np.arange(d_model)
    # even/odd pairs share the exponent of the even member
    exps = (cols - (cols % 2)) / d_model
    ang = np.arange(t_max)[:, None] * (10000.0**-exps)[None, :]
    return np.where(cols % 2 == 0, np.sin(ang), np.cos(ang))


class BandLimitedPE:
    def __init__(self):
        self.params = {"alpha_logits": Tensor(np.zeros(K_HI - K_LO + 1), requires_grad=True)}

    def envelope(self) -> Tensor:
        """The scalar sum_k softmax(alpha_logits)_k / sqrt(k); differentiable
        in alpha_logits."""
        return tsum(mul(softmax(self.params["alpha_logits"]), _INV_SQRT_K))
