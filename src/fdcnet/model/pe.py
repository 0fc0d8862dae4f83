"""Band-limited learnable positional encoding.

The encoding is the classic sin/cos table scaled by a learnable spectral
envelope: softmax weights alpha over the EEG bands k = 4..45 Hz contribute
alpha_k / sqrt(k) each, so every table entry is bounded in magnitude by
sum_k alpha_k / sqrt(k) <= 1/2.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError
from ..kernels import softmax
from ..tensor import Tensor, mul, tsum

K_LO = 4
K_HI = 45


def sinusoid_table(t_max: int, d_model: int) -> np.ndarray:
    """Classic positional table: even columns sin(pos/10000^(2i/d)), odd
    columns cos with the same argument."""
    cols = np.arange(d_model)
    # even/odd pairs share the exponent of the even member
    exps = (cols - (cols % 2)) / d_model
    ang = np.arange(t_max)[:, None] * (10000.0**-exps)[None, :]
    return np.where(cols % 2 == 0, np.sin(ang), np.cos(ang))


class BandLimitedPE:
    def __init__(self, d_model: int, t_max: int = 512):
        self.t_max = t_max
        self.alpha_logits = Tensor(np.zeros(K_HI - K_LO + 1), requires_grad=True)
        self._inv_sqrt_k = 1.0 / np.sqrt(np.arange(K_LO, K_HI + 1, dtype=np.float64))
        self._table = sinusoid_table(t_max, d_model)

    def alpha(self) -> Tensor:
        return softmax(self.alpha_logits)

    def forward(self, pos_count: int) -> Tensor:
        """(pos_count, d_model) encoding; differentiable in alpha_logits."""
        if pos_count > self.t_max:
            raise DimensionError(f"pos_count {pos_count} exceeds table size {self.t_max}")
        envelope = tsum(mul(self.alpha(), self._inv_sqrt_k))
        return mul(envelope, self._table[:pos_count])

    def named_parameters(self) -> dict[str, Tensor]:
        return {"alpha_logits": self.alpha_logits}
