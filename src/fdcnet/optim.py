"""AdamW with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor

BETA1, BETA2 = 0.9, 0.999  # decay rates of the first and second moments
EPS = 1e-8  # added to the second moment's root


class AdamW:
    """Standard AdamW: bias-corrected Adam moments, weight decay applied
    directly to the parameter rather than through the gradient.

    ``params`` maps checkpoint path -> Tensor; paths make error messages
    and state inspection unambiguous.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 0.001, weight_decay: float = 0.01):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for path, p in self.params.items():
            g = p.grad
            if g is None:
                raise ContractError(f"no gradient for parameter {path!r}; run backward first")
            m = self.m[path]
            v = self.v[path]
            m += (1.0 - BETA1) * (g - m)
            v += (1.0 - BETA2) * (g * g - v)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
