"""Classification path: temporal-attention pooling, two-layer head,
frequency-weighted BCE, and quadrant accuracy."""

from __future__ import annotations

import math

import numpy as np

from ..errors import DegenerateDataError
from ..kernels import gelu, linear, sigmoid, softmax
from ..tensor import Tensor, cast, clamp, log, mul, neg, reshape, tmean, tsum

PROB_CLAMP = 1e-7


class ClassifierHead:
    def __init__(self, d_model: int, hidden: int, rng: np.random.Generator):
        s = 1.0 / math.sqrt(d_model)
        self.params = {
            "attn.w": Tensor(rng.normal(0.0, s, (1, d_model)), requires_grad=True),
            "attn.b": Tensor(np.zeros(1), requires_grad=True),
            "head.w1": Tensor(rng.normal(0.0, s, (hidden, d_model)), requires_grad=True),
            "head.b1": Tensor(np.zeros(hidden), requires_grad=True),
            "head.w2": Tensor(rng.normal(0.0, 1.0 / math.sqrt(hidden), (2, hidden)), requires_grad=True),
            "head.b2": Tensor(np.zeros(2), requires_grad=True),
        }


def classify_forward(h_classify, params: ClassifierHead) -> tuple[Tensor, Tensor]:
    """(B, T, d_model) latent -> (logits, p), p = per-dimension sigmoid.

    Pooling is attention-weighted: a scalar score per time step, softmax over
    T, then the weighted temporal sum. Zero score weights reduce it to the
    plain temporal mean. The pooled features and everything after them are
    float64.
    """
    b, t, _ = h_classify.shape
    p = params.params
    scores = reshape(linear(h_classify, p["attn.w"], p["attn.b"]), (b, t))
    weights = softmax(scores)
    pooled = cast(tsum(mul(h_classify, reshape(weights, (b, t, 1))), axis=1), np.float64)
    logits = linear(gelu(linear(pooled, p["head.w1"], p["head.b1"])), p["head.w2"], p["head.b2"])
    return logits, sigmoid(logits)


def class_weights(labels) -> np.ndarray:
    """The (2,) loss weights w_c = 1/sqrt(f_c), f_c the positive-label
    frequency of dimension c."""
    f = np.asarray(labels, dtype=np.float64).mean(axis=0)
    if (f <= 0.0).any() or (f >= 1.0).any():
        raise DegenerateDataError(
            f"label frequencies {f.tolist()} degenerate; need both classes per dimension"
        )
    return 1.0 / np.sqrt(f)


def weighted_bce(p, y, w: np.ndarray) -> Tensor:
    """Mean over the batch of the per-dimension binary cross entropy
    weighted by the (2,) array w; probabilities clamped to [1e-7, 1 - 1e-7]."""
    y_arr = np.asarray(y, dtype=np.float64)
    pc = clamp(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    per = neg(mul(log(pc), y_arr) + mul(log(1.0 - pc), 1.0 - y_arr))
    return tmean(tsum(mul(per, w.reshape(1, -1)), axis=1))


def accuracy_4class(p, y) -> float:
    """Exact-quadrant match rate of (valence, arousal) pairs thresholded at 0.5."""
    pred = np.asarray(p) > 0.5
    true = np.asarray(y) > 0.5
    return float(np.mean(np.all(pred == true, axis=1)))
