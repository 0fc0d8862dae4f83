"""Bidirectional feedback between the denoising and classification paths.

Messages travel through a shared low-dimensional embedding (d = d_model/4).
The classification-to-denoising message carries the predicted probabilities
(applied as a sigmoid gate on the denoiser latent) and an embedded latent
summary (applied through the feature-enhancement multiplier). The
denoising-to-classification message is the embedded denoiser summary added
to the classifier latent. Both injection matrices start at zero, so the
summaries add nothing at first. The feedback gate does act from the first
step: sigmoid(W_f p + b_f) with b_f = 0 scales the denoiser latent by about
0.5. A fresh model's x_hat and logits still equal those of two independent
paths, but only because the decoder's last convolution (conv2.w) and
inj_cls.w also start at zero; its h_denoise is the gated one.
"""

from __future__ import annotations

import math

import numpy as np

from ..kernels import linear, relu, sigmoid
from ..tensor import Tensor, mul
from .classifier import weighted_bce
from .denoiser import denoise_loss


class FeedbackModule:
    def __init__(self, d_model: int, rng: np.random.Generator):
        d = d_model // 4
        self.d = d
        self.params = {
            "embed.w": Tensor(rng.normal(0.0, 1.0 / math.sqrt(d_model), (d, d_model)), requires_grad=True),
            "embed.b": Tensor(np.zeros(d), requires_grad=True),
            "enhance.w": Tensor(rng.normal(0.0, 1.0 / math.sqrt(d), (d, d)), requires_grad=True),
            "enhance.b": Tensor(np.zeros(d), requires_grad=True),
            "project.w": Tensor(rng.normal(0.0, 1.0 / math.sqrt(2.0), (d_model, 2)), requires_grad=True),
            "project.b": Tensor(np.zeros(d_model), requires_grad=True),
            # zero-initialized injections: feedback terms grow from nothing
            "inj_den.w": Tensor(np.zeros((d_model, d)), requires_grad=True),
            "inj_cls.w": Tensor(np.zeros((d_model, d)), requires_grad=True),
        }


def feedback_embed(x, params: FeedbackModule) -> Tensor:
    """ReLU(W_e x + b_e): (B, d_model) -> nonnegative (B, d_model/4)."""
    return relu(linear(x, params.params["embed.w"], params.params["embed.b"]))


def feature_enhance(x, f, params: FeedbackModule) -> Tensor:
    """x * (1 + sigmoid(W f + b)); the multiplier is strictly inside (1, 2)."""
    return mul(x, 1.0 + sigmoid(linear(f, params.params["enhance.w"], params.params["enhance.b"])))


def feedback_project(y_pred, params: FeedbackModule) -> Tensor:
    """sigmoid(W_f y + b_f): (B, 2) probabilities -> (B, d_model) gate in (0,1)."""
    return sigmoid(linear(y_pred, params.params["project.w"], params.params["project.b"]))


def joint_loss(x_clean, x_hat, p, y, w, alpha: float, return_parts: bool = False):
    """alpha * MSE + (1 - alpha) * weighted BCE as one scalar on the tape."""
    l_mse = denoise_loss(x_clean, x_hat)
    l_cls = weighted_bce(p, y, w)
    total = alpha * l_mse + (1.0 - alpha) * l_cls
    if return_parts:
        return total, l_mse, l_cls
    return total
