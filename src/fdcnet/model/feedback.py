"""Bidirectional feedback between the denoising and classification paths.

Messages travel through a shared low-dimensional embedding (d = d_model/4).
The classification-to-denoising message carries the predicted probabilities
(applied as a sigmoid gate on the denoiser latent) and an embedded latent
summary (applied through the feature-enhancement multiplier). The
denoising-to-classification message is the embedded denoiser summary added
to the classifier latent. Both injection matrices start at zero, so a fresh
model behaves exactly like two independent paths.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, DimensionError
from ..kernels import linear, relu, sigmoid
from ..tensor import Tensor, as_tensor, mul
from .classifier import weighted_bce
from .denoiser import denoise_loss


class FeedbackModule:
    def __init__(self, d_model: int, rng: np.random.Generator):
        if d_model % 4 != 0:
            raise ConfigError(f"d_model must be divisible by 4, got {d_model}")
        d = d_model // 4
        self.d = d
        s_embed = 1.0 / math.sqrt(d_model)
        self.embed_w = Tensor(rng.normal(0.0, s_embed, (d, d_model)), requires_grad=True)
        self.embed_b = Tensor(np.zeros(d), requires_grad=True)
        self.enhance_w = Tensor(rng.normal(0.0, 1.0 / math.sqrt(d), (d, d)), requires_grad=True)
        self.enhance_b = Tensor(np.zeros(d), requires_grad=True)
        self.project_w = Tensor(rng.normal(0.0, 1.0 / math.sqrt(2.0), (d_model, 2)), requires_grad=True)
        self.project_b = Tensor(np.zeros(d_model), requires_grad=True)
        # zero-initialized injections: feedback terms grow from nothing
        self.inj_den_w = Tensor(np.zeros((d_model, d)), requires_grad=True)
        self.inj_cls_w = Tensor(np.zeros((d_model, d)), requires_grad=True)

    def named_parameters(self) -> dict[str, Tensor]:
        return {
            "embed.w": self.embed_w,
            "embed.b": self.embed_b,
            "enhance.w": self.enhance_w,
            "enhance.b": self.enhance_b,
            "project.w": self.project_w,
            "project.b": self.project_b,
            "inj_den.w": self.inj_den_w,
            "inj_cls.w": self.inj_cls_w,
        }


def feedback_embed(x, params: FeedbackModule) -> Tensor:
    """ReLU(W_e x + b_e): (B, D) -> nonnegative (B, d), requiring D >= 2d."""
    x = as_tensor(x)
    d_in = x.shape[-1]
    if d_in < 2 * params.d:
        raise ConfigError(f"embedding needs input dim >= {2 * params.d}, got {d_in}")
    if d_in != params.embed_w.shape[1]:
        raise DimensionError(f"expected input dim {params.embed_w.shape[1]}, got {d_in}")
    return relu(linear(x, params.embed_w, params.embed_b))


def feature_enhance(x, f, params: FeedbackModule) -> Tensor:
    """x * (1 + sigmoid(W f + b)); the multiplier is strictly inside (1, 2)."""
    x = as_tensor(x)
    f = as_tensor(f)
    if x.shape != f.shape or x.shape[-1] != params.d:
        raise DimensionError(f"expected matching (B, {params.d}) inputs, got {x.shape} and {f.shape}")
    return mul(x, 1.0 + sigmoid(linear(f, params.enhance_w, params.enhance_b)))


def feedback_project(y_pred, params: FeedbackModule) -> Tensor:
    """sigmoid(W_f y + b_f): (B, 2) probabilities -> (B, d_model) gate in (0,1)."""
    y_pred = as_tensor(y_pred)
    if y_pred.ndim != 2 or y_pred.shape[1] != 2:
        raise DimensionError(f"expected (B, 2) predictions, got {y_pred.shape}")
    return sigmoid(linear(y_pred, params.project_w, params.project_b))


def joint_loss(x_clean, x_hat, p, y, w, alpha: float, return_parts: bool = False):
    """alpha * MSE + (1 - alpha) * weighted BCE as one scalar on the tape."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    l_mse = denoise_loss(x_clean, x_hat)
    l_cls = weighted_bce(p, y, w)
    total = alpha * l_mse + (1.0 - alpha) * l_cls
    if return_parts:
        return total, l_mse, l_cls
    return total
