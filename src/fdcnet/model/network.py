"""The full feedback-coupled denoising/classification network.

Data flow (default configuration):

    x_noisy (B, C, T)
      -> channel gate on the raw channel view
      -> shared conv stem C -> d_model (kernel 7)
      -> denoise path: encoder (PE + time/freq attention layers) -> h_denoise
      -> classify path: GELU(stem output) -> h_classify
      -> T_fb feedback iterations exchanging messages between the latents
      -> decoder(h_denoise) + x_noisy = x_hat;  classify(h_classify) = (logits, p)

Ablation flags: feedback=False removes the message exchange entirely (the
paths run independently, bit-exactly equal to standalone path runs);
cross=False additionally unshares the conv stem; eegsp=False adds the
encoder's sinusoid table without the learnable band-limited envelope,
removes the channel gate, and runs every attention head in the time domain.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, replace

import numpy as np

from ..checkpoint import load_checkpoint, save_checkpoint
from ..errors import ConfigError, ContractError, DimensionError
from ..kernels import gelu, linear
from ..tensor import Tensor, add, as_tensor, mul, reshape, swapaxes, tmean
from .classifier import ClassifierHead, classify_forward
from .denoiser import ConvStem, Decoder, denoise_forward
from .encoder import EegspEncoder
from .feedback import FeedbackModule, feature_enhance, feedback_embed, feedback_project
from .gate import ChannelGate, channel_stats, modulate


@dataclass(frozen=True)
class ModelConfig:
    n_channels: int = 32
    d_model: int = 128
    n_layers: int = 2
    n_heads: int = 8
    ff_dim: int = 256
    dropout: float = 0.1
    t_fb: int = 2
    feedback: bool = True
    cross: bool = True
    eegsp: bool = True
    gate_reduction: int = 4
    head_hidden: int = 64
    kernel_size: int = 7
    t_max: int = 512

    def validate(self) -> None:
        for name in ("n_channels", "d_model", "n_layers", "n_heads", "ff_dim", "head_hidden",
                     "gate_reduction", "kernel_size", "t_max", "t_fb"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # the stem and decoder keep the length T only with an odd kernel
        if self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd, got {self.kernel_size}")
        if self.d_model % 4 != 0:
            raise ConfigError(f"d_model must be divisible by 4, got {self.d_model}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"n_heads {self.n_heads} must divide d_model {self.d_model}")
        if self.eegsp and self.n_heads % 2 != 0:
            raise ConfigError(f"n_heads must be even for the time/freq split, got {self.n_heads}")
        if self.eegsp and self.n_channels % self.gate_reduction != 0:
            raise ConfigError(
                f"gate_reduction {self.gate_reduction} must divide n_channels {self.n_channels}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = cls.__dataclass_fields__
        unknown = set(d) - set(known)
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        for key, value in d.items():
            # a bool only for a bool field; an int also for a float field
            kind = type(known[key].default)
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, kind)):
                raise ConfigError(f"model config {key} must be {kind.__name__}, got {value!r}")
        return cls(**d)

    def with_ablations(self, no_feedback=False, no_cross=False, no_eegsp=False) -> "ModelConfig":
        cfg = self
        if no_feedback or no_cross:
            cfg = replace(cfg, feedback=False)
        if no_cross:
            cfg = replace(cfg, cross=False)
        if no_eegsp:
            cfg = replace(cfg, eegsp=False)
        return cfg


@dataclass
class ForwardResult:
    x_hat: Tensor  # (B, C, T) reconstruction
    logits: Tensor  # (B, 2)
    p: Tensor  # (B, 2) per-dimension probabilities
    h_denoise: Tensor  # (B, T, d_model)
    h_classify: Tensor  # (B, T, d_model)


def dual_path_step(h_den, h_cls, prev_feedback, fb: FeedbackModule):
    """One feedback iteration.

    prev_feedback is None (no message yet, first iteration) or a tuple
    (p_prev, f_prev) of the previous classification probabilities and the
    embedded classifier summary. Returns (h_den', h_cls'); the classifier
    path receives the denoiser-to-classifier message phi.
    """
    b, _, d = h_den.shape
    if prev_feedback is not None:
        p_prev, f_prev = prev_feedback
        gate = feedback_project(p_prev, fb)
        h_den = mul(h_den, reshape(gate, (b, 1, d)))
        low = feedback_embed(tmean(h_den, axis=1), fb)
        enhanced = feature_enhance(low, f_prev, fb)
        h_den = add(h_den, reshape(linear(enhanced, fb.params["inj_den.w"]), (b, 1, d)))
    phi = feedback_embed(tmean(h_den, axis=1), fb)
    h_cls = add(h_cls, reshape(linear(phi, fb.params["inj_cls.w"]), (b, 1, d)))
    return h_den, h_cls


class FdcNet:
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        streams = np.random.SeedSequence((seed, 0xFDC)).spawn(7)
        rngs = [np.random.default_rng(s) for s in streams]
        self.gate = ChannelGate(cfg.n_channels, cfg.gate_reduction, rngs[0]) if cfg.eegsp else None
        self.stem_den = ConvStem(cfg.n_channels, cfg.d_model, cfg.kernel_size, rngs[1])
        self.stem_cls = (
            self.stem_den if cfg.cross else ConvStem(cfg.n_channels, cfg.d_model, cfg.kernel_size, rngs[2])
        )
        self.encoder = EegspEncoder(
            cfg.d_model, cfg.n_layers, cfg.n_heads, cfg.ff_dim, cfg.dropout, rngs[3], cfg.t_max, cfg.eegsp
        )
        self.decoder = Decoder(cfg.d_model, cfg.n_channels, cfg.kernel_size, rngs[4])
        self.head = ClassifierHead(cfg.d_model, cfg.head_hidden, rngs[5])
        self.fb = FeedbackModule(cfg.d_model, rngs[6])

    # -- forward --------------------------------------------------------------

    def forward(self, x_noisy, mode: str = "eval", rng=None) -> ForwardResult:
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
        training = mode == "train"
        if training and self.cfg.dropout > 0.0 and rng is None:
            raise ConfigError("training forward with dropout needs an rng")
        x = as_tensor(x_noisy)
        if x.ndim != 3 or x.shape[1] != self.cfg.n_channels or x.shape[2] > self.cfg.t_max:
            raise DimensionError(
                f"expected (B, {self.cfg.n_channels}, T) input with T <= t_max = {self.cfg.t_max}, got {x.shape}"
            )
        if self.gate is not None:
            xg = modulate(x, self.gate.weights(channel_stats(x)))
        else:
            xg = x
        s_den = self.stem_den.forward(xg)
        s_cls = s_den if self.cfg.cross else self.stem_cls.forward(xg)
        h_den = self.encoder.forward(swapaxes(s_den, 1, 2), training, rng)
        h_cls = swapaxes(gelu(s_cls), 1, 2)

        if self.cfg.feedback:
            message = None
            for t in range(1, self.cfg.t_fb + 1):
                h_den, h_cls = dual_path_step(h_den, h_cls, message, self.fb)
                logits, p = classify_forward(h_cls, self.head)
                if t < self.cfg.t_fb:
                    message = (p, feedback_embed(tmean(h_cls, axis=1), self.fb))
        else:
            logits, p = classify_forward(h_cls, self.head)

        x_hat = denoise_forward(x, h_den, self.decoder, training)
        return ForwardResult(x_hat=x_hat, logits=logits, p=p, h_denoise=h_den, h_classify=h_cls)

    # -- parameter registry ----------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        """All parameters reachable in forward under the current flags, by
        checkpoint path. The registry is what the optimizer and checkpoint
        see, so unused ablated branches never demand gradients."""
        cfg = self.cfg
        parts = {"encoder.gate": self.gate, "encoder": self.encoder}
        if cfg.cross:
            parts["feedback.shared"] = self.stem_den
        else:
            parts["denoiser.stem"] = self.stem_den
            parts["classifier.stem"] = self.stem_cls
        parts["denoiser.decoder"] = self.decoder
        parts["classifier"] = self.head
        out = {f"{prefix}.{name}": p for prefix, part in parts.items() if part is not None
               for name, p in part.params.items()}
        if cfg.feedback:
            # with one iteration no classifier message reaches the denoiser
            for name, p in self.fb.params.items():
                if cfg.t_fb >= 2 or name in ("embed.w", "embed.b", "inj_cls.w"):
                    out[f"feedback.{name}"] = p
        return out

    # -- checkpointing ---------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {path: p.data for path, p in self.named_parameters().items()}
        out.update({f"denoiser.decoder.{name}": buf for name, buf in self.decoder.buffers.items()})
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        state = self.state_arrays()
        if set(state) != set(arrays):
            missing = sorted(set(state) - set(arrays))
            extra = sorted(set(arrays) - set(state))
            raise ContractError(
                f"checkpoint does not match model: missing {missing or 'none'}, unexpected {extra or 'none'}"
            )
        for path, dst in state.items():
            arr = np.asarray(arrays[path], dtype=np.float64)
            if arr.shape != dst.shape:
                raise ContractError(f"shape mismatch for {path}: {arr.shape} vs {dst.shape}")
            dst[...] = arr

    def save(self, path) -> None:
        save_checkpoint(path, self.state_arrays())

    @classmethod
    def load(cls, path, cfg: ModelConfig) -> "FdcNet":
        model = cls(cfg)  # load_state overwrites every parameter and buffer
        model.load_state(load_checkpoint(path))
        return model
