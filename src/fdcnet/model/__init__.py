from .pe import BandLimitedPE, sinusoid_table
from .gate import ChannelGate, channel_stats, modulate
from .attention import attention_head_time, attention_head_freq
from .encoder import EncoderLayer, EegspEncoder
from .denoiser import ConvStem, Decoder, denoise_forward, denoise_loss
from .classifier import (
    ClassifierHead,
    ClassWeights,
    classify_forward,
    class_weights,
    weighted_bce,
    accuracy_4class,
)
from .feedback import (
    FeedbackModule,
    feedback_embed,
    feature_enhance,
    feedback_project,
    joint_loss,
)
from .network import FdcNet, ForwardResult, ModelConfig

__all__ = [
    "BandLimitedPE",
    "sinusoid_table",
    "ChannelGate",
    "channel_stats",
    "modulate",
    "attention_head_time",
    "attention_head_freq",
    "EncoderLayer",
    "EegspEncoder",
    "ConvStem",
    "Decoder",
    "denoise_forward",
    "denoise_loss",
    "ClassifierHead",
    "ClassWeights",
    "classify_forward",
    "class_weights",
    "weighted_bce",
    "accuracy_4class",
    "FeedbackModule",
    "feedback_embed",
    "feature_enhance",
    "feedback_project",
    "joint_loss",
    "FdcNet",
    "ForwardResult",
    "ModelConfig",
]
