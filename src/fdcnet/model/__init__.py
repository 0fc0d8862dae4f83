from .classifier import accuracy_4class, class_weights
from .feedback import joint_loss
from .network import FdcNet, ModelConfig

__all__ = ["FdcNet", "ModelConfig", "accuracy_4class", "class_weights", "joint_loss"]
