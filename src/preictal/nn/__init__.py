from .losses import FocalLossConfig, focal_loss_batch, inverse_frequency_alpha
from .model import (
    SensorModel,
    backward_batch,
    build_model,
    load_model,
    model_forward,
    parameters,
    save_model,
)
from .ops import BatchNormParams, ConvBlockParams, DenseParams, conv1d_forward, softmax
from .optim import AdamState, TrainConfig, adam_step
from .train import TrainReport, evaluate, stack_windows, train, write_train_report

__all__ = [
    "AdamState",
    "BatchNormParams",
    "ConvBlockParams",
    "DenseParams",
    "FocalLossConfig",
    "SensorModel",
    "TrainConfig",
    "TrainReport",
    "adam_step",
    "backward_batch",
    "build_model",
    "conv1d_forward",
    "evaluate",
    "focal_loss_batch",
    "inverse_frequency_alpha",
    "load_model",
    "model_forward",
    "parameters",
    "save_model",
    "softmax",
    "stack_windows",
    "train",
    "write_train_report",
]
