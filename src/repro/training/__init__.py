"""Training infrastructure: losses, Adam, LR schedulers, trainer, metrics.

Implements the paper's training recipe — surrogate-gradient
backpropagation-through-time with a cross-entropy loss on output spike
counts, Adam, and a cosine-annealing learning-rate schedule (SGDR,
Loshchilov & Hutter 2016) over 25 epochs.
"""

from repro.training.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.training.loss import CrossEntropySpikeCount, MSESpikeCount, cross_entropy_logits
from repro.training.optim import Adam
from repro.training.schedulers import CosineAnnealingLR, LRScheduler
from repro.training.metrics import accuracy
from repro.training.callbacks import Callback, HistoryRecorder
from repro.training.trainer import Trainer, TrainingResult

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "load_checkpoint",
    "save_checkpoint",
    "CrossEntropySpikeCount",
    "MSESpikeCount",
    "cross_entropy_logits",
    "Adam",
    "LRScheduler",
    "CosineAnnealingLR",
    "accuracy",
    "Callback",
    "HistoryRecorder",
    "Trainer",
    "TrainingResult",
]
