"""Backpropagation-through-time training loop for spiking classifiers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.data.dataloader import DataLoader
from repro.encoding.base import Encoder
from repro.nn.module import Module
from repro.training.callbacks import HistoryRecorder
from repro.training.loss import CrossEntropySpikeCount
from repro.training.metrics import accuracy
from repro.training.optim import Adam
from repro.training.schedulers import LRScheduler


@dataclass
class TrainingResult:
    """Outcome of a training run.

    Attributes
    ----------
    history:
        Per-epoch metrics (``train_loss``, ``train_accuracy``,
        ``val_accuracy``, ``lr``, ``epoch_seconds``).
    best_val_accuracy:
        Best validation accuracy observed over all epochs.
    final_val_accuracy:
        Validation accuracy after the last epoch.
    epochs_run:
        Number of epochs executed.
    wall_time_seconds:
        Total wall-clock training time.
    """

    history: Dict[str, List[float]] = field(default_factory=dict)
    best_val_accuracy: float = 0.0
    final_val_accuracy: float = 0.0
    epochs_run: int = 0
    wall_time_seconds: float = 0.0


class Trainer:
    """Trains a spiking classifier with surrogate-gradient BPTT.

    The model must expose ``forward(spike_sequence) -> Tensor`` returning
    per-class output spike counts of shape ``(N, num_classes)`` and the
    :meth:`~repro.nn.module.Module.reset_spiking_state` method (any model
    built from :mod:`repro.nn` / :mod:`repro.neurons` does).

    Parameters
    ----------
    model:
        The spiking classifier.
    encoder:
        Converts image batches to spike sequences of shape ``(T, N, ...)``.
    optimizer:
        Parameter optimizer.
    loss_fn:
        Loss on output spike counts (default cross-entropy on counts).
    scheduler:
        Optional learning-rate scheduler stepped once per epoch.
    """

    def __init__(
        self,
        model: Module,
        encoder: Encoder,
        optimizer: Adam,
        loss_fn: Optional[Callable] = None,
        scheduler: Optional[LRScheduler] = None,
    ) -> None:
        self.model = model
        self.encoder = encoder
        self.optimizer = optimizer
        self.loss_fn = loss_fn if loss_fn is not None else CrossEntropySpikeCount()
        self.scheduler = scheduler
        self._history = HistoryRecorder()

    # ------------------------------------------------------------------ #
    def train_batch(self, images: np.ndarray, labels: np.ndarray) -> Dict[str, float]:
        """One optimisation step on a single batch; returns loss/accuracy."""
        self.model.train()
        self.model.reset_spiking_state()
        spikes = self.encoder(images)
        counts = self.model(Tensor(spikes))
        loss = self.loss_fn(counts, labels)
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()
        batch_acc = accuracy(counts.data, labels)
        return {"loss": float(loss.item()), "accuracy": batch_acc}

    def evaluate(self, loader: DataLoader) -> Dict[str, float]:
        """Evaluate accuracy and mean loss over a data loader (no gradients)."""
        self.model.eval()
        total, correct, loss_sum, batches = 0, 0, 0.0, 0
        with no_grad():
            for images, labels in loader:
                self.model.reset_spiking_state()
                spikes = self.encoder(images)
                counts = self.model(Tensor(spikes))
                loss_sum += float(self.loss_fn(counts, labels).item())
                preds = counts.data.argmax(axis=-1)
                correct += int((preds == labels).sum())
                total += len(labels)
                batches += 1
        return {
            "accuracy": correct / total if total else 0.0,
            "loss": loss_sum / batches if batches else 0.0,
        }

    def fit(
        self,
        train_loader: DataLoader,
        val_loader: Optional[DataLoader] = None,
        epochs: int = 25,
        verbose: bool = False,
    ) -> TrainingResult:
        """Run the full training loop.

        Parameters
        ----------
        train_loader, val_loader:
            Training and optional validation data.
        epochs:
            Number of epochs (the paper uses 25).
        verbose:
            Print a one-line summary per epoch.
        """
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        start = time.perf_counter()
        best_val = 0.0
        final_val = 0.0
        epochs_run = 0

        for epoch in range(epochs):
            epoch_start = time.perf_counter()
            losses, accs = [], []
            for images, labels in train_loader:
                stats = self.train_batch(images, labels)
                losses.append(stats["loss"])
                accs.append(stats["accuracy"])
            logs: Dict[str, float] = {
                "train_loss": float(np.mean(losses)) if losses else 0.0,
                "train_accuracy": float(np.mean(accs)) if accs else 0.0,
                "lr": self.optimizer.lr,
                "epoch_seconds": time.perf_counter() - epoch_start,
            }
            if val_loader is not None:
                val_stats = self.evaluate(val_loader)
                logs["val_accuracy"] = val_stats["accuracy"]
                logs["val_loss"] = val_stats["loss"]
                final_val = val_stats["accuracy"]
                best_val = max(best_val, final_val)
            if self.scheduler is not None:
                self.scheduler.step()
            epochs_run = epoch + 1
            self._history.on_epoch_end(epoch, logs)
            if verbose:
                summary = ", ".join(f"{k}={v:.4f}" for k, v in logs.items())
                print(f"epoch {epoch + 1}/{epochs}: {summary}")

        return TrainingResult(
            history=dict(self._history.history),
            best_val_accuracy=best_val,
            final_val_accuracy=final_val,
            epochs_run=epochs_run,
            wall_time_seconds=time.perf_counter() - start,
        )
