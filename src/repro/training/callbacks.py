"""Training callbacks (per-epoch history recording)."""

from __future__ import annotations

from typing import Dict, List, Optional


class Callback:
    """Hooks invoked by the :class:`~repro.training.trainer.Trainer`."""

    def on_epoch_end(self, epoch: int, logs: Dict[str, float]) -> None:
        """Called after every epoch with the epoch's metric dictionary."""


class HistoryRecorder(Callback):
    """Accumulates per-epoch metrics into lists keyed by metric name."""

    def __init__(self) -> None:
        self.history: Dict[str, List[float]] = {}

    def on_epoch_end(self, epoch: int, logs: Dict[str, float]) -> None:
        for key, value in logs.items():
            self.history.setdefault(key, []).append(float(value))

    def last(self, key: str) -> Optional[float]:
        values = self.history.get(key)
        return values[-1] if values else None
