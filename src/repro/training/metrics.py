"""Classification metrics."""

from __future__ import annotations

import numpy as np


def accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of correct predictions.

    ``predictions`` may be class indices of shape ``(N,)`` or score matrices
    of shape ``(N, C)`` (argmax is taken along the last axis).
    """
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.ndim == 2:
        predictions = predictions.argmax(axis=-1)
    if predictions.shape != targets.shape:
        raise ValueError(f"shape mismatch: predictions {predictions.shape} vs targets {targets.shape}")
    if predictions.size == 0:
        return 0.0
    return float((predictions == targets).mean())

