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


def top_k_accuracy(scores: np.ndarray, targets: np.ndarray, k: int = 3) -> float:
    """Fraction of samples whose true class is within the top-k scores."""
    scores = np.asarray(scores)
    targets = np.asarray(targets)
    if scores.ndim != 2:
        raise ValueError("top_k_accuracy requires a score matrix of shape (N, C)")
    if k <= 0 or k > scores.shape[1]:
        raise ValueError(f"k must lie in [1, {scores.shape[1]}], got {k}")
    top_k = np.argsort(-scores, axis=1)[:, :k]
    hits = (top_k == targets[:, None]).any(axis=1)
    return float(hits.mean()) if hits.size else 0.0
