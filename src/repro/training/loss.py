"""Loss functions for spike-based classification."""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor


def cross_entropy_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross-entropy on arbitrary real-valued logits.

    Parameters
    ----------
    logits:
        Tensor of shape ``(N, C)``.
    targets:
        Integer class labels of shape ``(N,)``.

    Returns
    -------
    Scalar tensor with the mean negative log-likelihood.
    """
    targets = np.asarray(targets, dtype=np.int64)
    n = logits.shape[0]
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} does not match batch size {n}")
    log_z = logits.logsumexp()  # (N,)
    picked = logits[np.arange(n), targets]  # (N,)
    nll = log_z - picked
    return nll.mean()


class CrossEntropySpikeCount:
    """Cross-entropy on accumulated output spike counts (snnTorch ``ce_count_loss``).

    The network's output layer emits spikes at every timestep; summing them
    over the simulation window gives a count vector per class which is used
    directly as the logits of a softmax cross-entropy.  Training therefore
    pushes the correct class to fire more and the others to fire less — the
    mechanism through which beta/theta/surrogate choices shape firing rates.
    """

    def __call__(self, spike_counts: Tensor, targets: np.ndarray) -> Tensor:
        return cross_entropy_logits(spike_counts, targets)

    def __repr__(self) -> str:
        return "CrossEntropySpikeCount()"


class MSESpikeCount:
    """Mean-squared-error loss on output spike counts.

    The correct class is pushed toward firing on ``correct_rate`` of the
    timesteps and the incorrect classes toward ``incorrect_rate`` — snnTorch's
    ``mse_count_loss``.  Included because the paper names the loss function
    as a future-work hyperparameter; ``ExperimentConfig(loss="mse_count")``
    selects it.
    """

    def __init__(self, correct_rate: float = 0.8, incorrect_rate: float = 0.05, num_steps: int = 10) -> None:
        if not 0.0 <= incorrect_rate <= correct_rate <= 1.0:
            raise ValueError("rates must satisfy 0 <= incorrect_rate <= correct_rate <= 1")
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        self.correct_rate = float(correct_rate)
        self.incorrect_rate = float(incorrect_rate)
        self.num_steps = int(num_steps)

    def __call__(self, spike_counts: Tensor, targets: np.ndarray) -> Tensor:
        targets = np.asarray(targets, dtype=np.int64)
        n, c = spike_counts.shape
        target_counts = np.full((n, c), self.incorrect_rate * self.num_steps, dtype=np.float32)
        target_counts[np.arange(n), targets] = self.correct_rate * self.num_steps
        diff = spike_counts - Tensor(target_counts)
        return (diff * diff).mean()

    def __repr__(self) -> str:
        return (
            f"MSESpikeCount(correct_rate={self.correct_rate}, "
            f"incorrect_rate={self.incorrect_rate}, num_steps={self.num_steps})"
        )
