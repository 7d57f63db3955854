"""Learning-rate schedulers."""

from __future__ import annotations

import math

from repro.training.optim import Adam


class LRScheduler:
    """Base scheduler: call :meth:`step` once per epoch."""

    def __init__(self, optimizer: Adam) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def get_lr(self) -> float:
        raise NotImplementedError

    def step(self) -> float:
        """Advance one epoch and apply the new learning rate."""
        self.epoch += 1
        lr = self.get_lr()
        self.optimizer.set_lr(lr)
        return lr

    @property
    def current_lr(self) -> float:
        return self.optimizer.lr


class CosineAnnealingLR(LRScheduler):
    r"""Cosine annealing (SGDR, Loshchilov & Hutter 2016) — the paper's schedule.

    .. math::

        \eta_t = \eta_{min} + \tfrac{1}{2}(\eta_{max} - \eta_{min})
                 \left(1 + \cos\frac{t\pi}{T_{max}}\right)

    The paper uses 25 epochs, citing cosine annealing's fast convergence to
    good accuracy as the reason for the short schedule.
    """

    def __init__(self, optimizer: Adam, t_max: int = 25, eta_min: float = 0.0) -> None:
        super().__init__(optimizer)
        if t_max <= 0:
            raise ValueError("t_max must be positive")
        if eta_min < 0 or eta_min > optimizer.lr:
            raise ValueError("eta_min must lie in [0, base_lr]")
        self.t_max = int(t_max)
        self.eta_min = float(eta_min)

    def get_lr(self) -> float:
        t = min(self.epoch, self.t_max)
        return self.eta_min + 0.5 * (self.base_lr - self.eta_min) * (1 + math.cos(math.pi * t / self.t_max))
