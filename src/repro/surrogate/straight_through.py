"""Straight-through estimator surrogate."""

from __future__ import annotations

import numpy as np

from repro.surrogate.base import SurrogateFunction


class StraightThrough(SurrogateFunction):
    r"""Straight-through estimator: the gradient passes unchanged.

    .. math:: \frac{dS}{dU} = 1

    ``scale`` multiplies the pass-through gradient (default 1.0).  Included
    as the simplest possible baseline for the surrogate comparison.
    """

    name = "straight_through"

    def __init__(self, scale: float = 1.0) -> None:
        super().__init__(scale)

    def forward_smooth(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(u, dtype=np.float64)

    def derivative(self, u: np.ndarray) -> np.ndarray:
        return np.full(np.shape(u), self.scale)
