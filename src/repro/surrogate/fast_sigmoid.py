"""Fast-sigmoid surrogate gradient (Eq. 4 of the paper)."""

from __future__ import annotations

import numpy as np

from repro.surrogate.base import SurrogateFunction


class FastSigmoid(SurrogateFunction):
    r"""Fast-sigmoid surrogate (Zenke & Ganguli's SuperSpike derivative).

    Smooth approximation (paper Eq. 4):

    .. math:: S \approx \frac{U}{1 + k|U|}

    whose derivative, used in the backward pass, is

    .. math:: \frac{dS}{dU} = \frac{1}{(1 + k|U|)^2}

    ``scale`` corresponds to the paper's :math:`k` (snnTorch's ``slope``).
    The paper's beta/theta cross-sweep (Figure 2) fixes the fast-sigmoid
    slope at ``0.25``; the Figure 1 sweep covers :math:`k \in [0.5, 32]`.
    """

    name = "fast_sigmoid"

    def __init__(self, scale: float = 25.0) -> None:
        super().__init__(scale)

    def forward_smooth(self, u: np.ndarray) -> np.ndarray:
        return u / (1.0 + self.scale * np.abs(u))

    def derivative(self, u: np.ndarray) -> np.ndarray:
        denom = np.abs(u)
        denom *= self.scale
        denom += 1.0
        denom *= denom
        # A 0-d ``u`` makes ``denom`` a NumPy scalar, which takes no ``out``.
        return np.divide(1.0, denom, out=denom if isinstance(denom, np.ndarray) else None)
