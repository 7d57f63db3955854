"""Surrogate-gradient base class and the spike autograd function.

The spiking non-linearity is ``S = Heaviside(U - theta)``.  In the forward
pass we emit binary spikes; in the backward pass the chosen
:class:`SurrogateFunction` supplies ``dS/dU`` evaluated at the centred
membrane potential ``U - theta``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.function import Context, Function
from repro.autograd.ops_spiking import surrogate_backward
from repro.autograd.tensor import Tensor


class SurrogateFunction:
    """Interface for surrogate derivative providers.

    A surrogate has a human-readable :attr:`name`, a derivative ``scale``
    (the ``alpha`` / ``k`` of the paper), and two callables on raw arrays:

    ``forward_smooth(u)``
        The smooth approximation of the Heaviside itself (used for analysis
        and plotting, not in the training forward pass).

    ``derivative(u)``
        The surrogate derivative ``dS/dU`` evaluated at centred potential
        ``u`` (i.e. ``U - theta``).
    """

    name: str = "surrogate"

    def __init__(self, scale: float = 25.0) -> None:
        if scale <= 0:
            raise ValueError(f"surrogate scale must be positive, got {scale}")
        self.scale = float(scale)

    def forward_smooth(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, u: np.ndarray) -> np.ndarray:
        """``dS/dU`` at the centred potential ``u``, as a fresh array.

        Every implementation returns a new array and leaves ``u`` unchanged.
        The spike's backward multiplies the incoming gradient into a
        returned array that is writable, is not ``u`` and views no other
        array, so a surrogate must not return one that it keeps.
        """
        raise NotImplementedError

    def __call__(self, membrane: Tensor, threshold: float = 1.0) -> Tensor:
        """Emit spikes from a membrane-potential tensor (Heaviside forward)."""
        return spike(membrane, threshold, self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(scale={self.scale})"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.scale == other.scale

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.scale))


class SpikeFunction(Function):
    """Heaviside forward / surrogate backward.

    ``forward(u, threshold, surrogate)`` returns ``1`` where ``u > threshold``
    else ``0``.  ``backward`` multiplies the incoming gradient by the
    surrogate derivative evaluated at ``u - threshold``.
    """

    @staticmethod
    def forward(ctx: Context, u: np.ndarray, threshold: float, surrogate: SurrogateFunction) -> np.ndarray:
        centred = u - threshold
        ctx.save_for_backward(centred, surrogate)
        return (centred > 0).astype(u.dtype)

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        centred, surrogate = ctx.saved
        return surrogate_backward(grad_output, surrogate, centred), None, None


def spike(membrane: Tensor, threshold: float, surrogate: SurrogateFunction) -> Tensor:
    """Apply the spiking non-linearity with a surrogate gradient.

    Parameters
    ----------
    membrane:
        Membrane potential tensor ``U`` of any shape.
    threshold:
        Firing threshold ``theta`` (Eq. 2).
    surrogate:
        The surrogate supplying ``dS/dU`` for the backward pass.
    """
    return SpikeFunction.apply(membrane, float(threshold), surrogate)


class HeavisideExact(SurrogateFunction):
    """The true (non-differentiable) step — zero gradient almost everywhere.

    Included as a degenerate baseline: training with it demonstrates the
    dead-gradient problem that motivates surrogate gradients.
    """

    name = "heaviside"

    def __init__(self, scale: float = 1.0) -> None:
        super().__init__(scale)

    def forward_smooth(self, u: np.ndarray) -> np.ndarray:
        return (u > 0).astype(np.float64)

    def derivative(self, u: np.ndarray) -> np.ndarray:
        return np.zeros_like(u)
