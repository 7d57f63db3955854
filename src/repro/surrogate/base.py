"""Surrogate-gradient base class.

The spiking non-linearity is ``S = Heaviside(U - theta)``.  The forward
pass emits binary spikes; in the backward pass the chosen
:class:`SurrogateFunction` supplies ``dS/dU`` evaluated at the centred
membrane potential ``U - theta``.  Both happen in the fused neuron step
(:func:`repro.autograd.ops_spiking.fused_lif_step`), whose spike node calls
:func:`~repro.autograd.ops_spiking.surrogate_backward`.
"""

from __future__ import annotations

import numpy as np


class SurrogateFunction:
    """Interface for surrogate derivative providers.

    A surrogate has a human-readable :attr:`name`, a derivative ``scale``
    (the ``alpha`` / ``k`` of the paper), and two callables on raw arrays:

    ``forward_smooth(u)``
        The smooth approximation of the Heaviside whose slope
        ``derivative`` is: the reference a derivative is checked against
        numerically.  Training never calls it; its forward pass emits the
        exact step.

    ``derivative(u)``
        The surrogate derivative ``dS/dU`` evaluated at centred potential
        ``u`` (i.e. ``U - theta``).
    """

    name: str = "surrogate"

    def __init__(self, scale: float = 25.0) -> None:
        if not scale > 0:  # NaN fails too
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

    def __repr__(self) -> str:
        return f"{type(self).__name__}(scale={self.scale})"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.scale == other.scale

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.scale))
