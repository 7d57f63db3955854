"""Surrogate gradient functions for spiking neural network training.

The forward pass of a spiking neuron applies a Heaviside step to the membrane
potential (Eq. 2 of the paper); its derivative is zero almost everywhere, so
backpropagation-through-time replaces it with a smooth *surrogate* derivative
(Neftci et al., 2019).  The paper studies two surrogates and their derivative
scaling factors:

* :class:`ArcTan` — Eq. 3, scale ``alpha``:
  ``dS/dU = (alpha / 2) / (1 + (pi * U * alpha / 2)^2)``
* :class:`FastSigmoid` — Eq. 4, scale ``k``:
  ``dS/dU = 1 / (1 + k * |U|)^2``

Both share the :class:`SurrogateFunction` interface and can be looked up
by name through :func:`get_surrogate`; a caller adds its own with
:func:`register_surrogate` (``examples/custom_surrogate.py``).  A surrogate
holds no graph code: the spiking layer's fused step
(:func:`repro.autograd.ops_spiking.fused_lif_step`) emits the Heaviside
spikes and calls :meth:`SurrogateFunction.derivative` on its backward pass.
"""

from repro.surrogate.base import SurrogateFunction
from repro.surrogate.arctan import ArcTan
from repro.surrogate.fast_sigmoid import FastSigmoid
from repro.surrogate.registry import register_surrogate, get_surrogate, available_surrogates

__all__ = [
    "SurrogateFunction",
    "ArcTan",
    "FastSigmoid",
    "register_surrogate",
    "get_surrogate",
    "available_surrogates",
]
