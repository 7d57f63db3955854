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

Additional surrogates (:class:`Sigmoid`, :class:`Triangular`,
:class:`PiecewiseLinear`, :class:`StraightThrough`) are provided for the
extension experiments and for parity with snnTorch's surrogate module.

All surrogates share the :class:`SurrogateFunction` interface and can be
looked up by name through :func:`get_surrogate`.  A surrogate holds no
graph code: the spiking layer's fused step
(:func:`repro.autograd.ops_spiking.fused_lif_step`) emits the Heaviside
spikes and calls :meth:`SurrogateFunction.derivative` on its backward pass.
"""

from repro.surrogate.base import SurrogateFunction
from repro.surrogate.arctan import ArcTan
from repro.surrogate.fast_sigmoid import FastSigmoid
from repro.surrogate.sigmoid import Sigmoid
from repro.surrogate.triangular import Triangular
from repro.surrogate.piecewise import PiecewiseLinear
from repro.surrogate.straight_through import StraightThrough
from repro.surrogate.registry import register_surrogate, get_surrogate, available_surrogates

__all__ = [
    "SurrogateFunction",
    "ArcTan",
    "FastSigmoid",
    "Sigmoid",
    "Triangular",
    "PiecewiseLinear",
    "StraightThrough",
    "register_surrogate",
    "get_surrogate",
    "available_surrogates",
]
