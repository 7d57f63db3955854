"""Spiking neuron models.

The paper's network uses leaky integrate-and-fire (LIF) neurons whose
dynamics are given by Eq. 1–2:

.. math::

    u_j[t+1] = \\beta u_j[t] + \\sum_i w_{ij} s_i[t] - s_j[t]\\theta

    s_j[t] = 1 \\text{ if } u_j[t] > \\theta \\text{ else } 0

:class:`LIF` implements exactly this model, with its reset by
subtraction; ``beta = 1`` is the non-leaky integrate-and-fire neuron.
:class:`AdaptiveLIF` raises its threshold after each spike, for the
extension experiments.  Every substrate's timestep is one NumPy function,
:func:`repro.autograd.ops_spiking.lif_forward`, which training and the
compiled runtime both call.
"""

from repro.neurons.base import NeuronState, SpikingNeuron
from repro.neurons.lif import LIF
from repro.neurons.adaptive import AdaptiveLIF
from repro.neurons.factory import (
    NEURON_PARAM_DEFAULTS,
    NEURON_TYPES,
    build_neuron,
    neuron_descriptor,
    resolve_neuron_params,
)

__all__ = [
    "SpikingNeuron",
    "NeuronState",
    "LIF",
    "AdaptiveLIF",
    "NEURON_TYPES",
    "NEURON_PARAM_DEFAULTS",
    "build_neuron",
    "neuron_descriptor",
    "resolve_neuron_params",
]
