"""Leaky integrate-and-fire neuron (paper Eq. 1–2)."""

from __future__ import annotations

from typing import Optional

from repro.autograd.ops_spiking import fused_lif_step
from repro.autograd.tensor import Tensor, zeros
from repro.neurons.base import SpikingNeuron


class LIF(SpikingNeuron):
    r"""Leaky integrate-and-fire neuron layer.

    The membrane update implements Eq. 1 of the paper with reset by
    subtraction (the `s_j[t]\theta` term):

    .. math::

        u[t+1] = \beta\, u[t] + I_{syn}[t] - s[t]\,\theta

    and Eq. 2 for spike generation: ``s[t] = 1`` when ``u[t] > theta``.
    The backward pass through the Heaviside uses the layer's surrogate.

    Parameters
    ----------
    beta:
        Membrane leak / decay factor in ``[0, 1]``.  The paper's default is
        0.25; its cross-sweep explores 0.25–0.95.  ``1.0`` is the non-leaky
        integrate-and-fire neuron.
    threshold:
        Firing threshold ``theta``.  The paper's default is 1.0; its
        cross-sweep explores 0.5–2.5.
    surrogate:
        Surrogate gradient (default :class:`~repro.surrogate.FastSigmoid`).

    Each step runs the fused training step
    (:func:`~repro.autograd.ops_spiking.fused_lif_step`) around the NumPy
    step the compiled plan runs too, which ``tests/test_fused_lif.py``
    checks bit for bit against the same step composed from elementwise
    autograd ops.
    """

    def step(self, synaptic_input: Tensor) -> Tensor:
        """Advance one timestep; returns the spike tensor for this step."""
        state = self.state
        if state.mem is None or state.mem.shape != synaptic_input.shape:
            state.mem = zeros(synaptic_input.shape, dtype=synaptic_input.dtype)
        spikes, state.mem, _ = fused_lif_step(state.mem, synaptic_input, self.beta, self.threshold, self.surrogate)
        return spikes

    @property
    def membrane(self) -> Optional[Tensor]:
        """Current membrane potential (``None`` before the first step)."""
        return self.state.mem
