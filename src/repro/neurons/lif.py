"""Leaky integrate-and-fire neuron (paper Eq. 1–2)."""

from __future__ import annotations

from typing import Optional

from repro.autograd.ops_spiking import fused_lif_step
from repro.autograd.tensor import Tensor, zeros
from repro.neurons.base import SpikingNeuron
from repro.surrogate.base import SurrogateFunction, spike


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
        0.25; its cross-sweep explores 0.25–0.95.
    threshold:
        Firing threshold ``theta``.  The paper's default is 1.0; its
        cross-sweep explores 0.5–2.5.
    surrogate:
        Surrogate gradient (default :class:`~repro.surrogate.FastSigmoid`).
    reset_mechanism:
        ``"subtract"`` (paper; soft reset), ``"zero"`` (hard reset) or
        ``"none"`` (no reset, for analysis).
    use_fused:
        Use the fused training-step kernel
        (:func:`~repro.autograd.ops_spiking.fused_lif_step`, the default).
        When ``False`` the step runs as the original chain of elementwise
        autograd ops — kept as the reference implementation that the fused
        path must match bit-for-bit (see ``tests/test_fused_lif.py``).
    """

    def __init__(
        self,
        beta: float = 0.25,
        threshold: float = 1.0,
        surrogate: Optional[SurrogateFunction] = None,
        reset_mechanism: str = "subtract",
        use_fused: bool = True,
    ) -> None:
        super().__init__(beta=beta, threshold=threshold, surrogate=surrogate, reset_mechanism=reset_mechanism)
        self.use_fused = bool(use_fused)

    def step(self, synaptic_input: Tensor) -> Tensor:
        """Advance one timestep; returns the spike tensor for this step."""
        if self.state.mem is None or self.state.mem.shape != synaptic_input.shape:
            self.state.mem = zeros(synaptic_input.shape, dtype=synaptic_input.dtype)

        if not self.use_fused:
            return self._step_composed(synaptic_input)

        spikes, new_mem = fused_lif_step(
            self.state.mem,
            synaptic_input,
            self.beta,
            self.threshold,
            self.surrogate,
            self.reset_mechanism,
        )
        self.state.mem = new_mem
        return spikes

    def _step_composed(self, synaptic_input: Tensor) -> Tensor:
        """Reference step built from individual elementwise autograd ops."""
        mem = self.state.mem * self.beta + synaptic_input
        spikes = spike(mem, self.threshold, self.surrogate)

        if self.reset_mechanism == "subtract":
            mem = mem - spikes.detach() * self.threshold
        elif self.reset_mechanism == "zero":
            mem = mem * (1.0 - spikes.detach())
        # "none": leave the membrane as is.

        self.state.mem = mem
        return spikes

    @property
    def membrane(self) -> Optional[Tensor]:
        """Current membrane potential (``None`` before the first step)."""
        return self.state.mem
