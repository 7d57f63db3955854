"""Second-order (synaptic conductance) LIF neuron."""

from __future__ import annotations

from typing import Optional

from repro.autograd.tensor import Tensor, zeros
from repro.neurons.base import SpikingNeuron
from repro.surrogate.base import SurrogateFunction, spike


class SynapticLIF(SpikingNeuron):
    r"""LIF neuron with an additional exponential synaptic-current state.

    .. math::

        i[t+1] &= \alpha\, i[t] + I_{in}[t] \\
        u[t+1] &= \beta\, u[t] + i[t+1] - s[t]\,\theta

    This mirrors snnTorch's ``Synaptic`` neuron and is used by the extension
    experiments that look at how richer neuron dynamics shift the
    accuracy/sparsity trade-off.

    Parameters
    ----------
    alpha:
        Synaptic current decay factor in ``[0, 1]``.
    beta, threshold, surrogate, reset_mechanism:
        As for :class:`~repro.neurons.LIF`.
    """

    def __init__(
        self,
        alpha: float = 0.9,
        beta: float = 0.25,
        threshold: float = 1.0,
        surrogate: Optional[SurrogateFunction] = None,
        reset_mechanism: str = "subtract",
    ) -> None:
        super().__init__(beta=beta, threshold=threshold, surrogate=surrogate, reset_mechanism=reset_mechanism)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        self.alpha = float(alpha)

    def step(self, synaptic_input: Tensor) -> Tensor:
        if self.state.mem is None or self.state.mem.shape != synaptic_input.shape:
            self.state.mem = zeros(synaptic_input.shape, dtype=synaptic_input.dtype)
            self.state.syn = zeros(synaptic_input.shape, dtype=synaptic_input.dtype)

        syn = self.state.syn * self.alpha + synaptic_input
        mem = self.state.mem * self.beta + syn
        spikes = spike(mem, self.threshold, self.surrogate)

        if self.reset_mechanism == "subtract":
            mem = mem - spikes.detach() * self.threshold
        elif self.reset_mechanism == "zero":
            mem = mem * (1.0 - spikes.detach())

        self.state.syn = syn
        self.state.mem = mem
        return spikes

    def extra_repr(self) -> str:
        return f"alpha={self.alpha}, " + super().extra_repr()
