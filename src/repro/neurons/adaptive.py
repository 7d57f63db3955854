"""Adaptive-threshold LIF neuron (ALIF) — extension experiment substrate.

The paper treats the firing threshold ``theta`` as a static hyperparameter.
A natural follow-up (named in its future-work direction of exploring more
hyperparameters) is a threshold that *adapts* to recent activity: every spike
raises the effective threshold by ``adaptation_step`` and the increment
decays with factor ``adaptation_decay``, which throttles highly active
neurons and spreads activity — a hardware-friendly sparsification knob.
"""

from __future__ import annotations

from typing import Optional

from repro.autograd.ops_spiking import fused_lif_step
from repro.autograd.tensor import Tensor, zeros
from repro.neurons.base import SpikingNeuron
from repro.surrogate.base import SurrogateFunction


class AdaptiveLIF(SpikingNeuron):
    r"""LIF neuron with spike-triggered threshold adaptation.

    .. math::

        a[t+1] &= \rho\, a[t] + s[t] \\
        \theta_{eff}[t] &= \theta + b\, a[t] \\
        u[t+1] &= \beta\, u[t] + I_{syn}[t] - s[t]\,\theta_{eff}[t]

    Each step runs the same fused training step as :class:`~repro.neurons.LIF`,
    given the trace ``a`` (the adaptive neuron of LSNNs, Bellec et al. 2018).

    Parameters
    ----------
    beta, threshold, surrogate:
        As for :class:`~repro.neurons.LIF`.
    adaptation_step:
        Threshold increment ``b`` added per emitted spike.
    adaptation_decay:
        Decay factor ``rho`` of the adaptation variable, in ``[0, 1]``.
    """

    def __init__(
        self,
        beta: float = 0.25,
        threshold: float = 1.0,
        surrogate: Optional[SurrogateFunction] = None,
        adaptation_step: float = 0.2,
        adaptation_decay: float = 0.9,
    ) -> None:
        super().__init__(beta=beta, threshold=threshold, surrogate=surrogate)
        if not adaptation_step >= 0:
            raise ValueError("adaptation_step must be non-negative")
        if not 0.0 <= adaptation_decay <= 1.0:
            raise ValueError("adaptation_decay must lie in [0, 1]")
        self.adaptation_step = float(adaptation_step)
        self.adaptation_decay = float(adaptation_decay)

    @property
    def adaptation(self) -> Optional[Tensor]:
        """Current adaptation variable ``a`` (``None`` before the first step)."""
        return self.state.trace

    def effective_threshold(self) -> Optional[Tensor]:
        """Per-neuron effective threshold ``theta + b * a``."""
        if self.state.trace is None:
            return None
        return self.state.trace * self.adaptation_step + self.threshold

    def step(self, synaptic_input: Tensor) -> Tensor:
        state = self.state
        if state.mem is None or state.mem.shape != synaptic_input.shape:
            state.mem = zeros(synaptic_input.shape, dtype=synaptic_input.dtype)
            state.trace = zeros(synaptic_input.shape, dtype=synaptic_input.dtype)
        spikes, state.mem, state.trace = fused_lif_step(
            state.mem,
            synaptic_input,
            self.beta,
            self.threshold,
            self.surrogate,
            state.trace,
            self.adaptation_step,
            self.adaptation_decay,
        )
        return spikes

    def extra_repr(self) -> str:
        return (
            super().extra_repr()
            + f", adaptation_step={self.adaptation_step}, adaptation_decay={self.adaptation_decay}"
        )
