"""Common machinery for spiking neuron layers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.autograd.tensor import Tensor
from repro.nn.module import Module
from repro.surrogate.base import SurrogateFunction
from repro.surrogate.fast_sigmoid import FastSigmoid


@dataclass
class NeuronState:
    """Mutable per-sequence state carried across timesteps by a neuron layer.

    Attributes
    ----------
    mem:
        Membrane potential tensor (part of the autograd graph during BPTT).
    trace:
        Spike-triggered adaptation trace of an adaptive-threshold layer
        (outside the graph); ``None`` for a fixed threshold.
    """

    mem: Optional[Tensor] = None
    trace: Optional[Tensor] = None


class SpikingNeuron(Module):
    """Base class for stateful spiking neuron layers.

    Subclasses implement :meth:`step` which consumes the synaptic input for
    one timestep and returns the emitted spikes; a spike resets the
    membrane by subtraction (the paper's Eq. 1).  The layer keeps no spike
    statistics: measured activity comes from the compiled runtime
    (:class:`repro.runtime.RuntimeActivity`).
    """

    def __init__(
        self,
        beta: float = 0.25,
        threshold: float = 1.0,
        surrogate: Optional[SurrogateFunction] = None,
    ) -> None:
        super().__init__()
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {beta}")
        if not threshold > 0.0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.beta = float(beta)
        self.threshold = float(threshold)
        self.surrogate = surrogate if surrogate is not None else FastSigmoid()
        self.state = NeuronState()

    @property
    def membrane(self) -> Optional[Tensor]:
        """Current membrane potential, shaped like the layer's input (``None`` before the first step).

        On :class:`~repro.core.network.SpikingCNN`'s conv1-once path (a
        direct-coded sequence) ``lif1``'s input, and so its state, is in
        ``pool1``'s phase-major layout, ``(k*k, N, C, H/k, W/k)``; undo it
        with :func:`repro.autograd.ops_conv.from_phase_major`.
        """
        return self.state.mem

    # ------------------------------------------------------------------ #
    def reset_state(self) -> None:
        """Clear the membrane (and adaptation) state before a new sequence."""
        self.state = NeuronState()

    # ------------------------------------------------------------------ #
    def step(self, synaptic_input: Tensor) -> Tensor:
        raise NotImplementedError

    def forward(self, synaptic_input: Tensor) -> Tensor:
        return self.step(synaptic_input)

    def extra_repr(self) -> str:
        return f"beta={self.beta}, threshold={self.threshold}, surrogate={self.surrogate!r}"
