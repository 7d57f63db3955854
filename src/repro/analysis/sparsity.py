"""Firing-rate / sparsity profile of a trained spiking model.

The hardware model consumes *average spike events per timestep per sample*
for the network input and for every spiking layer.  The compiled runtime
measures those quantities while it evaluates a model
(:meth:`repro.runtime.RuntimeActivity.to_sparsity_profile`); this module
holds the record type they are reported in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class SparsityProfile:
    """Measured spiking activity of a trained model.

    Attributes
    ----------
    layer_events_per_step:
        Average output spike events per timestep per sample, keyed by the
        spiking layer's name in the model.
    input_events_per_step:
        Average encoder spike events per timestep per sample.
    layer_neuron_counts:
        Number of neurons per spiking layer (for firing-rate normalisation).
    num_steps:
        Timesteps used during profiling.
    samples_profiled:
        Number of samples the averages were taken over.
    """

    layer_events_per_step: Dict[str, float]
    input_events_per_step: float
    layer_neuron_counts: Dict[str, int]
    num_steps: int
    samples_profiled: int

    def firing_rate(self, layer_name: str) -> float:
        """Average spikes per neuron per timestep for one layer."""
        neurons = self.layer_neuron_counts.get(layer_name, 0)
        if neurons == 0:
            return 0.0
        return self.layer_events_per_step[layer_name] / neurons

    def average_firing_rate(self) -> float:
        """Network-wide average spikes per neuron per timestep."""
        total_neurons = sum(self.layer_neuron_counts.values())
        if total_neurons == 0:
            return 0.0
        total_events = sum(self.layer_events_per_step.values())
        return total_events / total_neurons

    def as_dict(self) -> Dict[str, float]:
        out = {f"events/{name}": value for name, value in self.layer_events_per_step.items()}
        out["input_events_per_step"] = self.input_events_per_step
        out["average_firing_rate"] = self.average_firing_rate()
        return out

