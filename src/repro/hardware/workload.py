"""Per-layer workload descriptors for model-to-hardware mapping.

The accelerator's behaviour depends on two things per weight layer: the
*static* workload (dense MAC count, neuron count, weight memory) fixed by the
network topology, and the *dynamic* workload (average input/output spike
events per timestep) fixed by the trained model's firing behaviour.  The
paper's central observation is that training hyperparameters change the
dynamic part and therefore the hardware performance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence


@dataclass(frozen=True)
class LayerWorkload:
    """Workload of a single weight layer as seen by the accelerator.

    Attributes
    ----------
    name:
        Layer identifier (e.g. ``"conv1"``).
    kind:
        ``"conv"`` or ``"fc"``.
    num_neurons:
        Number of output neurons (conv: ``C_out * OH * OW``).
    fanout_per_event:
        Synaptic operations triggered by a single input spike event
        (conv: ``C_out * K * K`` destinations; fc: ``out_features``).
    dense_macs_per_step:
        MACs per timestep if every input were processed densely.
    weight_count:
        Number of stored weights (for BRAM sizing).
    avg_input_events_per_step:
        Measured average number of input spike events per timestep per
        sample (the dynamic sparsity the paper tunes).
    avg_output_events_per_step:
        Measured average output spikes per timestep per sample.
    """

    name: str
    kind: str
    num_neurons: int
    fanout_per_event: int
    dense_macs_per_step: int
    weight_count: int
    avg_input_events_per_step: float
    avg_output_events_per_step: float

    def __post_init__(self) -> None:
        if self.kind not in ("conv", "fc"):
            raise ValueError(f"unsupported layer kind '{self.kind}'")
        if min(self.num_neurons, self.fanout_per_event, self.dense_macs_per_step, self.weight_count) <= 0:
            raise ValueError(f"layer '{self.name}' has non-positive static workload")
        if self.avg_input_events_per_step < 0 or self.avg_output_events_per_step < 0:
            raise ValueError(f"layer '{self.name}' has negative event counts")

    @property
    def sparse_synops_per_step(self) -> float:
        """Event-driven synaptic operations per timestep (sparsity-aware cost).

        Capped at the dense MAC count: an event-driven pipeline degenerates to
        dense execution when every input is active, it never does *more* work
        than the dense equivalent.
        """
        return min(self.avg_input_events_per_step * self.fanout_per_event, float(self.dense_macs_per_step))

    @property
    def input_density(self) -> float:
        """Fraction of the dense workload that is actually exercised."""
        if self.dense_macs_per_step == 0:
            return 0.0
        return min(1.0, self.sparse_synops_per_step / self.dense_macs_per_step)

    @property
    def output_firing_rate(self) -> float:
        """Average output spikes per neuron per timestep."""
        return self.avg_output_events_per_step / self.num_neurons if self.num_neurons else 0.0


@dataclass
class NetworkWorkload:
    """Ordered collection of layer workloads plus simulation-level metadata.

    Attributes
    ----------
    layers:
        Weight layers in execution order.
    num_steps:
        Simulation timesteps per inference (``T``).
    input_events_per_step:
        Average encoder spike events per timestep feeding the first layer.
    """

    layers: List[LayerWorkload]
    num_steps: int
    input_events_per_step: float = 0.0

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("NetworkWorkload requires at least one layer")
        if self.num_steps <= 0:
            raise ValueError("num_steps must be positive")
        if self.input_events_per_step < 0:
            raise ValueError("input_events_per_step must be non-negative")

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def layer(self, name: str) -> LayerWorkload:
        """Look up a layer by name."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named '{name}'")

    @property
    def total_dense_macs_per_step(self) -> int:
        return sum(l.dense_macs_per_step for l in self.layers)

    @property
    def total_sparse_synops_per_step(self) -> float:
        return sum(l.sparse_synops_per_step for l in self.layers)

    @property
    def total_neurons(self) -> int:
        return sum(l.num_neurons for l in self.layers)

    @property
    def total_weights(self) -> int:
        return sum(l.weight_count for l in self.layers)

    @property
    def average_firing_rate(self) -> float:
        """Network-wide average spikes per neuron per timestep."""
        neurons = self.total_neurons
        if neurons == 0:
            return 0.0
        return sum(l.avg_output_events_per_step for l in self.layers) / neurons

    def overall_sparsity(self) -> float:
        """1 - (event-driven synops / dense MACs), the headline sparsity figure."""
        dense = self.total_dense_macs_per_step
        if dense == 0:
            return 0.0
        return max(0.0, 1.0 - self.total_sparse_synops_per_step / dense)


def workload_from_layer_specs(
    layer_specs: Sequence[Mapping],
    firing_profile: Mapping[str, float],
    num_steps: int,
    input_events_per_step: float,
) -> NetworkWorkload:
    """Build a :class:`NetworkWorkload` from architecture specs and a firing profile.

    Parameters
    ----------
    layer_specs:
        One mapping per weight layer with keys ``name``, ``kind`` and either
        conv geometry (``in_channels``, ``out_channels``, ``kernel_size``,
        ``out_h``, ``out_w``) or fc geometry (``in_features``,
        ``out_features``).
    firing_profile:
        Mapping from layer name to measured average *output* spike events per
        timestep per sample (see :mod:`repro.analysis.sparsity`).
    num_steps:
        Simulation timesteps per inference.
    input_events_per_step:
        Average encoder events per timestep (input to the first layer).
    """
    layers: List[LayerWorkload] = []
    previous_output_events = float(input_events_per_step)
    for spec in layer_specs:
        name = spec["name"]
        kind = spec["kind"]
        if name not in firing_profile:
            raise KeyError(f"firing profile is missing layer '{name}'")
        output_events = float(firing_profile[name])
        if kind == "conv":
            c_in = int(spec["in_channels"])
            c_out = int(spec["out_channels"])
            k = int(spec["kernel_size"])
            oh, ow = int(spec["out_h"]), int(spec["out_w"])
            num_neurons = c_out * oh * ow
            fanout = c_out * k * k
            dense_macs = c_out * oh * ow * c_in * k * k
            weight_count = c_out * c_in * k * k
        elif kind == "fc":
            in_features = int(spec["in_features"])
            out_features = int(spec["out_features"])
            num_neurons = out_features
            fanout = out_features
            dense_macs = in_features * out_features
            weight_count = in_features * out_features
        else:
            raise ValueError(f"unsupported layer kind '{kind}' in spec for '{name}'")
        layers.append(
            LayerWorkload(
                name=name,
                kind=kind,
                num_neurons=num_neurons,
                fanout_per_event=fanout,
                dense_macs_per_step=dense_macs,
                weight_count=weight_count,
                avg_input_events_per_step=previous_output_events,
                avg_output_events_per_step=output_events,
            )
        )
        previous_output_events = output_events
    return NetworkWorkload(layers=layers, num_steps=num_steps, input_events_per_step=float(input_events_per_step))
