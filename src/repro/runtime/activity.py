"""Spike-activity accounting for the event-driven runtime.

The runtime counts, while it executes, exactly the quantities the hardware
cost models consume: encoder events entering the network, spike events
entering every weight layer, and spike events emitted by every spiking
layer.  Each kernel counts the events it consumes or emits with
:func:`count_events`, the one definition of a spike event, and
:meth:`~repro.runtime.engine.CompiledNetwork.run` collects the totals once
per run.  :class:`RuntimeActivity` aggregates those counts across batches and
converts them into the existing reporting types —
:class:`~repro.analysis.sparsity.SparsityProfile` for the software-side
analysis and :class:`~repro.hardware.workload.NetworkWorkload` for the
accelerator models — so measured sparsity (rather than hand-chained
estimates) can drive the hardware evaluation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.hardware.workload import NetworkWorkload, workload_from_layer_specs


def count_events(x: np.ndarray) -> int:
    """Number of spike events in ``x``: its nonzero entries.

    ``-0.0`` is not an event and NaN is, as for ``np.count_nonzero``.
    Counting the boolean ``x != 0`` instead of ``x`` itself gives the same
    number several times faster: NumPy counts a float array's nonzeros one
    element at a time, but a boolean array's in bulk.
    """
    return int(np.count_nonzero(x != 0))


@dataclass
class RuntimeActivity:
    """Spike counts recorded during event-driven execution.

    All event counts are totals over every sample and timestep processed;
    the ``*_per_step`` accessors normalise to the per-sample per-timestep
    averages the hardware models expect.

    Attributes
    ----------
    num_steps:
        Simulation timesteps per inference.
    samples:
        Number of samples processed so far.
    input_events:
        Total encoder activity entering the network.  Measured as the *sum*
        of the input sequence (not the non-zero count), so a graded encoder
        (direct encoding) counts its intensity.  It is summed before an
        integer plan quantizes the input, so every precision reports the
        same figure for the same batch.
    layer_input_events:
        Total spike events entering each weight layer, keyed by layer name.
    layer_output_events:
        Total spikes emitted by each spiking layer, keyed by layer name.
    layer_neuron_counts:
        Neurons per sample for each spiking layer.
    """

    num_steps: int
    samples: int = 0
    input_events: float = 0.0
    layer_input_events: Dict[str, float] = field(default_factory=dict)
    layer_output_events: Dict[str, float] = field(default_factory=dict)
    layer_neuron_counts: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def _normaliser(self) -> float:
        return float(max(self.samples, 1) * max(self.num_steps, 1))

    @property
    def input_events_per_step(self) -> float:
        """Average encoder events per timestep per sample."""
        return self.input_events / self._normaliser()

    def output_events_per_step(self) -> Dict[str, float]:
        """Average output spike events per timestep per sample, per spiking layer."""
        norm = self._normaliser()
        return {name: events / norm for name, events in self.layer_output_events.items()}

    def input_events_per_step_by_layer(self) -> Dict[str, float]:
        """Average *measured* input events per timestep per sample, per weight layer."""
        norm = self._normaliser()
        return {name: events / norm for name, events in self.layer_input_events.items()}

    def firing_rate(self, layer_name: str) -> float:
        """Average spikes per neuron per timestep for one spiking layer."""
        neurons = self.layer_neuron_counts.get(layer_name, 0)
        if neurons == 0:
            return 0.0
        return self.output_events_per_step()[layer_name] / neurons

    # ------------------------------------------------------------------ #
    def merge(self, other: "RuntimeActivity") -> None:
        """Accumulate another batch's counts into this report (in place)."""
        if other.num_steps != self.num_steps:
            raise ValueError(
                f"cannot merge activity with different num_steps ({other.num_steps} vs {self.num_steps})"
            )
        self.samples += other.samples
        self.input_events += other.input_events
        for name, events in other.layer_input_events.items():
            self.layer_input_events[name] = self.layer_input_events.get(name, 0.0) + events
        for name, events in other.layer_output_events.items():
            self.layer_output_events[name] = self.layer_output_events.get(name, 0.0) + events
        for name, count in other.layer_neuron_counts.items():
            self.layer_neuron_counts[name] = count

    # ------------------------------------------------------------------ #
    # Conversions into the existing reporting types
    # ------------------------------------------------------------------ #
    def to_sparsity_profile(self):
        """View the measured activity as a :class:`SparsityProfile`."""
        from repro.analysis.sparsity import SparsityProfile

        return SparsityProfile(
            layer_events_per_step=self.output_events_per_step(),
            input_events_per_step=self.input_events_per_step,
            layer_neuron_counts=dict(self.layer_neuron_counts),
            num_steps=self.num_steps,
            samples_profiled=self.samples,
        )

    def to_workload(
        self,
        layer_specs: Sequence[Mapping],
        measured_inputs: bool = True,
    ) -> NetworkWorkload:
        """Build a :class:`NetworkWorkload` from this measured activity.

        Parameters
        ----------
        layer_specs:
            Architecture description as produced by ``model.layer_specs()``
            (each entry names its ``firing_layer``).
        measured_inputs:
            When true (default), each layer's ``avg_input_events_per_step``
            is the activity the runtime actually observed entering that
            layer — i.e. *after* pooling and flattening.  When false, the
            classic chaining convention is used instead (a layer's input
            events are the previous layer's output events), matching
            :func:`repro.core.experiment.build_workload`.
        """
        firing = self.output_events_per_step()
        firing_profile = {spec["name"]: firing[spec["firing_layer"]] for spec in layer_specs}
        workload = workload_from_layer_specs(
            layer_specs,
            firing_profile,
            num_steps=self.num_steps,
            input_events_per_step=self.input_events_per_step,
        )
        if not measured_inputs:
            return workload
        measured = self.input_events_per_step_by_layer()
        layers: List = []
        for layer in workload.layers:
            if layer.name in measured:
                layers.append(dataclasses.replace(layer, avg_input_events_per_step=measured[layer.name]))
            else:
                layers.append(layer)
        return NetworkWorkload(
            layers=layers,
            num_steps=workload.num_steps,
            input_events_per_step=workload.input_events_per_step,
        )
