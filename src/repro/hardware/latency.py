"""Cycle-level latency model of the layer-wise lock-step pipeline.

The accelerator processes one simulation timestep of one layer per pipeline
stage.  All layers advance in lock step: the stage interval is set by the
slowest layer for that timestep.  A single inference therefore needs
``T`` lock-step intervals to stream its last timestep into the first layer
plus ``L - 1`` further intervals to drain the pipeline, while steady-state
throughput admits a new inference every ``T`` intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.hardware.workload import LayerWorkload, NetworkWorkload


@dataclass
class LatencyBreakdown:
    """Per-layer and end-to-end timing results.

    Attributes
    ----------
    layer_cycles_per_step:
        Cycles each layer needs to process one timestep.
    lockstep_interval_cycles:
        Pipeline stage interval = max over layers (plus sync overhead).
    latency_cycles:
        End-to-end cycles for one inference.
    latency_seconds:
        ``latency_cycles / clock_hz``.
    throughput_fps:
        Steady-state inferences per second.
    """

    layer_cycles_per_step: Dict[str, float]
    lockstep_interval_cycles: float
    latency_cycles: float
    latency_seconds: float
    throughput_fps: float

    @property
    def latency_ms(self) -> float:
        return self.latency_seconds * 1e3

    def bottleneck_layer(self) -> str:
        """Name of the layer that sets the lock-step interval."""
        return max(self.layer_cycles_per_step, key=self.layer_cycles_per_step.get)


@dataclass(frozen=True)
class LatencyModel:
    """Analytical latency model.

    Attributes
    ----------
    clock_hz:
        Accelerator clock frequency (the paper's platform class runs at a few
        hundred MHz on Kintex UltraScale+).
    synops_per_pe_per_cycle:
        Synaptic operations a single PE retires per cycle.
    neuron_update_cycles:
        Cycles per neuron membrane update (leak + threshold check), amortised
        over the neuron-update pipeline width.
    neuron_update_parallelism:
        Number of neuron updates processed in parallel.
    lockstep_sync_overhead_cycles:
        Fixed handshake overhead added to every lock-step interval.
    sparsity_aware:
        When ``True`` compute cycles scale with spike events; when ``False``
        every dense MAC is executed (the sparsity-oblivious baseline).
    """

    clock_hz: float = 200e6
    synops_per_pe_per_cycle: float = 1.0
    neuron_update_cycles: float = 1.0
    neuron_update_parallelism: int = 64
    lockstep_sync_overhead_cycles: float = 16.0
    sparsity_aware: bool = True

    def __post_init__(self) -> None:
        if self.clock_hz <= 0 or self.synops_per_pe_per_cycle <= 0:
            raise ValueError("clock_hz and synops_per_pe_per_cycle must be positive")
        if self.neuron_update_parallelism <= 0:
            raise ValueError("neuron_update_parallelism must be positive")
        if self.lockstep_sync_overhead_cycles < 0 or self.neuron_update_cycles < 0:
            raise ValueError("cycle overheads must be non-negative")

    # ------------------------------------------------------------------ #
    def layer_cycles(self, layer: LayerWorkload, allocated_pes: int) -> float:
        """Cycles for one layer to process one simulation timestep."""
        if allocated_pes <= 0:
            raise ValueError(f"layer '{layer.name}' was allocated no PEs")
        if self.sparsity_aware:
            synops = layer.sparse_synops_per_step
        else:
            synops = float(layer.dense_macs_per_step)
        compute_cycles = synops / (allocated_pes * self.synops_per_pe_per_cycle)
        update_cycles = layer.num_neurons * self.neuron_update_cycles / self.neuron_update_parallelism
        return compute_cycles + update_cycles

    def evaluate(self, workload: NetworkWorkload, pe_allocation: Mapping[str, int]) -> LatencyBreakdown:
        """Latency and throughput of one inference under a PE allocation."""
        per_layer: Dict[str, float] = {}
        for layer in workload.layers:
            per_layer[layer.name] = self.layer_cycles(layer, int(pe_allocation[layer.name]))
        interval = max(per_layer.values()) + self.lockstep_sync_overhead_cycles
        num_layers = len(workload.layers)
        latency_cycles = (workload.num_steps + num_layers - 1) * interval
        latency_seconds = latency_cycles / self.clock_hz
        # Steady state: a new inference enters every T lock-step intervals.
        throughput_fps = self.clock_hz / (workload.num_steps * interval)
        return LatencyBreakdown(
            layer_cycles_per_step=per_layer,
            lockstep_interval_cycles=interval,
            latency_cycles=latency_cycles,
            latency_seconds=latency_seconds,
            throughput_fps=throughput_fps,
        )
