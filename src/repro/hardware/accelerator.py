"""Accelerator front-ends: sparsity-aware platform and dense baseline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.hardware.latency import LatencyBreakdown, LatencyModel
from repro.hardware.mapping import MappingConfig, allocate_processing_elements
from repro.hardware.power import PowerBreakdown, PowerModel
from repro.hardware.resources import (
    FPGAResources,
    KINTEX_ULTRASCALE_PLUS,
    ResourceCostModel,
    ResourceUsage,
    estimate_resources,
)
from repro.hardware.workload import NetworkWorkload


@dataclass(frozen=True)
class AcceleratorConfig:
    """Top-level configuration of the modelled accelerator platform.

    Attributes
    ----------
    clock_hz:
        Accelerator clock frequency.
    total_pes:
        Synaptic processing elements available for layer mapping.
    neuron_update_parallelism:
        Parallel neuron-update units per layer.
    device:
        Target FPGA device capacities.
    sparsity_aware:
        Whether the compute pipeline skips zero inputs (the paper's
        platform) or processes the dense workload (baseline).
    """

    clock_hz: float = 200e6
    total_pes: int = 1024
    neuron_update_parallelism: int = 64
    device: FPGAResources = KINTEX_ULTRASCALE_PLUS
    sparsity_aware: bool = True

    def __post_init__(self) -> None:
        if self.clock_hz <= 0 or self.total_pes <= 0 or self.neuron_update_parallelism <= 0:
            raise ValueError("AcceleratorConfig values must be positive")


class SparsityAwareAccelerator:
    """Model of the paper's in-house, sparsity-aware, lock-step accelerator.

    The accelerator:

    1. maps PEs to layers in proportion to their measured event-driven
       workload (:mod:`repro.hardware.mapping`),
    2. executes layers in a lock-step pipeline whose stage time is set by the
       slowest layer (:mod:`repro.hardware.latency`), and
    3. burns dynamic energy per spike event rather than per dense MAC
       (:mod:`repro.hardware.power`).

    Use :meth:`run` to obtain latency, resource and power results for a
    :class:`~repro.hardware.workload.NetworkWorkload`.
    """

    def __init__(
        self,
        config: Optional[AcceleratorConfig] = None,
        power_model: Optional[PowerModel] = None,
        cost_model: Optional[ResourceCostModel] = None,
    ) -> None:
        self.config = config if config is not None else AcceleratorConfig()
        self.power_model = power_model if power_model is not None else PowerModel()
        self.cost_model = cost_model if cost_model is not None else ResourceCostModel()
        self.latency_model = LatencyModel(
            clock_hz=self.config.clock_hz,
            neuron_update_parallelism=self.config.neuron_update_parallelism,
            sparsity_aware=self.config.sparsity_aware,
        )
        self.mapping_config = MappingConfig(
            total_pes=self.config.total_pes,
            sparsity_aware=self.config.sparsity_aware,
        )

    # ------------------------------------------------------------------ #
    def map(self, workload: NetworkWorkload) -> Dict[str, int]:
        """Allocate PEs to layers for the given workload."""
        return allocate_processing_elements(workload, self.mapping_config)

    def run(self, workload: NetworkWorkload) -> "AcceleratorRun":
        """Evaluate the full hardware model on a workload."""
        allocation = self.map(workload)
        latency = self.latency_model.evaluate(workload, allocation)
        resources = estimate_resources(
            workload,
            allocation,
            neuron_update_parallelism=self.config.neuron_update_parallelism,
            device=self.config.device,
            cost_model=self.cost_model,
        )
        power = self.power_model.evaluate(
            workload,
            latency,
            resources,
            clock_hz=self.config.clock_hz,
            sparsity_aware=self.config.sparsity_aware,
        )
        return AcceleratorRun(
            workload=workload,
            pe_allocation=allocation,
            latency=latency,
            resources=resources,
            power=power,
        )

    def __repr__(self) -> str:
        kind = "sparsity-aware" if self.config.sparsity_aware else "dense"
        return f"{type(self).__name__}({kind}, clock={self.config.clock_hz / 1e6:.0f} MHz, PEs={self.config.total_pes})"


class DenseBaselineAccelerator(SparsityAwareAccelerator):
    """Sparsity-oblivious baseline: identical platform, dense execution.

    Every dense MAC is executed regardless of input spikes, so latency and
    dynamic power no longer depend on firing rates — the ablation that shows
    why the paper's hyperparameter tuning only pays off on sparsity-aware
    hardware.
    """

    def __init__(
        self,
        config: Optional[AcceleratorConfig] = None,
        power_model: Optional[PowerModel] = None,
        cost_model: Optional[ResourceCostModel] = None,
    ) -> None:
        base = config if config is not None else AcceleratorConfig()
        dense_config = AcceleratorConfig(
            clock_hz=base.clock_hz,
            total_pes=base.total_pes,
            neuron_update_parallelism=base.neuron_update_parallelism,
            device=base.device,
            sparsity_aware=False,
        )
        super().__init__(config=dense_config, power_model=power_model, cost_model=cost_model)


@dataclass
class AcceleratorRun:
    """Bundle of all hardware-model outputs for one workload."""

    workload: NetworkWorkload
    pe_allocation: Dict[str, int]
    latency: LatencyBreakdown
    resources: ResourceUsage
    power: PowerBreakdown

    @property
    def fps(self) -> float:
        return self.latency.throughput_fps

    @property
    def fps_per_watt(self) -> float:
        total = self.power.total_w
        return self.fps / total if total > 0 else 0.0

    @property
    def latency_ms(self) -> float:
        return self.latency.latency_ms

    @property
    def energy_per_inference_j(self) -> float:
        return self.power.total_w / self.fps if self.fps > 0 else float("inf")
