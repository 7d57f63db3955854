"""Model-to-hardware mapping: workload-proportional PE allocation.

The paper's platform "efficiently allocates platform resources for the model
by leveraging the model's layer sizes and layer-wise sparsity
characteristics".  We model that as distributing a fixed budget of parallel
processing elements (PEs) across layers in proportion to each layer's
*expected* event-driven workload, so that in the lock-step pipeline no layer
is starved and none hoards idle PEs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.hardware.workload import NetworkWorkload


@dataclass(frozen=True)
class MappingConfig:
    """Configuration of the PE allocation scheme.

    Attributes
    ----------
    total_pes:
        Total number of synaptic processing elements available on the device.
    min_pes_per_layer:
        Lower bound so even nearly-silent layers can make forward progress.
    sparsity_aware:
        When ``True`` the allocation follows the measured event-driven
        workload (the paper's scheme); when ``False`` it follows dense MAC
        counts (what a sparsity-oblivious mapper would do).
    """

    total_pes: int = 1024
    min_pes_per_layer: int = 8
    sparsity_aware: bool = True

    def __post_init__(self) -> None:
        if self.total_pes <= 0:
            raise ValueError("total_pes must be positive")
        if self.min_pes_per_layer <= 0:
            raise ValueError("min_pes_per_layer must be positive")


def allocate_processing_elements(workload: NetworkWorkload, config: MappingConfig) -> Dict[str, int]:
    """Distribute PEs over layers proportionally to their workload.

    Returns a mapping from layer name to allocated PE count.  Allocation is
    proportional to the layer's event-driven synaptic operations per timestep
    (or dense MACs when ``config.sparsity_aware`` is ``False``), subject to a
    per-layer minimum; any rounding slack goes to the most loaded layer.
    """
    n_layers = len(workload.layers)
    if config.total_pes < config.min_pes_per_layer * n_layers:
        raise ValueError(
            f"total_pes={config.total_pes} cannot satisfy min_pes_per_layer="
            f"{config.min_pes_per_layer} for {n_layers} layers"
        )

    if config.sparsity_aware:
        demands = [max(layer.sparse_synops_per_step, 1e-9) for layer in workload.layers]
    else:
        demands = [float(layer.dense_macs_per_step) for layer in workload.layers]
    total_demand = sum(demands)

    budget = config.total_pes - config.min_pes_per_layer * n_layers
    allocation: Dict[str, int] = {}
    for layer, demand in zip(workload.layers, demands):
        share = int(budget * demand / total_demand) if total_demand > 0 else 0
        allocation[layer.name] = config.min_pes_per_layer + share

    # Give any rounding remainder to the layer with the highest demand so the
    # bottleneck layer is never under-provisioned by the integer split.
    assigned = sum(allocation.values())
    remainder = config.total_pes - assigned
    if remainder > 0:
        busiest = max(zip(workload.layers, demands), key=lambda pair: pair[1])[0]
        allocation[busiest.name] += remainder
    return allocation
