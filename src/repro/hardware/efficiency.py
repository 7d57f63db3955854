"""End-to-end hardware evaluation: from trained-model profile to FPS/W."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hardware.accelerator import AcceleratorRun, SparsityAwareAccelerator
from repro.hardware.workload import NetworkWorkload


@dataclass
class HardwareReport:
    """The metrics the paper reports for one trained configuration.

    Attributes
    ----------
    accuracy:
        Classification accuracy of the trained model (software metric).
    firing_rate:
        Network-average spikes per neuron per timestep.
    sparsity:
        ``1 - sparse_synops / dense_macs`` over the whole network.
    latency_ms:
        End-to-end hardware latency of one inference.
    fps:
        Steady-state throughput.
    power_w:
        Total (static + dynamic) power.
    fps_per_watt:
        The paper's accelerator-efficiency metric.
    energy_per_inference_mj:
        Energy per inference in millijoules.
    run:
        The full accelerator run (PE allocation, breakdowns) for inspection.
    """

    accuracy: float
    firing_rate: float
    sparsity: float
    latency_ms: float
    fps: float
    power_w: float
    fps_per_watt: float
    energy_per_inference_mj: float
    run: Optional[AcceleratorRun] = field(default=None, repr=False)

    def as_dict(self) -> Dict[str, float]:
        """Plain-float view for serialisation and tables."""
        return {
            "accuracy": self.accuracy,
            "firing_rate": self.firing_rate,
            "sparsity": self.sparsity,
            "latency_ms": self.latency_ms,
            "fps": self.fps,
            "power_w": self.power_w,
            "fps_per_watt": self.fps_per_watt,
            "energy_per_inference_mj": self.energy_per_inference_mj,
        }


def evaluate_on_hardware(
    workload: NetworkWorkload,
    accelerator: SparsityAwareAccelerator,
    accuracy: float,
) -> HardwareReport:
    """Run the hardware model on a workload and bundle the paper's metrics."""
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError(f"accuracy must lie in [0, 1], got {accuracy}")
    run = accelerator.run(workload)
    return HardwareReport(
        accuracy=float(accuracy),
        firing_rate=workload.average_firing_rate,
        sparsity=workload.overall_sparsity(),
        latency_ms=run.latency_ms,
        fps=run.fps,
        power_w=run.power.total_w,
        fps_per_watt=run.fps_per_watt,
        energy_per_inference_mj=run.energy_per_inference_j * 1e3,
        run=run,
    )
