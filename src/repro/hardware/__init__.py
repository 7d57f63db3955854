"""Behavioural model of the paper's FPGA-based SNN accelerator.

The paper maps trained models onto an in-house SystemVerilog accelerator
implemented on a Xilinx Kintex UltraScale+ FPGA.  The accelerator is
sparsity-aware (compute scales with spike events, not dense MACs), allocates
processing elements per layer according to the layer's workload
("model-to-hardware mapping"), and runs the layers in a lock-step pipeline.

This package reproduces that platform as an analytical model:

* :mod:`repro.hardware.workload` — per-layer workload descriptors extracted
  from a trained model plus its measured firing rates.
* :mod:`repro.hardware.mapping` — workload-proportional PE allocation.
* :mod:`repro.hardware.latency` — cycle model for the lock-step pipeline.
* :mod:`repro.hardware.resources` — LUT/FF/DSP/BRAM utilisation estimates.
* :mod:`repro.hardware.power` — static + activity-dependent dynamic power.
* :mod:`repro.hardware.accelerator` — the sparsity-aware accelerator
  (:class:`SparsityAwareAccelerator`) and the sparsity-oblivious dense
  baseline (:class:`DenseBaselineAccelerator`).
* :mod:`repro.hardware.prior_work` — model of the comparison accelerator of
  Ye et al. (TCAD 2022), the paper's reference [6].
* :mod:`repro.hardware.efficiency` — the FPS/W report the paper's figures use.

Absolute numbers are calibrated to the Kintex UltraScale+ class of device;
what matters for the reproduction is that latency, power and FPS/W respond
to firing rates and layer shapes exactly the way the paper's platform does.

The model's predictions can be checked against *measured* serving numbers:
:mod:`repro.serve` records achieved fps and latency percentiles for live
inference traffic together with the traffic's measured spike activity, and
:func:`repro.hardware.report.format_measured_vs_modeled` renders that
measurement next to the accelerator's prediction for the same workload —
the modeled row is the FPGA, the measured row is the serving host, and the
ratio is the hardware-efficiency gap the paper quantifies.
"""

from repro.hardware.workload import LayerWorkload, NetworkWorkload, workload_from_layer_specs
from repro.hardware.mapping import MappingConfig, allocate_processing_elements
from repro.hardware.resources import FPGAResources, ResourceUsage, estimate_resources, KINTEX_ULTRASCALE_PLUS
from repro.hardware.power import PowerModel, PowerBreakdown
from repro.hardware.latency import LatencyModel, LatencyBreakdown
from repro.hardware.accelerator import AcceleratorConfig, SparsityAwareAccelerator, DenseBaselineAccelerator
from repro.hardware.prior_work import PriorWorkAccelerator, PRIOR_WORK_REFERENCE
from repro.hardware.efficiency import HardwareReport, evaluate_on_hardware
from repro.hardware.report import format_report, format_comparison, format_measured_vs_modeled
from repro.hardware.quantization import QuantizationConfig

__all__ = [
    "LayerWorkload",
    "NetworkWorkload",
    "workload_from_layer_specs",
    "MappingConfig",
    "allocate_processing_elements",
    "FPGAResources",
    "ResourceUsage",
    "estimate_resources",
    "KINTEX_ULTRASCALE_PLUS",
    "PowerModel",
    "PowerBreakdown",
    "LatencyModel",
    "LatencyBreakdown",
    "AcceleratorConfig",
    "SparsityAwareAccelerator",
    "DenseBaselineAccelerator",
    "PriorWorkAccelerator",
    "PRIOR_WORK_REFERENCE",
    "HardwareReport",
    "evaluate_on_hardware",
    "format_report",
    "format_comparison",
    "format_measured_vs_modeled",
    "QuantizationConfig",
]
