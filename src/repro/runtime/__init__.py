"""Event-driven sparse inference runtime.

The training stack simulates spiking networks densely: every ``Conv2d`` /
``Linear`` processes complete activation tensors at every timestep, because
BPTT needs the full graph.  At inference time none of that is necessary —
spike tensors are mostly zeros, and the paper's whole premise is that
hardware exploits exactly that sparsity.  This package is the software
analogue of the sparsity-aware accelerator:

* :func:`compile_network` lowers a trained :class:`SpikingCNN` /
  :class:`SpikingMLP` (or any ``Sequential``-ordered spiking classifier)
  into a plan of fused kernels (:mod:`repro.runtime.kernels`): the training
  op's own matmul for dense layers (the bias row alone for a silent frame),
  convolution through the training op's own im2col lowering on buffers
  cached across timesteps, and a fused LIF step (charge + threshold + reset
  in one pass, no graph recording).
* :class:`CompiledNetwork.run` executes the timestep loop on raw arrays
  under ``no_grad`` and produces spike trains identical to the dense
  forward.
* :class:`RuntimeActivity` counts the spike events every layer consumes and
  emits during execution and converts them into the existing
  :class:`~repro.analysis.sparsity.SparsityProfile` and
  :class:`~repro.hardware.workload.NetworkWorkload` reports, so measured
  sparsity feeds the hardware cost models directly.
* :func:`evaluate_with_runtime` fuses accuracy evaluation and sparsity
  profiling into a single sweep over a data loader; it backs
  ``repro.core.experiment.evaluate_trained_model`` and therefore every
  sweep driver.  It is the only place spikes are counted.
* :mod:`repro.runtime.bench` measures the dense-vs-event-driven speedup
  (see ``benchmarks/bench_runtime_speedup.py``).
"""

from repro.runtime.activity import RuntimeActivity
from repro.runtime.bench import SpeedupResult, make_reduced_cnn, make_spike_sequence, measure_speedup
from repro.runtime.engine import (
    AccuracyDelta,
    AccuracyGateError,
    CompiledNetwork,
    INT_PRECISION_BITS,
    InferenceResult,
    PRECISIONS,
    RuntimeCompileError,
    check_accuracy_delta,
    compile_network,
    default_input_scale,
    evaluate_with_runtime,
    resolve_quantization,
    run_inference,
)
from repro.runtime.pool import CompiledNetworkPool
from repro.runtime.kernels import (
    AdaptiveLIFKernel,
    AvgPoolKernel,
    ConvKernel,
    FlattenKernel,
    FusedLIFKernel,
    Kernel,
    LinearKernel,
    MaxPoolKernel,
    QuantizedAdaptiveLIFKernel,
    QuantizedConvKernel,
    QuantizedLIFKernel,
    QuantizedLinearKernel,
    QuantizedSynapticLIFKernel,
    SynapticLIFKernel,
)

__all__ = [
    "RuntimeActivity",
    "SpeedupResult",
    "make_reduced_cnn",
    "make_spike_sequence",
    "measure_speedup",
    "AccuracyDelta",
    "AccuracyGateError",
    "CompiledNetwork",
    "CompiledNetworkPool",
    "InferenceResult",
    "PRECISIONS",
    "INT_PRECISION_BITS",
    "RuntimeCompileError",
    "check_accuracy_delta",
    "compile_network",
    "default_input_scale",
    "evaluate_with_runtime",
    "resolve_quantization",
    "run_inference",
    "Kernel",
    "ConvKernel",
    "LinearKernel",
    "FusedLIFKernel",
    "AdaptiveLIFKernel",
    "SynapticLIFKernel",
    "MaxPoolKernel",
    "AvgPoolKernel",
    "FlattenKernel",
    "QuantizedConvKernel",
    "QuantizedLinearKernel",
    "QuantizedLIFKernel",
    "QuantizedAdaptiveLIFKernel",
    "QuantizedSynapticLIFKernel",
]
