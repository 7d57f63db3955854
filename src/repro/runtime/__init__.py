"""Compiled inference plans.

The training stack simulates spiking networks densely: every ``Conv2d`` /
``Linear`` processes complete activation tensors at every timestep, and
records a graph, because BPTT needs it.  At inference time no graph is
needed.  This package compiles a trained network into a graph-free plan
that shares training's lowering, so a layer's cost does not follow its
activity (a weight layer skips its weights only on a wholly silent frame).
What the plan adds is measurement: it counts the spike events that the
paper's sparsity-aware accelerator model prices.

* :func:`compile_network` lowers a trained :class:`SpikingCNN` /
  :class:`SpikingMLP` (or any ``Sequential``-ordered spiking classifier)
  into a plan of fused kernels (:mod:`repro.runtime.kernels`), one per
  layer kind: the training op's own matmul for dense layers (the bias row
  alone for a silent frame), convolution through the training op's own
  im2col lowering on buffers cached across timesteps, and one neuron
  kernel for every substrate, which runs the training step's own NumPy
  forward (:func:`repro.autograd.ops_spiking.lif_forward`) on states
  updated in place, with no graph recording.  The precision (fp32, fp64,
  int8, int16) is a kernel argument.
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
* :mod:`repro.runtime.bench` times the compiled plan against the dense
  forward (see ``benchmarks/bench_runtime_speedup.py``).
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
    ConvKernel,
    FlattenKernel,
    Kernel,
    LinearKernel,
    MaxPoolKernel,
    NeuronKernel,
    WeightKernel,
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
    "WeightKernel",
    "ConvKernel",
    "LinearKernel",
    "NeuronKernel",
    "MaxPoolKernel",
    "FlattenKernel",
]
