"""repro — reproduction of "Fine-Tuning Surrogate Gradient Learning for
Optimal Hardware Performance in Spiking Neural Networks" (DATE 2024).

The package is organised as a stack of substrates (each usable on its own)
with the paper's methodology on top:

* :mod:`repro.autograd` — NumPy reverse-mode autodiff engine (PyTorch stand-in).
* :mod:`repro.surrogate` — surrogate gradient functions (arctangent, fast
  sigmoid, and extensions) with pluggable derivative scaling.
* :mod:`repro.neurons` — LIF / IF / adaptive-threshold spiking neuron models (Eq. 1–2).
* :mod:`repro.nn` — convolution, pooling, dense and utility layers.
* :mod:`repro.encoding` — rate / latency / delta / direct input encoders.
* :mod:`repro.training` — losses, Adam/SGD, cosine annealing, BPTT trainer.
* :mod:`repro.data` — synthetic SVHN-like dataset and data loading.
* :mod:`repro.runtime` — compiles a trained network into a graph-free
  inference plan (one kernel per layer kind at fp32/fp64/int8/int16,
  sharing training's lowering) whose measured activity reports feed the
  hardware models.
* :mod:`repro.exec` — sweep execution subsystem: process-pool parallel
  experiment runner with deterministic seeding, structured progress, and a
  content-addressed on-disk result cache (CLI: ``python -m repro.exec``).
* :mod:`repro.serve` — micro-batched inference serving: model registry with
  single-file checkpoints, request-coalescing scheduler over the runtime,
  and live telemetry reporting measured vs modeled hardware performance.
* :mod:`repro.hardware` — behavioural model of the sparsity-aware FPGA
  accelerator (latency, resources, power, FPS/W) plus baselines.
* :mod:`repro.core` — the paper's experiments: the 32C3-MP2-32C3-MP2-256-10
  network, the surrogate-scale sweep (Fig. 1), the beta × theta cross-sweep
  (Fig. 2) and the prior-work comparison.
* :mod:`repro.analysis` — sparsity profiling, Pareto fronts, tables, plots.

Quickstart
----------
>>> from repro.core import ExperimentConfig, SCALE_PRESETS, run_experiment
>>> config = ExperimentConfig(surrogate="fast_sigmoid", surrogate_scale=0.25,
...                           beta=0.5, threshold=1.5,
...                           scale=SCALE_PRESETS["smoke"])
>>> record = run_experiment(config)           # doctest: +SKIP
>>> print(record.hardware.fps_per_watt)       # doctest: +SKIP
"""

__version__ = "1.0.0"

from repro import analysis, autograd, core, data, encoding, exec, hardware, neurons, nn, serve, surrogate, training

# NOTE: repro.exec (the sweep executor, imported above) is deliberately NOT
# in __all__ — `from repro import *` must never rebind the exec() builtin.
__all__ = [
    "__version__",
    "autograd",
    "surrogate",
    "neurons",
    "nn",
    "encoding",
    "training",
    "data",
    "hardware",
    "serve",
    "core",
    "analysis",
]
