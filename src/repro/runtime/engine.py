"""Compile a trained spiking network into a graph-free inference plan.

:func:`compile_network` walks a model's registered submodules (whose
registration order is the execution order for :class:`SpikingCNN` and
:class:`SpikingMLP`) and lowers each layer to a fused NumPy kernel from
:mod:`repro.runtime.kernels`.  The resulting :class:`CompiledNetwork` runs
the timestep loop entirely on raw arrays — no autograd tensors, no graph
recording — while its kernels count the spike events each layer consumes
and emits.  Each kernel binds to the batch shape it first sees and writes
every timestep into arrays it keeps, so a run at the bound shape allocates
almost nothing; a batch of another shape rebinds the plan.  An array a
kernel returns is valid only until its next step, so the engine copies
what it keeps: an :class:`InferenceResult` never holds a kernel's array.

The compiled forward produces spike trains identical to the dense training
forward — enforced by ``tests/test_runtime_equivalence.py`` and the
benchmark's correctness gate (see :mod:`repro.runtime.kernels` for the
exact numerical contract) — so it can transparently replace the dense path
for evaluation and sparsity profiling.

Plans compile at one of four precisions (:data:`PRECISIONS`):

* ``"fp32"`` — the default serving path, bit-identical to the dense forward.
* ``"fp64"`` — a float64 reference execution (every affine step and
  membrane in double precision), the baseline the quantized paths are
  gated against.
* ``"int8"`` / ``"int16"`` — the quantized execution path: weight kernels
  hold integer lattices with per-tensor scales from
  :mod:`repro.hardware.quantization`, accumulation is exact integer
  arithmetic, and neuron thresholds/decays operate on the integer grid
  (see :class:`~repro.runtime.kernels.NeuronKernel`).  Binary spike
  activations reset the scale between layers, so the only dequantization
  happens at the network output boundary.

:func:`check_accuracy_delta` is the accuracy gate for the quantized paths:
it runs a baseline plan and a quantized plan over the *same* encoded spike
trains (encoders may be stochastic, so encoding once is what makes the
comparison paired) and raises :class:`AccuracyGateError` when the top-1
drop exceeds its ``max_accuracy_drop`` budget.  Serving runs fp32 plans
only: the integer plans are measured
(``benchmarks/bench_quantized_runtime.py``, perfbench's ``infer_batch``),
not served.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.neurons.adaptive import AdaptiveLIF
from repro.neurons.base import SpikingNeuron
from repro.neurons.factory import neuron_descriptor
from repro.neurons.lif import LIF
from repro.nn.conv import Conv2d
from repro.nn.flatten import Flatten
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.pool import MaxPool2d
from repro.hardware.quantization import QuantizationConfig
from repro.runtime.activity import RuntimeActivity
from repro.runtime.kernels import (
    ConvKernel,
    FlattenKernel,
    Kernel,
    LinearKernel,
    MaxPoolKernel,
    NeuronKernel,
)

#: Supported execution precisions for :func:`compile_network`.
PRECISIONS = ("fp32", "fp64", "int8", "int16")

#: Weight bits implied by each integer precision.
INT_PRECISION_BITS = {"int8": 8, "int16": 16}


class RuntimeCompileError(ValueError):
    """Raised when a model contains layers the runtime cannot lower."""


class AccuracyGateError(RuntimeError):
    """Raised when a quantized plan's accuracy drop exceeds its budget.

    Carries the failing :class:`AccuracyDelta` as ``.delta``.
    """

    def __init__(self, delta: "AccuracyDelta") -> None:
        super().__init__(
            f"{delta.precision} accuracy gate failed: baseline "
            f"{delta.baseline_accuracy:.4f} -> quantized {delta.quantized_accuracy:.4f} "
            f"(drop {delta.drop:.4f} > budget {delta.max_accuracy_drop:.4f} "
            f"over {delta.samples} samples)"
        )
        self.delta = delta


@dataclass
class InferenceResult:
    """Output of one compiled-plan run.

    Attributes
    ----------
    counts:
        Accumulated output spike counts, shape ``(N, num_classes)`` — the
        same quantity the dense ``model.forward`` returns.
    activity:
        Measured spike activity for this run (``None`` when recording was
        disabled).
    spike_trains:
        Per spiking layer, the full ``(T, N, ...)`` spike train.  Only
        populated when the run collected trains (equivalence testing and
        debugging); ``None`` otherwise.
    """

    counts: np.ndarray
    activity: Optional[RuntimeActivity] = None
    spike_trains: Optional[Dict[str, np.ndarray]] = None

    def predictions(self) -> np.ndarray:
        """Predicted class per sample (argmax of output spike counts)."""
        return self.counts.argmax(axis=-1)


class _LoweringState:
    """Mutable context threaded through lowering for integer precisions.

    Tracks the activation scale chain: the input enters quantized by
    ``input_scale`` (integer magnitudes up to ``input_int_max``), each weight
    stage multiplies the scale by its weight scale, and each spiking stage
    collapses it back to binary (scale 1.0).  ``pending_weight`` is the
    weight kernel whose output the next spiking layer will threshold — how
    an integer plan's neuron learns its grid.
    """

    def __init__(self, quantization: Optional[QuantizationConfig], input_scale: float, compute_dtype) -> None:
        self.quantization = quantization
        self.compute_dtype = compute_dtype
        self.input_scale = float(input_scale)
        self.input_int_max = max(1.0, float(np.rint(1.0 / self.input_scale))) if quantization else 1.0
        self.pending_weight: Optional[Kernel] = None

    @property
    def integer(self) -> bool:
        return self.quantization is not None


#: The neuron class whose dynamics each substrate's kernel implements.
_SUBSTRATE_CLASSES = {"lif": LIF, "adaptive": AdaptiveLIF}


def _substrate(name: str, module: SpikingNeuron) -> Tuple[str, Dict[str, float]]:
    """Return the ``(substrate, params)`` of a neuron layer the runtime can lower.

    Lowering keys on :func:`~repro.neurons.factory.neuron_descriptor`, which
    matches by ``isinstance``, so a subclass that overrides ``step`` or
    ``forward`` would silently run its parent's dynamics in the plan; it is
    rejected instead.  Subclasses that only change construction lower as
    their substrate.
    """
    try:
        substrate, params = neuron_descriptor(module)
    except TypeError:
        raise RuntimeCompileError(
            f"layer '{name}': {type(module).__name__} neurons are not supported by the "
            "runtime (supported: LIF, AdaptiveLIF)"
        ) from None
    base = _SUBSTRATE_CLASSES[substrate]
    overridden = [
        method for method in ("step", "forward") if getattr(type(module), method) is not getattr(base, method)
    ]
    if overridden:
        raise RuntimeCompileError(
            f"layer '{name}': {type(module).__name__} overrides {' and '.join(overridden)} "
            f"of {base.__name__}; the runtime only has {base.__name__}'s dynamics"
        )
    return substrate, params


def _lower_module(name: str, module: Module, state: _LoweringState) -> Kernel:
    """Map one layer module to its fused kernel."""
    if isinstance(module, (Conv2d, Linear)):
        if state.integer and state.pending_weight is not None:
            raise RuntimeCompileError(
                f"layer '{name}': consecutive weight layers without a spiking layer "
                "between them are not supported at integer precision (the activation "
                "scale chain needs a binary re-normalization point)"
            )
        bias = module.bias.data if module.bias is not None else None
        precision = dict(
            compute_dtype=state.compute_dtype,
            quantization=state.quantization,
            input_scale=state.input_scale,
            input_int_max=state.input_int_max,
        )
        if isinstance(module, Conv2d):
            kernel = ConvKernel(name, module.weight.data, bias, module.stride, module.padding, **precision)
        else:
            kernel = LinearKernel(name, module.weight.data, bias, **precision)
        state.pending_weight = kernel
        return kernel
    if isinstance(module, SpikingNeuron):
        substrate, params = _substrate(name, module)
        kernel = NeuronKernel(
            name,
            substrate,
            params,
            module.beta,
            module.threshold,
            integer=state.integer,
            upstream=state.pending_weight,
            input_scale=state.input_scale,
        )
        # Binary spikes leave the layer: the scale chain restarts at 1.
        state.pending_weight = None
        state.input_scale = 1.0
        state.input_int_max = 1.0
        return kernel
    if isinstance(module, MaxPool2d):
        # Max of same-scale integers is exact — scale chain unaffected.
        return MaxPoolKernel(name, module.kernel_size)
    if isinstance(module, Flatten):
        return FlattenKernel(name)
    raise RuntimeCompileError(
        f"layer '{name}': {type(module).__name__} has no compiled-plan lowering"
    )


def default_input_scale(encoder) -> float:
    """Input quantization step for an encoder's output domain.

    The spike encoders (rate / latency) emit binary trains, which
    are already on the integer grid: scale 1.0.  ``DirectEncoder`` broadcasts
    the *analog* intensity in ``[0, 1]`` every timestep, which the integer
    path quantizes to 8-bit fixed point: scale 1/255.
    """
    return 1.0 / 255.0 if getattr(encoder, "name", None) == "direct" else 1.0


def compile_network(model: Module, precision: str = "fp32", input_scale: float = 1.0) -> "CompiledNetwork":
    """Lower a spiking classifier into a :class:`CompiledNetwork`.

    The model's registered submodules must execute in registration order
    (true for :class:`SpikingCNN` and :class:`SpikingMLP`).  Weight kernels keep live references to the model's
    parameter arrays, so in-place updates (``load_state_dict``) are picked
    up without recompiling — at every precision (quantized kernels
    re-quantize from the live arrays when they change).

    Parameters
    ----------
    model:
        The trained classifier to lower.
    precision:
        One of :data:`PRECISIONS`.  ``"fp32"`` is the unchanged default
        path; ``"fp64"`` executes in double precision; ``"int8"`` /
        ``"int16"`` build the quantized integer plan, whose weights are
        clipped at each tensor's largest magnitude
        (:func:`~repro.hardware.quantization.quantize_array_int`).
    input_scale:
        Quantization step of the *input* sequence for integer precisions
        (see :func:`default_input_scale`); inputs are divided by it and
        rounded at the start of :meth:`CompiledNetwork.run`.  Ignored for
        float precisions.

    Raises
    ------
    RuntimeCompileError
        If the model contains a layer type the runtime cannot lower (at the
        requested precision), the precision is not one of
        :data:`PRECISIONS`, or ``input_scale`` lies outside ``(0, 1]``.
    """
    if precision not in PRECISIONS:
        raise RuntimeCompileError(f"unknown precision '{precision}' (expected one of {PRECISIONS})")
    bits = INT_PRECISION_BITS.get(precision)
    config = QuantizationConfig(weight_bits=bits) if bits is not None else None
    if config is None:
        input_scale = 1.0
    elif not 0.0 < float(input_scale) <= 1.0:
        raise RuntimeCompileError(f"input_scale must lie in (0, 1], got {input_scale}")
    compute_dtype = np.float64 if precision == "fp64" else None
    state = _LoweringState(config, input_scale, compute_dtype)
    kernels = [_lower_module(name, module, state) for name, module in model._modules.items()]
    if not any(k.is_spiking_stage for k in kernels):
        raise RuntimeCompileError("model contains no spiking layers to compile")
    layer_specs = model.layer_specs() if hasattr(model, "layer_specs") else None
    return CompiledNetwork(
        kernels,
        layer_specs=layer_specs,
        precision=precision,
        quantization=config,
        input_scale=input_scale,
    )


class CompiledNetwork:
    """An executable plan of fused kernels plus activity bookkeeping.

    Parameters
    ----------
    kernels:
        Pipeline stages in execution order.
    layer_specs:
        Optional architecture description (``model.layer_specs()``) used to
        build hardware workloads from measured activity.
    precision:
        Execution precision the plan was compiled at (:data:`PRECISIONS`).
    quantization:
        The resolved quantization config for integer precisions, else
        ``None``.
    input_scale:
        Input quantization step for integer precisions (see
        :func:`compile_network`).
    """

    def __init__(
        self,
        kernels: List[Kernel],
        layer_specs=None,
        precision: str = "fp32",
        quantization: Optional[QuantizationConfig] = None,
        input_scale: float = 1.0,
    ) -> None:
        self.kernels = list(kernels)
        self.layer_specs = layer_specs
        self.precision = precision
        self.quantization = quantization
        self.input_scale = float(input_scale)
        # Weight stage -> the spiking stage that fires on its output, used
        # to sanity-map measured activity onto layer_specs' firing layers.
        self.weight_stage_names = [k.name for k in self.kernels if k.is_weight_stage]
        self.spiking_stage_names = [k.name for k in self.kernels if k.is_spiking_stage]

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Clear membranes, traces and event totals before a new sequence.

        Each kernel keeps its shape binding (see :mod:`repro.runtime.kernels`).
        """
        for kernel in self.kernels:
            kernel.reset()

    def run(
        self,
        spike_sequence,
        record_activity: bool = True,
        collect_spike_trains: bool = False,
        profiler=None,
    ) -> InferenceResult:
        """Execute the timestep loop on a ``(T, N, ...)`` spike sequence.

        The loop runs under :func:`~repro.autograd.tensor.no_grad` and never
        constructs autograd tensors, so no computation graph can be
        recorded.  Membrane state is reset at the start of every call; a
        batch of the shape the kernels are bound to reuses their arrays, and
        one of another shape rebinds them.  ``collect_spike_trains``
        additionally stores every spiking layer's full spike train on the
        result (for equivalence testing).  The result's arrays are copies,
        so a later run leaves them as they are.

        ``profiler`` is an opt-in observation hook (duck-typed so this
        module stays free of observability imports — see
        ``repro.obs.profile.RuntimeProfiler``): when given, it receives
        ``start_run(num_steps, batch, precision)`` once, then per-timestep
        ``record_kernel(name, seconds)`` for every kernel invocation, on the
        float and quantized paths alike.

        Spike events are counted once, by the kernels: each weight kernel
        counts the events it receives and, when ``record_activity`` is set,
        each neuron kernel the spikes it emits.  The result's
        :class:`RuntimeActivity` is filled from their totals after the last
        step, so the step loop does no bookkeeping.
        """
        if isinstance(spike_sequence, Tensor):
            spike_sequence = spike_sequence.data
        spike_sequence = np.asarray(spike_sequence)
        if spike_sequence.ndim < 3 or spike_sequence.shape[0] == 0:
            raise ValueError(
                f"expected a (T, N, ...) spike sequence with T >= 1, got shape {spike_sequence.shape}"
            )
        num_steps = spike_sequence.shape[0]
        batch = spike_sequence.shape[1]
        # Summed before quantization, so every precision reports the
        # encoder's events rather than their integer-grid magnitudes.
        input_events = float(spike_sequence.sum()) if record_activity else 0.0
        if self.quantization is not None and self.input_scale != 1.0:
            # Quantize analog inputs onto the integer input grid (values up
            # to 1/input_scale, exactly representable in float32).
            spike_sequence = np.rint(spike_sequence / self.input_scale).astype(np.float32)

        self.reset()
        for kernel in self.kernels:
            kernel.prepare()
            if kernel.is_spiking_stage:
                kernel.count_spikes = record_activity
        if profiler is not None:
            profiler.start_run(num_steps, batch, self.precision)

        trains: Optional[Dict[str, List[np.ndarray]]] = (
            {name: [] for name in self.spiking_stage_names} if collect_spike_trains else None
        )

        counts: Optional[np.ndarray] = None
        with no_grad():
            for t in range(num_steps):
                x = spike_sequence[t]
                for kernel in self.kernels:
                    if profiler is None:
                        x = kernel.run(x)
                    else:
                        kernel_start = time.perf_counter()
                        x = kernel.run(x)
                        profiler.record_kernel(kernel.name, time.perf_counter() - kernel_start)
                    if trains is not None and kernel.is_spiking_stage:
                        trains[kernel.name].append(x.copy())
                if counts is None:
                    counts = x.copy()
                else:
                    counts += x
        if self.quantization is not None and self.kernels and self.kernels[-1].is_weight_stage:
            # Output boundary dequant: a plan ending on a weight stage has
            # accumulated integer-domain counts; one multiply returns them
            # to the physical domain.  (Plans ending on a spiking stage emit
            # binary spike counts, whose scale is already 1.0.)
            counts = counts * self.kernels[-1].output_scale
        spike_trains = (
            {name: np.stack(steps) for name, steps in trains.items()} if trains is not None else None
        )
        activity = self._activity(num_steps, batch, input_events) if record_activity else None
        return InferenceResult(counts=counts, activity=activity, spike_trains=spike_trains)

    def _activity(self, num_steps: int, batch: int, input_events: float) -> RuntimeActivity:
        """The activity of the run just finished, from its kernels' event totals."""
        activity = RuntimeActivity(num_steps=num_steps, samples=batch, input_events=input_events)
        for kernel in self.kernels:
            if kernel.is_weight_stage:
                activity.layer_input_events[kernel.name] = float(kernel.input_events)
            elif kernel.is_spiking_stage:
                activity.layer_output_events[kernel.name] = float(kernel.output_events)
                activity.layer_neuron_counts[kernel.name] = kernel.neurons
        return activity


def run_inference(model: Module, spike_sequence, record_activity: bool = True) -> InferenceResult:
    """Compile ``model`` and run one inference through the compiled plan.

    Convenience wrapper over :func:`compile_network` +
    :meth:`CompiledNetwork.run`; compile once and reuse the
    :class:`CompiledNetwork` when running many batches.
    """
    return compile_network(model).run(spike_sequence, record_activity=record_activity)


def evaluate_with_runtime(
    model: Module,
    encoder,
    loader,
    max_batches: Optional[int] = None,
    profile_batches: Optional[int] = None,
    compiled: Optional[CompiledNetwork] = None,
) -> Tuple[float, RuntimeActivity]:
    """Evaluate accuracy and measure spike activity in a single sweep.

    One pass over ``loader`` computes classification accuracy while the
    runtime's event counters provide the sparsity profile for free; this is
    the repository's only spike-accounting path.

    Raises :class:`RuntimeCompileError` (a ``ValueError``) when ``model``
    cannot be compiled, and ``ValueError`` when ``loader`` yields no
    samples.

    Parameters
    ----------
    model, encoder, loader:
        Trained model, its input encoder, and the data to evaluate on.
    max_batches:
        Optional cap on batches used for *accuracy* (default: all).
    profile_batches:
        Optional cap on batches contributing to the *activity report*
        (default: same batches as accuracy), a cost control for long
        evaluations.
    compiled:
        Reuse an existing compiled plan instead of compiling ``model``.
    """
    plan = compiled if compiled is not None else compile_network(model)
    if profile_batches is not None:
        # At least one batch always contributes, so the activity report is
        # never empty.
        profile_batches = max(int(profile_batches), 1)
    activity = RuntimeActivity(num_steps=encoder.num_steps)
    total, correct, batches = 0, 0, 0
    for images, labels in loader:
        spikes = encoder(images)
        record = profile_batches is None or batches < profile_batches
        result = plan.run(spikes, record_activity=record)
        preds = result.predictions()
        correct += int((preds == np.asarray(labels)).sum())
        total += len(labels)
        if record and result.activity is not None:
            activity.merge(result.activity)
        batches += 1
        if max_batches is not None and batches >= max_batches:
            break
    if total == 0:
        raise ValueError("loader yielded no samples to evaluate")
    return correct / total, activity


@dataclass
class AccuracyDelta:
    """Paired accuracy comparison between a baseline and a quantized plan.

    Attributes
    ----------
    baseline_accuracy, quantized_accuracy:
        Top-1 accuracy of each plan over the same encoded spike trains.
    precision:
        Precision of the quantized plan (``"int8"`` / ``"int16"``).
    baseline_precision:
        Precision of the reference plan (always ``"fp64"``).
    samples:
        Number of evaluated samples.
    agreement:
        Fraction of samples on which the two plans predicted the same class
        (regardless of correctness).
    max_accuracy_drop:
        The budget this delta was checked against.
    """

    baseline_accuracy: float
    quantized_accuracy: float
    precision: str
    baseline_precision: str
    samples: int
    agreement: float
    max_accuracy_drop: float

    @property
    def drop(self) -> float:
        """Top-1 accuracy lost by quantizing (negative = quantized won)."""
        return self.baseline_accuracy - self.quantized_accuracy

    @property
    def passed(self) -> bool:
        """Whether the drop stayed within the ``max_accuracy_drop`` budget."""
        return self.drop <= self.max_accuracy_drop + 1e-12


def check_accuracy_delta(
    model: Module,
    encoder,
    loader,
    precision: str,
    max_accuracy_drop: float = 0.02,
    raise_on_fail: bool = True,
) -> AccuracyDelta:
    """Gate a quantized plan's accuracy against the fp64 reference path.

    Compiles ``model`` at ``"fp64"`` and at the quantized ``precision``
    (with the encoder's :func:`default_input_scale`), encodes each batch
    from ``loader`` **once**, and runs both plans on the identical spike
    trains (encoders may be stochastic — pairing on the same trains is
    what isolates the quantization effect).  Returns the
    :class:`AccuracyDelta`; raises :class:`AccuracyGateError` when the
    top-1 drop exceeds ``max_accuracy_drop`` and ``raise_on_fail`` is set.
    ``benchmarks/bench_quantized_runtime.py`` gates both integer
    precisions with it.
    """
    if precision not in INT_PRECISION_BITS:
        raise RuntimeCompileError(
            f"check_accuracy_delta gates integer precisions, got '{precision}'"
        )
    baseline_plan = compile_network(model, precision="fp64")
    quantized_plan = compile_network(model, precision=precision, input_scale=default_input_scale(encoder))
    total = 0
    base_correct = 0
    quant_correct = 0
    agree = 0
    for images, labels in loader:
        spikes = encoder(images)
        base_preds = baseline_plan.run(spikes, record_activity=False).predictions()
        quant_preds = quantized_plan.run(spikes, record_activity=False).predictions()
        labels = np.asarray(labels)
        base_correct += int((base_preds == labels).sum())
        quant_correct += int((quant_preds == labels).sum())
        agree += int((base_preds == quant_preds).sum())
        total += len(labels)
    if total == 0:
        raise ValueError("loader yielded no samples to gate on")
    delta = AccuracyDelta(
        baseline_accuracy=base_correct / total,
        quantized_accuracy=quant_correct / total,
        precision=precision,
        baseline_precision="fp64",
        samples=total,
        agreement=agree / total,
        max_accuracy_drop=float(max_accuracy_drop),
    )
    if raise_on_fail and not delta.passed:
        raise AccuracyGateError(delta)
    return delta
