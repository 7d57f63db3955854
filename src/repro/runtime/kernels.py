"""NumPy kernels of a compiled inference plan.

One kernel per layer kind, each a plain-array analogue of a
:mod:`repro.nn` / :mod:`repro.neurons` layer specialised for inference:
:class:`LinearKernel` and :class:`ConvKernel` (sharing
:class:`WeightKernel`), :class:`NeuronKernel`, :class:`MaxPoolKernel` and
:class:`FlattenKernel`.  They record no autograd graph, cache buffers (tall
images, im2col matrices) across timesteps, and skip the weights on silent
frames.  The execution precision and the neuron substrate are constructor
arguments, not classes.

Each kernel also counts the spike events of its layer, once, with
:func:`repro.runtime.activity.count_events`: a weight kernel the events in
every frame it receives (the count is also its silent-frame test), and a
neuron kernel the spikes it emits, in a run that records activity.  The
totals cover one run; :meth:`Kernel.reset` clears them, and
:meth:`repro.runtime.engine.CompiledNetwork.run` copies them into the
run's :class:`~repro.runtime.activity.RuntimeActivity` after its last step.

Numerical contract: every kernel produces **the same spike-relevant values**
as the dense training path.  Convolution, max pooling and the neuron step
run the training forwards themselves
(:func:`repro.autograd.ops_conv.conv2d_forward`,
:func:`~repro.autograd.ops_conv.maxpool2d_forward`,
:func:`repro.autograd.ops_spiking.lif_forward`), and the dense linear path
calls the exact same NumPy routine on the exact same arrays as the autograd
op, so all are bitwise identical by construction; the equivalence test
suite (and the benchmark's correctness gate) checks the resulting spike
trains.

Weight kernels reference the live parameter arrays of the model they were
compiled from (no copy), so a compiled network tracks in-place weight
updates such as ``load_state_dict``.  Kernels that execute in a different
representation — the ``compute_dtype`` float64 reference path and the
quantized integer path — refresh their derived arrays from the live source
parameters in :meth:`Kernel.prepare`, which the engine calls at the start of
every run, so the same contract holds for them.

Integer plans (a weight kernel given a ``quantization``, a neuron kernel
given ``integer=True``) execute the integer arithmetic of the modeled
accelerator while *carrying* the integers in float arrays so the
contraction still runs through BLAS (NumPy integer matmul bypasses BLAS and
is far slower).  Every carried value is an exact integer: float32
represents all integers up to 2**24 and float64 up to 2**53, and each
kernel bounds its worst-case magnitude at prepare time (sum of |addends|,
valid for any summation order BLAS may choose; the fixed point of each
neuron state's decay) to pick the narrowest exact carrier.  The results are
therefore bit-exact integer arithmetic, not an approximation of it.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.autograd.ops_conv import ScratchPool, TallLayout, conv2d_forward, maxpool2d_forward
from repro.autograd.ops_spiking import lif_forward
from repro.hardware.quantization import QuantizationConfig, quantize_array_int
from repro.neurons.base import RESET_MECHANISMS
from repro.neurons.factory import NEURON_TYPES
from repro.runtime.activity import count_events

#: Largest integer magnitude exactly representable in a float32 accumulator.
_FLOAT32_EXACT = float(2 ** 24)


class Kernel:
    """Base class: one fused pipeline stage operating on raw ``ndarray``s."""

    #: Set on weight kernels (conv / linear), which count their input events.
    is_weight_stage = False
    #: Set on spiking kernels, which count their output events.
    is_spiking_stage = False

    def __init__(self, name: str) -> None:
        self.name = name

    def reset(self) -> None:
        """Drop per-sequence state (membranes, event totals) and shape-bound caches."""

    def prepare(self) -> None:
        """Called once at the start of every engine run (before any timestep).

        Kernels that snapshot weights into a different layout refresh the
        snapshot here so in-place parameter updates (e.g. ``load_state_dict``
        between runs) are always reflected.
        """

    def run(self, frame: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class WeightKernel(Kernel):
    """Shared precision handling of the weight kernels.

    The constructor picks what :meth:`prepare` contracts:

    * by default, the live parameter arrays themselves (the fp32 plan);
    * with ``compute_dtype`` (e.g. ``np.float64``), copies cast to it, with
      every incoming frame cast to match;
    * with ``quantization``, the weight's int8/int16 lattice from
      :func:`repro.hardware.quantization.quantize_array_int`.  Inputs arrive
      as integers scaled by ``input_scale`` (1.0 for binary spikes) with
      magnitude at most ``input_int_max``; outputs are integers worth
      ``output_scale`` (weight scale x input scale) each.  ``weight_int``
      holds the authoritative lattice, ``acc_bound`` the worst-case
      accumulator magnitude, and ``weight`` / ``bias`` (the bias rounded
      onto the output grid) the float carrier copies, in the narrowest
      dtype that keeps every accumulation exact; ``compute_dtype`` becomes
      that carrier.
    """

    is_weight_stage = True

    def __init__(
        self,
        name: str,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        compute_dtype=None,
        quantization: Optional[QuantizationConfig] = None,
        input_scale: float = 1.0,
        input_int_max: float = 1.0,
    ) -> None:
        super().__init__(name)
        self.source_weight = weight  # live reference
        self.source_bias = bias  # live reference or None
        self.weight = weight  # array actually contracted (refreshed in prepare)
        self.bias = bias
        self.compute_dtype = None if compute_dtype is None else np.dtype(compute_dtype)
        self.quantization = quantization
        self.input_scale = float(input_scale)
        self.input_int_max = float(input_int_max)
        self.weight_int: Optional[np.ndarray] = None
        self.output_scale = 1.0
        self.acc_bound = 0.0
        self._quantized_from: Optional[tuple] = None
        #: Events in the frames received since :meth:`reset`.
        self.input_events = 0

    def reset(self) -> None:
        self.input_events = 0

    def prepare(self) -> None:
        if self.quantization is not None:
            self._requantize()
        elif self.compute_dtype is None:
            self.weight = self.source_weight
            self.bias = self.source_bias
        else:
            self.weight = self.source_weight.astype(self.compute_dtype)
            self.bias = None if self.source_bias is None else self.source_bias.astype(self.compute_dtype)

    def _requantize(self) -> None:
        """Refresh the integer arrays when the live source parameters changed.

        Quantization involves a percentile scan, which would otherwise
        dominate small serving batches, while the byte-equality check
        against the arrays last quantized is one cheap linear pass.
        ``load_state_dict`` between runs changes the source arrays and so
        triggers re-quantization on the next prepare.
        """
        src, src_bias = self.source_weight, self.source_bias
        if self._quantized_from is not None:
            old, old_bias = self._quantized_from
            if np.array_equal(src, old) and (src_bias is None or np.array_equal(src_bias, old_bias)):
                return
        quantized, scale = quantize_array_int(src, self.quantization)
        self.weight_int = quantized
        self.output_scale = float(scale) * self.input_scale
        abs_rows = np.abs(quantized).astype(np.float64).sum(axis=tuple(range(1, quantized.ndim)))
        acc_bound = float(abs_rows.max()) * self.input_int_max if abs_rows.size else 0.0
        bias_int = None
        if src_bias is not None:
            bias_int = np.rint(src_bias.astype(np.float64) / self.output_scale)
            acc_bound += float(np.abs(bias_int).max()) if bias_int.size else 0.0
        self.acc_bound = acc_bound
        carrier = np.dtype(np.float32) if acc_bound < _FLOAT32_EXACT else np.dtype(np.float64)
        self.compute_dtype = carrier
        self.weight = quantized.astype(carrier)
        self.bias = None if bias_int is None else bias_int.astype(carrier)
        self._quantized_from = (src.copy(), None if src_bias is None else src_bias.copy())

    def _receive(self, frame: np.ndarray) -> Tuple[np.ndarray, int]:
        """Cast ``frame`` to the compute dtype and count its events.

        The count adds to :attr:`input_events`, and a frame without events
        is silent: its output is the bias alone.
        """
        if self.compute_dtype is not None and frame.dtype != self.compute_dtype:
            frame = frame.astype(self.compute_dtype)
        events = count_events(frame)
        self.input_events += events
        return frame, events


class LinearKernel(WeightKernel):
    """Affine transform ``y = x W^T + b`` over the flattened frame.

    A silent frame (no input spikes at all) yields the bias row without
    touching the weights; any other frame takes one BLAS matmul on the same
    arrays the autograd op uses, so the fp32 kernel equals the autograd op
    bit for bit.
    """

    def run(self, frame: np.ndarray) -> np.ndarray:
        frame, events = self._receive(frame)
        if frame.ndim != 2:
            frame = frame.reshape(frame.shape[0], -1)
        if not events:
            out = np.zeros((frame.shape[0], self.weight.shape[0]), dtype=frame.dtype)
            if self.bias is not None:
                out += self.bias
            return out
        out = frame @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class ConvKernel(WeightKernel):
    """2-D cross-correlation through the autograd op's own forward.

    Runs :func:`repro.autograd.ops_conv.conv2d_forward` -- the same im2col
    lowering and the same GEMM as training -- so its output is the dense
    output bit for bit.  Its temporaries come from a scratch pool owned by
    the kernel, reused across timesteps and dropped on :meth:`reset`, never
    from the autograd op's process-wide pool, because serving runs plans on
    worker threads.  A silent frame's output is exactly the broadcast bias
    map and skips the product.
    """

    def __init__(
        self,
        name: str,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int = 1,
        padding: int = 0,
        **precision,
    ) -> None:
        super().__init__(name, weight, bias, **precision)
        self.stride = int(stride)
        self.padding = int(padding)
        self._scratch = ScratchPool()

    def reset(self) -> None:
        super().reset()
        self._scratch.clear()

    def run(self, frame: np.ndarray) -> np.ndarray:
        frame, events = self._receive(frame)
        if events:
            return conv2d_forward(frame, self.weight, self.bias, self.stride, self.padding, self._scratch)
        layout = TallLayout.of(frame.shape, self.weight.shape, self.stride, self.padding)
        out = np.zeros((frame.shape[0], self.weight.shape[0], layout.oh, layout.ow), dtype=frame.dtype)
        if self.bias is not None:
            out += self.bias[None, :, None, None]
        return out


def _fixed_point_bound(decay: float, drive: float) -> float:
    """Bound on ``|x|`` under ``x <- decay * x + d`` with ``|d| <= drive``: the fixed point."""
    return drive / (1.0 - decay) if decay < 1.0 else float("inf")


class NeuronKernel(Kernel):
    """One spiking layer's timestep: :func:`repro.autograd.ops_spiking.lif_forward`.

    ``substrate`` and ``params`` are what
    :func:`repro.neurons.factory.neuron_descriptor` returns: ``lif`` / ``if``
    (``beta = 1``) charge, fire and reset the membrane, and ``adaptive``
    also keeps the trace that raises its threshold.  The kernel calls the
    step training calls, updating its states in place; they persist across
    timesteps and are dropped on :meth:`reset`.  Float plans run it in the
    frame's dtype, so the spike trains match the dense forward bit for bit
    by construction.

    Integer plans (``integer=True``) run on the grid of the upstream weight
    kernel's ``output_scale`` (``input_scale`` without one): ``theta`` and
    ``b`` round onto it (``theta`` to at least one step) and the step
    follows every decay with ``np.rint``, so every state is an exact
    integer.  The states share one carrier: float32 while each decay's fixed
    point (:func:`_fixed_point_bound`, driven by the upstream ``acc_bound``)
    stays below 2**24, else float64.  The carrier decides how
    ``rint(beta * u)`` rounds, and the reset's product runs in it, where it
    equals the masked integer subtraction exactly; on exact integers the
    adaptive centring equals ``u > theta + b * a``.  Spikes leave as
    float32, which resets the activation scale to 1.0, so a plan dequantizes
    only at its output.  The grid is derived in :meth:`prepare`, which the
    engine calls in execution order, after the upstream kernel's own.

    With :attr:`count_spikes` set, :meth:`run` adds the spikes it emits to
    :attr:`output_events`; the engine sets it for a run that records
    activity, so a run that does not pays nothing for counting.
    """

    is_spiking_stage = True

    def __init__(
        self,
        name: str,
        substrate: str,
        params: Dict[str, float],
        beta: float,
        threshold: float,
        reset_mechanism: str = "subtract",
        integer: bool = False,
        upstream: Optional[WeightKernel] = None,
        input_scale: float = 1.0,
    ) -> None:
        super().__init__(name)
        if substrate not in NEURON_TYPES:
            raise ValueError(f"unknown neuron substrate '{substrate}' (expected one of {NEURON_TYPES})")
        if reset_mechanism not in RESET_MECHANISMS:
            raise ValueError(f"unknown reset mechanism '{reset_mechanism}'")
        self.substrate = substrate
        self.beta = float(beta)
        self.threshold = float(threshold)
        self.reset_mechanism = reset_mechanism
        self.adaptation_step = float(params["adaptation_step"]) if substrate == "adaptive" else 0.0
        self.adaptation_decay = float(params["adaptation_decay"]) if substrate == "adaptive" else 0.0
        self.integer = bool(integer)
        self.upstream = upstream
        self.input_scale = float(input_scale)
        # Threshold and adaptation step on the execution grid (integers in
        # integer plans, set in prepare), and the integer plans' carrier.
        self.theta = self.threshold
        self.step = self.adaptation_step
        self.carrier = np.dtype(np.float64)
        self.mem: Optional[np.ndarray] = None
        self.trace: Optional[np.ndarray] = None
        #: Whether :meth:`run` counts the spikes it emits (set per run by the engine).
        self.count_spikes = False
        #: Spikes emitted since :meth:`reset` while :attr:`count_spikes` was set.
        self.output_events = 0

    def reset(self) -> None:
        self.mem = self.trace = None
        self.output_events = 0

    @property
    def neurons(self) -> int:
        """Neurons per sample, from the last frame run (0 before any)."""
        return 0 if self.mem is None else math.prod(self.mem.shape[1:])

    def prepare(self) -> None:
        if not self.integer:
            return
        upstream = self.upstream
        scale = upstream.output_scale if upstream is not None else self.input_scale
        charge = upstream.acc_bound if upstream is not None else _FLOAT32_EXACT
        self.theta = max(1.0, float(np.rint(self.threshold / scale)))
        if self.substrate == "adaptive":
            self.step = float(np.rint(self.adaptation_step / scale))
            # The trace's rint adds up to 0.5 per step to its unit drive.
            theta_bound = self.theta + self.step * _fixed_point_bound(self.adaptation_decay, 1.0 + 0.5)
            bound = _fixed_point_bound(self.beta, charge + theta_bound)
        else:
            bound = _fixed_point_bound(self.beta, charge + self.theta)
        self.carrier = np.dtype(np.float32) if bound < _FLOAT32_EXACT else np.dtype(np.float64)

    def run(self, frame: np.ndarray) -> np.ndarray:
        dtype = self.carrier if self.integer else frame.dtype
        if self.mem is None or self.mem.shape != frame.shape or self.mem.dtype != dtype:
            self.mem = np.zeros(frame.shape, dtype=dtype)
            self.trace = np.zeros(frame.shape, dtype=dtype) if self.substrate == "adaptive" else None
        spikes = lif_forward(
            self.mem,
            frame,
            self.beta,
            self.theta,
            self.reset_mechanism,
            self.trace,
            self.step,
            self.adaptation_decay,
            self.integer,
            out=(self.mem, self.trace),
        )[0]
        if self.count_spikes:
            self.output_events += count_events(spikes)
        return spikes.astype(np.float32, copy=False) if self.integer else spikes


class MaxPoolKernel(Kernel):
    """Non-overlapping max pooling (kernel == stride), no backward mask.

    Runs :func:`repro.autograd.ops_conv.maxpool2d_forward`, the running
    maximum over the k*k strided phase views that the dense forward also
    takes, so dense and compiled pooling agree bit for bit by construction.
    """

    def __init__(self, name: str, kernel_size: int) -> None:
        super().__init__(name)
        self.kernel_size = int(kernel_size)

    def run(self, frame: np.ndarray) -> np.ndarray:
        return maxpool2d_forward(frame, self.kernel_size)


class FlattenKernel(Kernel):
    """Flatten everything after the batch dimension."""

    def run(self, frame: np.ndarray) -> np.ndarray:
        return frame.reshape(frame.shape[0], -1)
