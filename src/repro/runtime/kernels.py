"""Fused NumPy kernels for the event-driven inference runtime.

Each kernel is a plain-array analogue of one :mod:`repro.nn` /
:mod:`repro.neurons` layer, specialised for inference:

* no :class:`~repro.autograd.tensor.Tensor` wrapping and no graph recording,
* buffers (padded inputs, im2col matrices) cached across timesteps,
* a fast path that skips the weights on silent frames.

Numerical contract: every kernel produces **the same spike-relevant values**
as the dense training path.  Convolution runs the autograd op's own forward
(:func:`repro.autograd.ops_conv.conv2d_forward`), and the dense linear path
calls the exact same NumPy routine on the exact same arrays as the autograd
op, so both are bitwise identical by construction; the equivalence test
suite (and the benchmark's correctness gate) checks the resulting spike
trains.

Weight kernels reference the live parameter arrays of the model they were
compiled from (no copy), so a compiled network tracks in-place weight
updates such as ``load_state_dict``.  Kernels that execute in a different
representation — the ``compute_dtype`` float64 reference path and the
quantized integer kernels — refresh their derived arrays from the live
source parameters in :meth:`Kernel.prepare`, which the engine calls at the
start of every run, so the same contract holds for them.

Quantized kernels (``Quantized*Kernel``) execute the integer arithmetic of
the modeled accelerator while *carrying* the integers in float arrays so the
contraction still runs through BLAS (NumPy integer matmul bypasses BLAS and
is far slower).  Every carried value is an exact integer: float32 represents
all integers up to 2**24 and float64 up to 2**53, and each kernel bounds its
worst-case accumulator magnitude at prepare time (sum of |addends|, valid
for any summation order BLAS may choose) to pick the narrowest exact
carrier.  The results are therefore bit-exact integer arithmetic, not an
approximation of it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd.ops_conv import ScratchPool, conv2d_forward
from repro.hardware.quantization import QuantizationConfig, quantize_array_int

#: Largest integer magnitude exactly representable in a float32 accumulator.
_FLOAT32_EXACT = float(2 ** 24)


class Kernel:
    """Base class: one fused pipeline stage operating on raw ``ndarray``s."""

    #: Set on weight kernels (conv / linear); the engine records input events
    #: for these stages.
    is_weight_stage = False
    #: Set on spiking kernels; the engine records output events for these.
    is_spiking_stage = False

    def __init__(self, name: str) -> None:
        self.name = name

    def reset(self) -> None:
        """Drop per-sequence state (membranes) and shape-bound caches."""

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


class LinearKernel(Kernel):
    """Affine transform ``y = x W^T + b``.

    A silent frame (no input spikes at all) yields the bias row without
    touching the weights; any other frame takes one BLAS matmul on the same
    arrays the autograd op uses, so the kernel equals the autograd op bit
    for bit.

    ``compute_dtype`` selects a reference execution precision: when set
    (e.g. ``np.float64``), :meth:`prepare` refreshes a cast copy of the live
    weights and :meth:`run` casts incoming frames, so the whole affine step
    executes in that dtype.  The default (``None``) is the unchanged live
    -reference float32 path.
    """

    is_weight_stage = True

    def __init__(
        self,
        name: str,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        compute_dtype=None,
    ) -> None:
        super().__init__(name)
        self.source_weight = weight  # (out_features, in_features), live reference
        self.source_bias = bias  # (out_features,) or None
        self.weight = weight  # array actually contracted (refreshed in prepare)
        self.bias = bias
        self.compute_dtype = None if compute_dtype is None else np.dtype(compute_dtype)

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]

    def prepare(self) -> None:
        if self.compute_dtype is None:
            self.weight = self.source_weight
            self.bias = self.source_bias
        else:
            self.weight = self.source_weight.astype(self.compute_dtype)
            self.bias = None if self.source_bias is None else self.source_bias.astype(self.compute_dtype)

    def run(self, frame: np.ndarray) -> np.ndarray:
        if self.compute_dtype is not None and frame.dtype != self.compute_dtype:
            frame = frame.astype(self.compute_dtype)
        if frame.ndim != 2:
            frame = frame.reshape(frame.shape[0], -1)
        if not frame.any():
            out = np.zeros((frame.shape[0], self.out_features), dtype=frame.dtype)
            if self.bias is not None:
                out += self.bias
            return out
        out = frame @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class ConvKernel(Kernel):
    """2-D cross-correlation through the autograd op's own forward.

    Runs :func:`repro.autograd.ops_conv.conv2d_forward` -- the same im2col
    lowering and the same GEMM as training -- so its output is the dense
    output bit for bit.  Its temporaries come from a scratch pool owned by
    the kernel, reused across timesteps and dropped on :meth:`reset`, never
    from the autograd op's process-wide pool, because serving runs plans on
    worker threads.  A silent frame's output is exactly the broadcast bias
    map and skips the product.
    """

    is_weight_stage = True

    def __init__(
        self,
        name: str,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int = 1,
        padding: int = 0,
        compute_dtype=None,
    ) -> None:
        super().__init__(name)
        self.source_weight = weight  # (C_out, C_in, KH, KW), live reference
        self.source_bias = bias  # (C_out,) or None
        self.weight = weight  # array actually contracted (refreshed in prepare)
        self.bias = bias
        self.compute_dtype = None if compute_dtype is None else np.dtype(compute_dtype)
        self.stride = int(stride)
        self.padding = int(padding)
        self._scratch = ScratchPool()

    def prepare(self) -> None:
        if self.compute_dtype is None:
            self.weight = self.source_weight
            self.bias = self.source_bias
        else:
            self.weight = self.source_weight.astype(self.compute_dtype)
            self.bias = None if self.source_bias is None else self.source_bias.astype(self.compute_dtype)

    def reset(self) -> None:
        self._scratch.clear()

    def run(self, frame: np.ndarray) -> np.ndarray:
        if self.compute_dtype is not None and frame.dtype != self.compute_dtype:
            frame = frame.astype(self.compute_dtype)
        if frame.ndim != 4:
            raise ValueError(f"ConvKernel expects NCHW input, got shape {frame.shape}")
        if frame.any():
            return conv2d_forward(frame, self.weight, self.bias, self.stride, self.padding, self._scratch)
        n, _, h, w = frame.shape
        c_out, _, kh, kw = self.weight.shape
        p, s = self.padding, self.stride
        out = np.zeros((n, c_out, (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1), dtype=frame.dtype)
        if self.bias is not None:
            out += self.bias[None, :, None, None]
        return out


class FusedLIFKernel(Kernel):
    """Fused LIF timestep: charge, threshold, and reset in one pass.

    Implements the same update as :class:`repro.neurons.lif.LIF` —
    ``u[t+1] = beta * u[t] + I_syn[t] - s[t] * theta`` with Heaviside spike
    generation — but in-place on a persistent membrane buffer with no graph
    recording and no intermediate tensor allocation.

    ``u > theta`` is used directly instead of ``(u - theta) > 0``: the two
    predicates agree for every float (the rounded difference of floats on
    opposite sides of the threshold cannot cross zero), so the spike trains
    match the dense path exactly.
    """

    is_spiking_stage = True

    def __init__(self, name: str, beta: float, threshold: float, reset_mechanism: str = "subtract") -> None:
        super().__init__(name)
        if reset_mechanism not in ("subtract", "zero", "none"):
            raise ValueError(f"unknown reset mechanism '{reset_mechanism}'")
        self.beta = float(beta)
        self.threshold = float(threshold)
        self.reset_mechanism = reset_mechanism
        self.mem: Optional[np.ndarray] = None

    def reset(self) -> None:
        self.mem = None

    def run(self, frame: np.ndarray) -> np.ndarray:
        if self.mem is None or self.mem.shape != frame.shape:
            self.mem = np.zeros_like(frame)
        mem = self.mem
        mem *= self.beta
        mem += frame
        spikes = (mem > self.threshold).astype(frame.dtype)
        if self.reset_mechanism == "subtract":
            mem -= spikes * self.threshold
        elif self.reset_mechanism == "zero":
            mem *= 1.0 - spikes
        return spikes


class AdaptiveLIFKernel(FusedLIFKernel):
    """Fused adaptive-threshold LIF step (ALIF) — one pass, two state buffers.

    Mirrors :class:`repro.neurons.adaptive.AdaptiveLIF` exactly: the
    adaptation trace ``a`` decays by ``adaptation_decay`` and increments per
    emitted spike, the effective threshold is ``theta + adaptation_step * a``,
    and the reset subtracts the *effective* threshold.  Bit-identity with the
    dense path requires replicating its exact float expression order — the
    dense step centres the membrane by ``theta_eff - theta`` (a computed
    difference, not ``adaptation_step * a`` directly) before the scalar
    threshold comparison, so this kernel evaluates the same expressions on
    the same arrays rather than an algebraic simplification of them.

    State is separated from weights like :class:`FusedLIFKernel`: the
    membrane and adaptation buffers persist across timesteps, are dropped on
    :meth:`reset`, and reallocate on a shape change (new batch size).
    """

    def __init__(
        self,
        name: str,
        beta: float,
        threshold: float,
        reset_mechanism: str = "subtract",
        adaptation_step: float = 0.2,
        adaptation_decay: float = 0.9,
    ) -> None:
        super().__init__(name, beta, threshold, reset_mechanism)
        self.adaptation_step = float(adaptation_step)
        self.adaptation_decay = float(adaptation_decay)
        self.adaptation: Optional[np.ndarray] = None

    def reset(self) -> None:
        self.mem = None
        self.adaptation = None

    def run(self, frame: np.ndarray) -> np.ndarray:
        if self.mem is None or self.mem.shape != frame.shape:
            self.mem = np.zeros_like(frame)
            self.adaptation = np.zeros_like(frame)
        mem = self.mem
        mem *= self.beta
        mem += frame
        # Same expression structure as the dense AdaptiveLIF.step: the
        # comparison is against the scalar theta after centring by the
        # computed (theta_eff - theta) difference.
        theta_eff = self.adaptation * self.adaptation_step + self.threshold
        centred = mem - (theta_eff - self.threshold)
        spikes = (centred > self.threshold).astype(frame.dtype)
        if self.reset_mechanism == "subtract":
            mem -= spikes * theta_eff
        elif self.reset_mechanism == "zero":
            mem *= 1.0 - spikes
        self.adaptation *= self.adaptation_decay
        self.adaptation += spikes
        return spikes


class SynapticLIFKernel(FusedLIFKernel):
    """Fused second-order LIF step: synaptic-current state plus membrane.

    Mirrors :class:`repro.neurons.synaptic.SynapticLIF` —
    ``i[t+1] = alpha * i[t] + I_in[t]``, ``u[t+1] = beta * u[t] + i[t+1]`` —
    with the standard threshold/reset of the plain LIF.  Both state arrays
    persist across timesteps and update in place; the in-place multiply/add
    sequence is bitwise identical to the dense path's out-of-place chain
    (identical operands, identical operation order).
    """

    def __init__(
        self,
        name: str,
        alpha: float,
        beta: float,
        threshold: float,
        reset_mechanism: str = "subtract",
    ) -> None:
        super().__init__(name, beta, threshold, reset_mechanism)
        self.alpha = float(alpha)
        self.syn: Optional[np.ndarray] = None

    def reset(self) -> None:
        self.mem = None
        self.syn = None

    def run(self, frame: np.ndarray) -> np.ndarray:
        if self.mem is None or self.mem.shape != frame.shape:
            self.mem = np.zeros_like(frame)
            self.syn = np.zeros_like(frame)
        syn = self.syn
        syn *= self.alpha
        syn += frame
        mem = self.mem
        mem *= self.beta
        mem += syn
        spikes = (mem > self.threshold).astype(frame.dtype)
        if self.reset_mechanism == "subtract":
            mem -= spikes * self.threshold
        elif self.reset_mechanism == "zero":
            mem *= 1.0 - spikes
        return spikes


class MaxPoolKernel(Kernel):
    """Non-overlapping max pooling (kernel == stride), no backward mask.

    Computed as an elementwise maximum over the k*k strided phase views
    rather than a multi-axis window reduction — same values (max is exact
    and order-free), several times faster on small maps.
    """

    def __init__(self, name: str, kernel_size: int) -> None:
        super().__init__(name)
        self.kernel_size = int(kernel_size)

    def run(self, frame: np.ndarray) -> np.ndarray:
        n, c, h, w = frame.shape
        k = self.kernel_size
        oh, ow = h // k, w // k
        out = np.ascontiguousarray(frame[:, :, : oh * k : k, : ow * k : k])
        for i in range(k):
            for j in range(k):
                if i == 0 and j == 0:
                    continue
                np.maximum(out, frame[:, :, i : oh * k : k, j : ow * k : k], out=out)
        return out


class AvgPoolKernel(Kernel):
    """Non-overlapping average pooling (kernel == stride)."""

    def __init__(self, name: str, kernel_size: int) -> None:
        super().__init__(name)
        self.kernel_size = int(kernel_size)

    def run(self, frame: np.ndarray) -> np.ndarray:
        n, c, h, w = frame.shape
        k = self.kernel_size
        oh, ow = h // k, w // k
        windows = frame[:, :, : oh * k, : ow * k].reshape(n, c, oh, k, ow, k)
        return windows.mean(axis=(3, 5))


class FlattenKernel(Kernel):
    """Flatten everything after the batch dimension."""

    def run(self, frame: np.ndarray) -> np.ndarray:
        return frame.reshape(frame.shape[0], -1)


def _requantize_weight_kernel(kernel, reduce_axes: Tuple[int, ...]) -> None:
    """Refresh a quantized weight kernel's integer arrays from its live source.

    Re-quantizes only when the source parameters actually changed since the
    last call (byte-equality against a snapshot): quantization involves a
    percentile scan, which would otherwise dominate small serving batches,
    while the equality check is one cheap linear pass.  This preserves the
    live-tracking contract — ``load_state_dict`` between runs changes the
    source arrays and triggers re-quantization on the next prepare.

    Derived state set on ``kernel``: ``weight_int`` (authoritative int8/int16
    lattice), ``weight_scale``, ``output_scale`` (= weight scale x input
    scale — the physical value of one output unit), ``bias_int`` (bias
    rounded onto the output grid), ``acc_bound`` (worst-case accumulator
    magnitude, any summation order), and the float *carrier* arrays
    ``weight`` / ``bias`` in the narrowest dtype that keeps every
    accumulation exact (float32 below 2**24, float64 otherwise).
    """
    src = kernel.source_weight
    src_bias = kernel.source_bias
    if (
        kernel._quant_weight_snapshot is not None
        and np.array_equal(src, kernel._quant_weight_snapshot)
        and (
            (src_bias is None and kernel._quant_bias_snapshot is None)
            or (
                src_bias is not None
                and kernel._quant_bias_snapshot is not None
                and np.array_equal(src_bias, kernel._quant_bias_snapshot)
            )
        )
    ):
        return
    quantized, scale = quantize_array_int(src, kernel.quantization)
    kernel.weight_int = quantized
    kernel.weight_scale = float(scale)
    kernel.output_scale = float(scale) * kernel.input_scale
    abs_rows = np.abs(quantized).astype(np.float64).sum(axis=reduce_axes)
    acc_bound = float(abs_rows.max()) * kernel.input_int_max if abs_rows.size else 0.0
    if src_bias is not None:
        bias_int = np.rint(src_bias.astype(np.float64) / kernel.output_scale)
        acc_bound += float(np.abs(bias_int).max()) if bias_int.size else 0.0
    else:
        bias_int = None
    kernel.bias_int = bias_int
    kernel.acc_bound = acc_bound
    carrier = np.dtype(np.float32) if acc_bound < _FLOAT32_EXACT else np.dtype(np.float64)
    kernel.compute_dtype = carrier  # base run() casts incoming frames to this
    kernel.weight = quantized.astype(carrier)
    kernel.bias = None if bias_int is None else bias_int.astype(carrier)
    kernel._quant_weight_snapshot = src.copy()
    kernel._quant_bias_snapshot = None if src_bias is None else src_bias.copy()


class QuantizedLinearKernel(LinearKernel):
    """Integer affine transform ``y_int = x_int Q^T + b_int``.

    ``Q`` is the weight's int8/int16 lattice from
    :func:`repro.hardware.quantization.quantize_array_int`; inputs arrive as
    integers scaled by ``input_scale`` (1.0 for binary spikes) with magnitude
    at most ``input_int_max``.  Outputs are integers worth ``output_scale``
    each.  The integers are carried in a float array sized by the prepare
    -time accumulator bound so the contraction is both BLAS-fast and exact
    (see the module docstring); the parent's silent-frame shortcut applies
    unchanged.
    """

    def __init__(
        self,
        name: str,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        quantization: QuantizationConfig,
        input_scale: float = 1.0,
        input_int_max: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(name, weight, bias, **kwargs)
        self.quantization = quantization
        self.input_scale = float(input_scale)
        self.input_int_max = float(input_int_max)
        self.weight_int: Optional[np.ndarray] = None
        self.weight_scale = 0.0
        self.output_scale = 1.0
        self.bias_int: Optional[np.ndarray] = None
        self.acc_bound = 0.0
        self._quant_weight_snapshot: Optional[np.ndarray] = None
        self._quant_bias_snapshot: Optional[np.ndarray] = None

    def prepare(self) -> None:
        _requantize_weight_kernel(self, reduce_axes=(1,))


class QuantizedConvKernel(ConvKernel):
    """Integer 2-D cross-correlation; conv analogue of
    :class:`QuantizedLinearKernel` (same lattice, scales, carrier selection
    and exactness argument, reduced over the full receptive field)."""

    def __init__(
        self,
        name: str,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        quantization: QuantizationConfig,
        stride: int = 1,
        padding: int = 0,
        input_scale: float = 1.0,
        input_int_max: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(name, weight, bias, stride=stride, padding=padding, **kwargs)
        self.quantization = quantization
        self.input_scale = float(input_scale)
        self.input_int_max = float(input_int_max)
        self.weight_int: Optional[np.ndarray] = None
        self.weight_scale = 0.0
        self.output_scale = 1.0
        self.bias_int: Optional[np.ndarray] = None
        self.acc_bound = 0.0
        self._quant_weight_snapshot: Optional[np.ndarray] = None
        self._quant_bias_snapshot: Optional[np.ndarray] = None

    def prepare(self) -> None:
        _requantize_weight_kernel(self, reduce_axes=(1, 2, 3))


class QuantizedLIFKernel(FusedLIFKernel):
    """LIF step executed entirely on the integer grid of its synaptic input.

    The threshold is rounded onto the grid of the upstream weight kernel's
    realized ``output_scale`` — ``theta_int = max(1, rint(theta / scale))``,
    clamping thresholds below half a quantization step to one step — and the
    leak is applied as an integer decay ``mem <- rint(beta * mem) + I_int``,
    so the membrane is an exact integer at every step.  Spike generation and
    reset then mirror the float kernel with ``theta_int`` in place of
    ``theta``.  Because the upstream scale is only known once live weights
    are quantized, ``theta_int`` is derived in :meth:`prepare` (the engine
    prepares kernels in execution order, so the upstream kernel has already
    refreshed).  Output spikes are binary float32, which resets the
    activation scale to 1.0 for the next weight stage — the single dequant
    point of the whole plan is therefore the network output boundary.
    """

    def __init__(
        self,
        name: str,
        beta: float,
        threshold: float,
        reset_mechanism: str = "subtract",
        upstream: Optional[Kernel] = None,
        fallback_scale: float = 1.0,
    ) -> None:
        super().__init__(name, beta, threshold, reset_mechanism)
        self.upstream = upstream
        self.fallback_scale = float(fallback_scale)
        self.theta_int = 1.0
        self.realized_input_scale = float(fallback_scale)
        self.mem_dtype = np.dtype(np.float64)

    def prepare(self) -> None:
        in_scale = self.upstream.output_scale if self.upstream is not None else self.fallback_scale
        self.realized_input_scale = float(in_scale)
        self.theta_int = max(1.0, float(np.rint(self.threshold / in_scale)))
        charge_bound = self.upstream.acc_bound if self.upstream is not None else _FLOAT32_EXACT
        if self.beta < 1.0:
            # Fixed point of |mem| <= beta * |mem| + charge (+ theta slack
            # around the reset) — conservative for every reset mechanism.
            mem_bound = (charge_bound + self.theta_int) / (1.0 - self.beta)
        else:
            mem_bound = float("inf")
        self.mem_dtype = np.dtype(np.float32) if mem_bound < _FLOAT32_EXACT else np.dtype(np.float64)

    def run(self, frame: np.ndarray) -> np.ndarray:
        if self.mem is None or self.mem.shape != frame.shape or self.mem.dtype != self.mem_dtype:
            self.mem = np.zeros(frame.shape, dtype=self.mem_dtype)
        mem = self.mem
        mem *= self.beta
        np.rint(mem, out=mem)
        mem += frame
        spikes = mem > self.theta_int
        if self.reset_mechanism == "subtract":
            np.subtract(mem, self.theta_int, out=mem, where=spikes)
        elif self.reset_mechanism == "zero":
            mem[spikes] = 0.0
        return spikes.astype(np.float32)


class QuantizedAdaptiveLIFKernel(QuantizedLIFKernel):
    """Adaptive-threshold LIF on the integer grid of its synaptic input.

    The integer-domain analogue of :class:`AdaptiveLIFKernel`: the base
    threshold rounds onto the upstream output grid exactly like
    :class:`QuantizedLIFKernel` (``theta_int``), the per-spike threshold
    increment rounds onto the same grid (``step_int = rint(adaptation_step /
    scale)`` — an increment below half a quantization step quantizes to
    zero, degrading gracefully to the plain quantized LIF), and the
    adaptation trace holds small integers: ``a <- rint(decay * a) + s``.
    The membrane update, spike comparison against ``theta_int + step_int *
    a`` and effective-threshold subtraction are then exact integer
    arithmetic on float carriers, with accumulator bounds derived in
    :meth:`prepare` (the trace is bounded by its decay fixed point, which
    bounds the effective threshold and hence the membrane).
    """

    def __init__(
        self,
        name: str,
        beta: float,
        threshold: float,
        reset_mechanism: str = "subtract",
        upstream: Optional[Kernel] = None,
        fallback_scale: float = 1.0,
        adaptation_step: float = 0.2,
        adaptation_decay: float = 0.9,
    ) -> None:
        super().__init__(name, beta, threshold, reset_mechanism, upstream, fallback_scale)
        self.adaptation_step = float(adaptation_step)
        self.adaptation_decay = float(adaptation_decay)
        self.step_int = 0.0
        self.adaptation: Optional[np.ndarray] = None

    def reset(self) -> None:
        self.mem = None
        self.adaptation = None

    def prepare(self) -> None:
        super().prepare()
        self.step_int = float(np.rint(self.adaptation_step / self.realized_input_scale))
        if self.adaptation_decay < 1.0:
            # Fixed point of a <- rint(decay * a) + 1 (+0.5 rounding slack).
            trace_bound = (1.0 + 0.5) / (1.0 - self.adaptation_decay)
        else:
            trace_bound = float("inf")
        theta_bound = self.theta_int + self.step_int * trace_bound
        charge_bound = self.upstream.acc_bound if self.upstream is not None else _FLOAT32_EXACT
        if self.beta < 1.0 and theta_bound < float("inf"):
            mem_bound = (charge_bound + theta_bound) / (1.0 - self.beta)
        else:
            mem_bound = float("inf")
        self.mem_dtype = np.dtype(np.float32) if mem_bound < _FLOAT32_EXACT else np.dtype(np.float64)

    def run(self, frame: np.ndarray) -> np.ndarray:
        if self.mem is None or self.mem.shape != frame.shape or self.mem.dtype != self.mem_dtype:
            self.mem = np.zeros(frame.shape, dtype=self.mem_dtype)
            self.adaptation = np.zeros(frame.shape, dtype=self.mem_dtype)
        mem = self.mem
        mem *= self.beta
        np.rint(mem, out=mem)
        mem += frame
        theta_eff = self.adaptation * self.step_int + self.theta_int
        spikes = mem > theta_eff
        if self.reset_mechanism == "subtract":
            np.subtract(mem, theta_eff, out=mem, where=spikes)
        elif self.reset_mechanism == "zero":
            mem[spikes] = 0.0
        trace = self.adaptation
        trace *= self.adaptation_decay
        np.rint(trace, out=trace)
        trace += spikes
        return spikes.astype(np.float32)


class QuantizedSynapticLIFKernel(QuantizedLIFKernel):
    """Second-order LIF on the integer grid of its synaptic input.

    The integer-domain analogue of :class:`SynapticLIFKernel`: both decays
    are integer decays (``x <- rint(factor * x)``), so the synaptic current
    and the membrane stay exact integers at every step.  The synaptic state
    is bounded by its own decay fixed point, which feeds the membrane's
    accumulator bound in :meth:`prepare`; ``alpha = 1`` or ``beta = 1``
    makes the respective state unbounded and forces the float64 carrier.
    """

    def __init__(
        self,
        name: str,
        alpha: float,
        beta: float,
        threshold: float,
        reset_mechanism: str = "subtract",
        upstream: Optional[Kernel] = None,
        fallback_scale: float = 1.0,
    ) -> None:
        super().__init__(name, beta, threshold, reset_mechanism, upstream, fallback_scale)
        self.alpha = float(alpha)
        self.syn: Optional[np.ndarray] = None

    def reset(self) -> None:
        self.mem = None
        self.syn = None

    def prepare(self) -> None:
        super().prepare()
        charge_bound = self.upstream.acc_bound if self.upstream is not None else _FLOAT32_EXACT
        if self.alpha < 1.0:
            # Fixed point of |syn| <= rint(alpha * |syn|) + charge.
            syn_bound = (charge_bound + 0.5) / (1.0 - self.alpha)
        else:
            syn_bound = float("inf")
        if self.beta < 1.0 and syn_bound < float("inf"):
            mem_bound = (syn_bound + self.theta_int + 0.5) / (1.0 - self.beta)
        else:
            mem_bound = float("inf")
        self.mem_dtype = np.dtype(np.float32) if mem_bound < _FLOAT32_EXACT else np.dtype(np.float64)

    def run(self, frame: np.ndarray) -> np.ndarray:
        if self.mem is None or self.mem.shape != frame.shape or self.mem.dtype != self.mem_dtype:
            self.mem = np.zeros(frame.shape, dtype=self.mem_dtype)
            self.syn = np.zeros(frame.shape, dtype=self.mem_dtype)
        syn = self.syn
        syn *= self.alpha
        np.rint(syn, out=syn)
        syn += frame
        mem = self.mem
        mem *= self.beta
        np.rint(mem, out=mem)
        mem += syn
        spikes = mem > self.theta_int
        if self.reset_mechanism == "subtract":
            np.subtract(mem, self.theta_int, out=mem, where=spikes)
        elif self.reset_mechanism == "zero":
            mem[spikes] = 0.0
        return spikes.astype(np.float32)
