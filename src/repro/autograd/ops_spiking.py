"""Fused LIF training-step operation (charge + threshold + reset).

The composed LIF step builds five elementwise graph nodes per layer per
timestep (``Mul``/``Add`` for the charge, ``SpikeFunction`` for the
threshold, ``Mul``/``Sub`` for the reset) plus the temporaries each of them
allocates.  During BPTT that Python/allocation overhead is paid for every
spiking layer at every timestep of every batch, so it dominates the
non-convolution share of training time.

:func:`fused_lif_step` computes the whole membrane update in **one** raw
NumPy pass and records only three graph nodes (built directly, skipping the
generic ``Function.apply`` argument machinery) with analytic backward rules:

``_LIFCharge``
    ``U[t] = beta * U[t-1] + I_syn[t]`` — backward routes ``beta * g`` to the
    previous membrane and ``g`` to the synaptic input.

``_LIFSpike``
    Heaviside forward on the precomputed membrane; backward multiplies by the
    surrogate derivative at the centred potential (Neftci et al.'s surrogate
    gradient), exactly like :class:`~repro.surrogate.base.SpikeFunction`.

``_LIFReset``
    The post-spike membrane; backward is the identity for ``subtract`` /
    ``none`` resets and ``g * (1 - s)`` for the ``zero`` reset (spikes are
    detached from the reset path, matching snnTorch and the composed
    implementation).

The node structure mirrors the composed graph's gradient routing exactly, so
backward results are bit-for-bit identical to the composed implementation
for every surrogate, reset mechanism and ``beta``/``theta`` value (see
``tests/test_fused_lif.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.autograd.function import Context, Function, Node
from repro.autograd.tensor import Tensor, is_grad_enabled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.surrogate.base import SurrogateFunction


class _LIFCharge(Function):
    """Membrane charge ``beta * U[t-1] + I_syn`` (forward precomputed)."""

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        (beta,) = ctx.saved
        return grad_output * beta, grad_output


def surrogate_backward(grad_output: np.ndarray, surrogate: "SurrogateFunction", centred: np.ndarray) -> np.ndarray:
    """``grad_output * surrogate.derivative(centred)``, the spike's input gradient.

    The product goes into the derivative's own array (see
    :meth:`~repro.surrogate.base.SurrogateFunction.derivative`) when that is
    a fresh one -- a writable array that is not ``centred`` and views no
    other -- with the product's dtype and shape, and into a new one
    otherwise.  ``grad_output`` is never written: other nodes hold it too
    (``_LIFCharge`` and ``_LIFReset`` pass their incoming gradient on
    unchanged).
    """
    derivative = surrogate.derivative(centred)
    fresh = (
        isinstance(derivative, np.ndarray)
        and derivative is not centred
        and derivative.base is None
        and derivative.flags.writeable
    )
    if fresh and derivative.shape == grad_output.shape and np.result_type(grad_output, derivative) == derivative.dtype:
        return np.multiply(grad_output, derivative, out=derivative)
    return grad_output * derivative


class _LIFSpike(Function):
    """Heaviside forward / surrogate backward on a precomputed membrane."""

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        surrogate, centred = ctx.saved
        return (surrogate_backward(grad_output, surrogate, centred),)


class _LIFReset(Function):
    """Post-spike membrane (reset path; spikes are detached, as in snnTorch)."""

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        (reset_gate,) = ctx.saved
        if reset_gate is None:  # "subtract" / "none": dU[t+]/dU[t] = 1
            return (grad_output,)
        return (grad_output * reset_gate,)


def _node(tensor: Tensor, fn: "type[Function]", inputs: Tuple[Tensor, ...], *saved) -> None:
    """Attach a hand-built graph node (the forward already ran, fused)."""
    ctx = Context()
    ctx.save_for_backward(*saved)
    tensor._node = Node(fn, ctx, inputs)


def fused_lif_step(
    mem_prev: Tensor,
    synaptic_input: Tensor,
    beta: float,
    threshold: float,
    surrogate: "SurrogateFunction",
    reset_mechanism: str = "subtract",
) -> Tuple[Tensor, Tensor]:
    """One LIF timestep, fused: returns ``(spikes, new_membrane)``.

    Semantics are identical to the composed sequence

    .. code-block:: python

        mem = mem_prev * beta + synaptic_input
        spikes = spike(mem, threshold, surrogate)
        mem = mem - spikes.detach() * threshold        # "subtract"

    (or the ``zero`` / ``none`` reset variants) — same forward spikes, same
    membrane trajectory and bit-identical gradients — but computed in a
    single NumPy pass with three graph nodes instead of five-plus.
    """
    dtype = synaptic_input.dtype
    beta_arr = np.asarray(beta, dtype=dtype)
    theta = float(threshold)

    mem = mem_prev.data * beta_arr
    mem += synaptic_input.data
    centred = mem - theta
    spikes = (centred > 0).astype(dtype)

    reset_gate = None
    if reset_mechanism == "subtract":
        new_mem = np.multiply(spikes, np.asarray(theta, dtype=dtype), dtype=mem.dtype)
        np.subtract(mem, new_mem, out=new_mem)
    elif reset_mechanism == "zero":
        reset_gate = 1.0 - spikes
        new_mem = mem * reset_gate
    elif reset_mechanism == "none":
        new_mem = mem
    else:
        raise ValueError(f"unknown reset mechanism '{reset_mechanism}'")

    record = (mem_prev.requires_grad or synaptic_input.requires_grad) and is_grad_enabled()
    mem_t = Tensor(mem, requires_grad=record)
    spikes_t = Tensor(spikes, requires_grad=record)
    new_mem_t = Tensor(new_mem, requires_grad=record)
    if record:
        _node(mem_t, _LIFCharge, (mem_prev, synaptic_input), beta_arr)
        _node(spikes_t, _LIFSpike, (mem_t,), surrogate, centred)
        _node(new_mem_t, _LIFReset, (mem_t,), reset_gate)
    return spikes_t, new_mem_t
