"""The spiking layer's timestep: one NumPy step, and its fused training op.

:func:`lif_forward` is the only place the membrane arithmetic is written.
It splits a timestep into charge, fire and reset, as spikingjelly's
neurons do, and covers both substrates: LIF (no leak is ``beta = 1``) and
the adaptive-threshold LIF, whose trace raises the threshold after each
spike.  Training (:func:`fused_lif_step`) and the compiled plan
(:class:`repro.runtime.kernels.NeuronKernel`) both call it, so the two
agree by construction, as they do for convolution and pooling.

:func:`fused_lif_step` wraps that step in **three** hand-built graph nodes
(skipping the generic ``Function.apply`` argument machinery) with analytic
backward rules:

``_LIFCharge``
    ``U[t] = beta * U[t-1] + I_syn[t]`` — backward routes ``beta * g`` to the
    previous membrane and ``g`` to the synaptic input.

``_LIFSpike``
    Heaviside forward; backward multiplies by the surrogate derivative at
    the centred potential ``v - theta`` (Neftci et al.'s surrogate
    gradient, applied only in the backward pass) through
    :func:`surrogate_backward`.

``_LIFReset``
    The post-spike membrane ``U[t] - S[t] * theta`` (Eq. 1 of the paper);
    spikes are detached from the reset path, matching snnTorch, so
    backward is the identity.  The adaptive threshold is detached too, so
    it adds no node.

The nodes mirror the gradient routing of the same step composed from
elementwise ops and a Heaviside/surrogate spike op: the charged membrane
has two readers, the spike and the reset, and the new membrane is read
only by whatever reads it in the composition.  So backward results are
bit-for-bit identical to that composition for every surrogate,
``beta``/``theta`` value and adaptation rule, also for a loss that reads
the membrane; the composition is kept as the oracle in
``tests/test_fused_lif.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.autograd.function import Context, Function, Node
from repro.autograd.tensor import Tensor, is_grad_enabled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.surrogate.base import SurrogateFunction


def lif_forward(
    mem: np.ndarray,
    x: np.ndarray,
    beta,
    theta,
    trace: Optional[np.ndarray] = None,
    adaptation_step=0.0,
    adaptation_decay=0.0,
    integer: bool = False,
    out: Tuple[Optional[np.ndarray], Optional[np.ndarray]] = (None, None),
    buffers: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """One timestep of a spiking layer on raw arrays: ``(spikes, v, mem, trace)``.

    * charge: ``u <- beta * u + x``;
    * fire: ``s = v > theta``, with ``v = u``, or with a ``trace`` ``a``
      ``v = u - (theta_eff - theta)`` where ``theta_eff = a * b + theta``;
    * reset: ``u - s * theta`` (``s * theta_eff`` with a trace);
    * trace: ``a <- rho * a + s``, with ``b`` = ``adaptation_step`` and
      ``rho`` = ``adaptation_decay``.

    Everything runs in the charged membrane's dtype, with ``beta``,
    ``theta`` and the adaptation scalars as the caller passes them (Python
    floats, or 0-d arrays of a chosen dtype).  With ``integer``, ``np.rint``
    follows each decay, so a state on an integer grid stays on it.  ``out``
    names the arrays the new membrane and trace are written into (the
    previous ones, for a state updated in place); with ``None`` they are
    fresh and the inputs are left untouched.  ``buffers`` are the arrays,
    of the membrane's shape, that the boolean fire mask, the spikes (the
    returned ones) and the reset's product ``s * theta`` are written into;
    with ``None`` they are fresh.  ``v`` is the potential compared with
    ``theta``; the surrogate's argument is ``v - theta``, and
    ``v > theta`` holds exactly where ``v - theta > 0`` does (the rounded
    difference of floats on opposite sides of ``theta`` cannot cross zero).
    """
    mem_out, trace_out = out
    charged = np.multiply(mem, beta, out=mem_out)
    if integer:
        np.rint(charged, out=charged)
    charged += x
    if trace is None:
        v, reset_threshold = charged, theta
    else:
        reset_threshold = trace * adaptation_step + theta
        v = charged - (reset_threshold - theta)
    if buffers is None:
        spikes, product = (v > theta).astype(charged.dtype), None
    else:
        fired, spikes, product = buffers
        np.copyto(spikes, np.greater(v, theta, out=fired))
    mem = np.subtract(charged, np.multiply(spikes, reset_threshold, out=product), out=mem_out)
    if trace is not None:
        trace = np.multiply(trace, adaptation_decay, out=trace_out)
        if integer:
            np.rint(trace, out=trace)
        trace += spikes
    return spikes, v, mem, trace


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
    """Heaviside forward / surrogate backward at ``v - theta``."""

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        surrogate, v, theta = ctx.saved
        return (surrogate_backward(grad_output, surrogate, v - theta),)


class _LIFReset(Function):
    """Post-spike membrane (reset path; spikes are detached, as in snnTorch)."""

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        return (grad_output,)


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
    trace: Optional[Tensor] = None,
    adaptation_step: float = 0.0,
    adaptation_decay: float = 0.0,
) -> Tuple[Tensor, Tensor, Optional[Tensor]]:
    """One training timestep: returns ``(spikes, new_membrane, new_trace)``.

    Runs :func:`lif_forward` on fresh arrays, with ``beta`` and
    ``threshold`` in the synaptic input's dtype, and records the three
    nodes of the module docstring.  Semantics are identical to the composed
    sequence

    .. code-block:: python

        mem = mem_prev * beta + synaptic_input
        spikes = heaviside(mem - threshold)      # surrogate derivative on the backward
        mem = mem - spikes.detach() * threshold

    — same forward spikes, same membrane trajectory and bit-identical
    gradients.  With a ``trace`` (the adaptive neuron's, a tensor outside
    the graph) the threshold adapts as :func:`lif_forward` describes, and
    ``new_trace`` is the updated trace; without one it is ``None``.
    """
    dtype = synaptic_input.dtype
    beta_arr = np.asarray(beta, dtype=dtype)
    theta = np.asarray(threshold, dtype=dtype)
    spikes, v, new_mem, new_trace = lif_forward(
        mem_prev.data,
        synaptic_input.data,
        beta_arr,
        theta,
        None if trace is None else trace.data,
        adaptation_step,
        adaptation_decay,
    )

    record = (mem_prev.requires_grad or synaptic_input.requires_grad) and is_grad_enabled()
    # The charge node's output differs from ``v`` by a detached offset, so
    # ``v`` carries its gradient exactly; only the node is ever read.
    charged_t = Tensor(v, requires_grad=record)
    spikes_t = Tensor(spikes, requires_grad=record)
    new_mem_t = Tensor(new_mem, requires_grad=record)
    if record:
        _node(charged_t, _LIFCharge, (mem_prev, synaptic_input), beta_arr)
        _node(spikes_t, _LIFSpike, (charged_t,), surrogate, v, theta)
        _node(new_mem_t, _LIFReset, (charged_t,))
    return spikes_t, new_mem_t, None if new_trace is None else Tensor(new_trace)
