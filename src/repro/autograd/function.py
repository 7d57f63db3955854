"""Differentiable function base classes for the autograd engine.

Every differentiable operation is implemented as a subclass of
:class:`Function` with two static methods:

``forward(ctx, *args, **kwargs)``
    Computes the output ``numpy`` array(s).  Anything needed for the backward
    pass is stashed on the :class:`Context` via ``ctx.save_for_backward`` or
    plain attribute assignment.

``backward(ctx, grad_output)``
    Receives the gradient of the loss with respect to the op's output and
    returns a tuple of gradients with respect to each *tensor* input (``None``
    for non-differentiable inputs).  ``ctx.needs_input_grad`` says, per
    positional argument, whether a gradient is wanted at all, so an op can
    skip the ones the engine would discard.

Applying a Function via :meth:`Function.apply` unwraps tensor inputs to raw
arrays, runs ``forward``, wraps the result in a new
:class:`~repro.autograd.tensor.Tensor`, and records the graph edge when
gradients are enabled.

A :class:`Node` links the node that produced each non-leaf input and keeps
each leaf input as its ``Tensor``, whose ``.grad`` the backward pass
accumulates.  No node refers to an op's output, so the arrays in
``ctx.saved`` are the only ones a graph keeps alive until the backward.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

import numpy as np


class Context:
    """Per-call scratch space shared between ``forward`` and ``backward``."""

    __slots__ = ("_saved", "needs_input_grad", "__dict__")

    def __init__(self) -> None:
        self._saved: Tuple[Any, ...] = ()
        #: Per positional argument of ``forward``: is it a tensor that
        #: requires grad?  Set by :meth:`Function.apply`.
        self.needs_input_grad: Tuple[bool, ...] = ()

    def save_for_backward(self, *values: Any) -> None:
        """Store arbitrary values needed by the backward pass."""
        self._saved = values

    @property
    def saved(self) -> Tuple[Any, ...]:
        """Values previously stored with :meth:`save_for_backward`."""
        return self._saved


class Node:
    """A recorded application of a :class:`Function` in the computation graph.

    ``inputs`` has one entry per positional argument of ``forward``, in line
    with the tuple ``backward`` returns: the :class:`Node` that produced a
    non-leaf tensor, the ``Tensor`` itself for a leaf, ``None`` for a
    non-tensor argument.
    """

    __slots__ = ("fn", "ctx", "inputs")

    def __init__(self, fn: "type[Function]", ctx: Context, inputs: Sequence[Any]) -> None:
        """``inputs``: per positional argument, the ``Tensor`` passed or ``None``."""
        self.fn = fn
        self.ctx = ctx
        self.inputs = tuple(t if t is None or t._node is None else t._node for t in inputs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.fn.__name__})"


class Function:
    """Base class for differentiable operations.

    Subclasses implement ``forward`` and ``backward`` as static methods and
    are invoked through :meth:`apply`.
    """

    @staticmethod
    def forward(ctx: Context, *args: Any, **kwargs: Any) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray) -> Any:
        raise NotImplementedError

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any):
        """Run the op, wrap the result, and record the graph edge if needed."""
        from repro.autograd.tensor import Tensor, is_grad_enabled

        ctx = Context()
        raw_args = []
        tensor_inputs = []
        for a in args:
            if isinstance(a, Tensor):
                raw_args.append(a.data)
                tensor_inputs.append(a)
            else:
                raw_args.append(a)
                tensor_inputs.append(None)
        ctx.needs_input_grad = tuple(t is not None and t.requires_grad for t in tensor_inputs)

        out_data = cls.forward(ctx, *raw_args, **kwargs)
        requires_grad = any(ctx.needs_input_grad) and is_grad_enabled()
        out = Tensor(out_data, requires_grad=requires_grad)
        if requires_grad:
            out._node = Node(cls, ctx, tensor_inputs)
        return out


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo NumPy broadcasting.

    Gradients of broadcasted operands must be reduced over the broadcast
    dimensions so that ``param.grad.shape == param.shape`` always holds.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)
