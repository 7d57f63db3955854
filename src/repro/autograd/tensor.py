"""The :class:`Tensor` type at the heart of the autograd engine.

A ``Tensor`` wraps a ``numpy.ndarray`` and, when ``requires_grad=True``,
records every operation applied to it in a computation graph.  Calling
:meth:`Tensor.backward` on a scalar result walks the graph in reverse
topological order and accumulates gradients on every leaf tensor.
Only leaves get a ``.grad``: the graph links
:class:`~repro.autograd.function.Node` objects, not tensors, so a non-leaf
tensor's array is freed once the program drops the tensor, unless an op
saved it for its backward pass.

The API deliberately mirrors the small subset of PyTorch that snnTorch-style
spiking networks use, so the rest of the reproduction reads like familiar
deep-learning code.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.autograd import ops_conv, ops_elementwise, ops_matmul, ops_reduce, ops_shape
from repro.autograd.function import Node

# Number of currently active ``no_grad`` contexts.  A depth counter (rather
# than a saved previous value per context) keeps the enabled/disabled state
# correct even when contexts are entered and exited out of order — e.g. two
# generators that each suspend inside ``with no_grad():`` and are resumed
# or garbage-collected interleaved.
_NO_GRAD_DEPTH = 0

ArrayLike = Union[np.ndarray, float, int, list, tuple]


def is_grad_enabled() -> bool:
    """Return whether operations are currently being recorded."""
    return _NO_GRAD_DEPTH == 0


class no_grad:
    """Context manager / decorator that disables graph recording (inference mode).

    Entering increments a global depth counter and exiting decrements it;
    recording is off while the depth is non-zero.  Unlike the save/restore
    pattern, this stays correct for nested contexts, exceptions, and
    re-entrant use from generators whose ``finally`` blocks run in a
    different order than their entries.

    Can also be used as a function decorator::

        @no_grad()
        def inference(...): ...
    """

    def __init__(self) -> None:
        self._entered = 0

    def __enter__(self) -> "no_grad":
        global _NO_GRAD_DEPTH
        _NO_GRAD_DEPTH += 1
        self._entered += 1
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        global _NO_GRAD_DEPTH
        if self._entered > 0:
            self._entered -= 1
            _NO_GRAD_DEPTH -= 1

    def __call__(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        return wrapper


class Tensor:
    """An n-dimensional array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, dtype=None) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind in "iub" and dtype is None:
            # Promote integers to float so gradients are representable,
            # but leave explicit dtypes (e.g. label arrays) alone.
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.requires_grad: bool = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[Node] = None

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def tolist(self):
        return self.data.tolist()

    def detach(self) -> "Tensor":
        """A view of the same values with no gradient history."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor to every leaf that requires grad.

        Parameters
        ----------
        grad:
            Gradient of some scalar loss with respect to this tensor, of
            this tensor's shape.  If omitted, this tensor must be a scalar
            and a gradient of 1.0 is used.

        Raises ``RuntimeError`` when this tensor has no graph and does not
        require grad (e.g. it was computed under :class:`no_grad`), and
        ``ValueError`` when ``grad``'s shape differs from this tensor's.
        """
        if self._node is None and not self.requires_grad:
            raise RuntimeError(
                "backward() on a tensor that does not require grad and has no graph "
                "(was it computed under no_grad?)"
            )
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar tensor; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.shape:
                raise ValueError(
                    f"backward() got a gradient of shape {grad.shape} for a tensor of shape {self.shape}"
                )
        if self._node is None:  # a leaf: the seed is its whole gradient
            self.grad = grad.copy() if self.grad is None else self.grad + grad
            return

        # Topologically order the nodes reachable from this tensor's node: a
        # depth-first post-order over each node's inputs, in input order
        # (the order fixes how gradients accumulate, hence their bits).
        # Iterative, so no self-referencing closure keeps the graph alive
        # until the cyclic collector runs, and no recursion limit applies.
        topo: List[Node] = []
        visited = {self._node}
        stack = [(self._node, iter(self._node.inputs))]
        while stack:
            node, parents = stack[-1]
            for parent in parents:
                if isinstance(parent, Node) and parent not in visited:
                    visited.add(parent)
                    stack.append((parent, iter(parent.inputs)))
                    break
            else:
                stack.pop()
                topo.append(node)

        grads = {self._node: grad}
        for node in reversed(topo):
            grad_out = grads.pop(node, None)
            if grad_out is None:
                continue
            input_grads = node.fn.backward(node.ctx, grad_out)
            if not isinstance(input_grads, tuple):
                input_grads = (input_grads,)
            for parent, g in zip(node.inputs, input_grads):
                if parent is None or g is None:
                    continue
                g = np.asarray(g)
                if isinstance(parent, Node):
                    existing = grads.get(parent)
                    grads[parent] = g if existing is None else existing + g
                elif parent.requires_grad:  # a leaf: accumulate into .grad
                    if parent.grad is None:
                        parent.grad = g.astype(parent.data.dtype, copy=True)
                    else:
                        parent.grad = parent.grad + g

    # ------------------------------------------------------------------ #
    # Arithmetic operators
    # ------------------------------------------------------------------ #
    def _coerce(self, other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        return ops_elementwise.Add.apply(self, self._coerce(other))

    def __radd__(self, other):
        return ops_elementwise.Add.apply(self._coerce(other), self)

    def __sub__(self, other):
        return ops_elementwise.Sub.apply(self, self._coerce(other))

    def __rsub__(self, other):
        return ops_elementwise.Sub.apply(self._coerce(other), self)

    def __mul__(self, other):
        return ops_elementwise.Mul.apply(self, self._coerce(other))

    def __rmul__(self, other):
        return ops_elementwise.Mul.apply(self._coerce(other), self)

    def __getitem__(self, index):
        if isinstance(index, Tensor):
            index = index.data
        return ops_shape.GetItem.apply(self, index)

    # ------------------------------------------------------------------ #
    # Reductions, shape and neural-network ops (delegated to ops modules)
    # ------------------------------------------------------------------ #
    def mean(self):
        """The mean over every element."""
        return ops_reduce.Mean.apply(self)

    def logsumexp(self):
        return ops_reduce.LogSumExp.apply(self)

    def flatten(self):
        """Flatten everything after the batch dimension."""
        return ops_shape.Flatten.apply(self)

    def conv2d(self, weight: "Tensor", bias: Optional["Tensor"] = None, stride: int = 1, padding: int = 0):
        return ops_conv.Conv2d.apply(self, weight, bias, stride, padding)

    def max_pool2d(self, kernel: int = 2):
        return ops_conv.MaxPool2d.apply(self, kernel)

    def linear(self, weight: "Tensor", bias: Optional["Tensor"] = None):
        return ops_matmul.Linear.apply(self, weight, bias)


def zeros(shape, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)
