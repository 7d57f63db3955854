"""Shape-manipulation operations (reshape, transpose, indexing, stacking)."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.autograd.function import Context, Function


class Reshape(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
        ctx.save_for_backward(a.shape)
        return a.reshape(shape)

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        (in_shape,) = ctx.saved
        return (np.asarray(grad_output).reshape(in_shape), None)


class Transpose(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, axes: Tuple[int, ...] | None = None) -> np.ndarray:
        if axes is None:
            axes = tuple(reversed(range(a.ndim)))
        ctx.save_for_backward(axes)
        return a.transpose(axes)

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        (axes,) = ctx.saved
        inverse = np.argsort(axes)
        return (np.asarray(grad_output).transpose(inverse), None)


class GetItem(Function):
    """Basic and advanced indexing with gradient scatter-add back."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, index) -> np.ndarray:
        ctx.save_for_backward(a.shape, a.dtype, index)
        return a[index]

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        in_shape, dtype, index = ctx.saved
        grad = np.zeros(in_shape, dtype=dtype)
        np.add.at(grad, index, grad_output)
        return (grad, None)


class Concatenate(Function):
    """Concatenate a list of arrays along ``axis`` (variadic tensor inputs)."""

    @staticmethod
    def forward(ctx: Context, *arrays: np.ndarray, axis: int = 0) -> np.ndarray:
        sizes = [a.shape[axis] for a in arrays]
        ctx.save_for_backward(sizes, axis)
        return np.concatenate(arrays, axis=axis)

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        sizes, axis = ctx.saved
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(np.asarray(grad_output), splits, axis=axis))


class Stack(Function):
    """Stack a list of arrays along a new leading-or-given axis."""

    @staticmethod
    def forward(ctx: Context, *arrays: np.ndarray, axis: int = 0) -> np.ndarray:
        ctx.save_for_backward(len(arrays), axis)
        return np.stack(arrays, axis=axis)

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        count, axis = ctx.saved
        grads = np.split(np.asarray(grad_output), count, axis=axis)
        return tuple(np.squeeze(g, axis=axis) for g in grads)


class Flatten(Function):
    """Flatten all dimensions after the batch dimension."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(a.shape)
        return a.reshape(a.shape[0], -1)

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        (in_shape,) = ctx.saved
        return (np.asarray(grad_output).reshape(in_shape),)


class Broadcast(Function):
    """Explicit broadcast to a target shape (gradient sums back)."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
        ctx.save_for_backward(a.shape)
        return np.broadcast_to(a, shape).copy()

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        from repro.autograd.function import unbroadcast

        (in_shape,) = ctx.saved
        return (unbroadcast(np.asarray(grad_output), in_shape), None)
