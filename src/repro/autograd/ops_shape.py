"""Shape operations: indexing and flattening after the batch dimension."""

from __future__ import annotations

import numpy as np

from repro.autograd.function import Context, Function


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
