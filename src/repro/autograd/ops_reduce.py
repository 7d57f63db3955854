"""Reductions: the mean (any axes) and the last axis's log-sum-exp."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.function import Context, Function

AxisArg = Optional[Union[int, Sequence[int]]]


def _normalise_axes(axis: AxisArg, ndim: int) -> Tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_grad(grad: np.ndarray, in_shape: Tuple[int, ...], axes: Tuple[int, ...], keepdims: bool) -> np.ndarray:
    """Reshape a reduced gradient so it broadcasts back over ``in_shape``."""
    if not keepdims:
        shape = list(in_shape)
        for a in axes:
            shape[a] = 1
        grad = grad.reshape(shape)
    return np.broadcast_to(grad, in_shape)


class Mean(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, axis: AxisArg = None, keepdims: bool = False) -> np.ndarray:
        axes = _normalise_axes(axis, a.ndim)
        count = int(np.prod([a.shape[ax] for ax in axes])) if axes else 1
        ctx.save_for_backward(a.shape, axes, keepdims, count)
        return a.mean(axis=axis if axis is None else axes, keepdims=keepdims)

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        in_shape, axes, keepdims, count = ctx.saved
        grad = np.asarray(grad_output) / count
        return (_expand_grad(grad, in_shape, axes, keepdims),)


class LogSumExp(Function):
    """Numerically stable log-sum-exp along the final axis.

    Used by the cross-entropy loss; keeping it fused avoids the overflow that
    a naive ``log(sum(exp(x)))`` graph would hit for large logits.
    """

    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        m = a.max(axis=-1, keepdims=True)
        shifted = a - m
        sumexp = np.exp(shifted).sum(axis=-1, keepdims=True)
        out = (m + np.log(sumexp)).squeeze(-1)
        softmax = np.exp(shifted) / sumexp
        ctx.save_for_backward(softmax)
        return out

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        (softmax,) = ctx.saved
        return (np.asarray(grad_output)[..., None] * softmax,)
