"""Reductions: the mean over every element and the last axis's log-sum-exp."""

from __future__ import annotations

import numpy as np

from repro.autograd.function import Context, Function


class Mean(Function):
    """The mean over every element, the reduction both count losses end in."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(a.shape, a.size)
        return a.mean()

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        in_shape, count = ctx.saved
        return (np.broadcast_to(np.asarray(grad_output) / count, in_shape),)


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
