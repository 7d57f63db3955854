"""Elementwise differentiable arithmetic: ``+``, ``-`` and ``*`` with broadcasting."""

from __future__ import annotations

import numpy as np

from repro.autograd.function import Context, Function, unbroadcast


class Add(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(np.shape(a), np.shape(b))
        return a + b

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        a_shape, b_shape = ctx.saved
        return unbroadcast(grad_output, a_shape), unbroadcast(grad_output, b_shape)


class Sub(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(np.shape(a), np.shape(b))
        return a - b

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        a_shape, b_shape = ctx.saved
        return unbroadcast(grad_output, a_shape), unbroadcast(-grad_output, b_shape)


class Mul(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # Each operand is read only by the other's gradient: save neither
        # unless that gradient is wanted (``mem * beta`` must not pin ``mem``).
        need_a, need_b = ctx.needs_input_grad
        ctx.save_for_backward(np.shape(a), np.shape(b), b if need_a else None, a if need_b else None)
        return a * b

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        a_shape, b_shape, b, a = ctx.saved
        return (
            None if b is None else unbroadcast(grad_output * b, a_shape),
            None if a is None else unbroadcast(grad_output * a, b_shape),
        )
