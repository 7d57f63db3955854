"""Elementwise differentiable operations (arithmetic and activations)."""

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


class Div(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(a, b)
        return a / b

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        a, b = ctx.saved
        grad_a = grad_output / b
        grad_b = -grad_output * a / (b * b)
        return unbroadcast(grad_a, np.shape(a)), unbroadcast(grad_b, np.shape(b))


class Neg(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        return -a

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        return (-grad_output,)


class Pow(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, exponent: float) -> np.ndarray:
        ctx.save_for_backward(a, exponent)
        return a ** exponent

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        a, exponent = ctx.saved
        return (grad_output * exponent * (a ** (exponent - 1)),)


class Exp(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = np.exp(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        (out,) = ctx.saved
        return (grad_output * out,)


class Log(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(a)
        return np.log(a)

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        (a,) = ctx.saved
        return (grad_output / a,)


class Sqrt(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = np.sqrt(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        (out,) = ctx.saved
        return (grad_output * 0.5 / out,)


class ReLU(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        mask = a > 0
        ctx.save_for_backward(mask)
        return a * mask

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        (mask,) = ctx.saved
        return (grad_output * mask,)


class Sigmoid(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-a))
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        (out,) = ctx.saved
        return (grad_output * out * (1.0 - out),)


class Tanh(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = np.tanh(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        (out,) = ctx.saved
        return (grad_output * (1.0 - out * out),)


class Clip(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, lo: float, hi: float) -> np.ndarray:
        mask = (a >= lo) & (a <= hi)
        ctx.save_for_backward(mask)
        return np.clip(a, lo, hi)

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        (mask,) = ctx.saved
        return (grad_output * mask, None, None)


class Abs(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(np.sign(a))
        return np.abs(a)

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        (sign,) = ctx.saved
        return (grad_output * sign,)


class Maximum(Function):
    """Elementwise maximum of two arrays (ties route gradient to the first)."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        mask = a >= b
        ctx.save_for_backward(mask, np.shape(a), np.shape(b))
        return np.maximum(a, b)

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        mask, a_shape, b_shape = ctx.saved
        return (
            unbroadcast(grad_output * mask, a_shape),
            unbroadcast(grad_output * (~mask), b_shape),
        )


class Detach(Function):
    """Identity in the forward pass that blocks gradient flow."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        return np.array(a, copy=True)

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        return (None,)


class Where(Function):
    """Differentiable ``np.where(condition, a, b)`` over tensor branches."""

    @staticmethod
    def forward(ctx: Context, condition: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(condition, np.shape(a), np.shape(b))
        return np.where(condition, a, b)

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        condition, a_shape, b_shape = ctx.saved
        return (
            None,
            unbroadcast(grad_output * condition, a_shape),
            unbroadcast(grad_output * (~condition.astype(bool)), b_shape),
        )
