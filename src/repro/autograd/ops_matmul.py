"""The dense layer's fused affine transform."""

from __future__ import annotations

import numpy as np

from repro.autograd.function import Context, Function


class Linear(Function):
    """Fused affine transform ``x @ W.T + b`` used by dense layers.

    Fusing keeps the graph small during backpropagation-through-time where
    the same layer is applied at every timestep.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
        ctx.save_for_backward(x, weight, bias is not None)
        out = x @ weight.T
        if bias is not None:
            out = out + bias
        return out

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        x, weight, has_bias = ctx.saved
        grad_x = grad_output @ weight
        # Collapse any leading batch dimensions for the weight gradient.
        go2 = grad_output.reshape(-1, grad_output.shape[-1])
        x2 = x.reshape(-1, x.shape[-1])
        grad_w = go2.T @ x2
        grad_b = go2.sum(axis=0) if has_bias else None
        return grad_x, grad_w, grad_b
