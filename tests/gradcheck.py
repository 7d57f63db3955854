"""Numerical gradient checking for the test suite.

Verifies that an analytical backward pass in :mod:`repro.autograd` matches a
central-difference approximation of the gradient of ``sum(fn(*inputs))``.
The backward pass is seeded with ones, which is the gradient of that sum
with respect to every output element.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autograd.tensor import Tensor


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    index: int,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. ``inputs[index]``.

    The function output is summed so arbitrary output shapes can be checked
    against a scalar objective.
    """
    target = inputs[index]
    grad = np.zeros_like(target.data, dtype=np.float64)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(fn(*inputs).data.sum())
        flat[i] = original - eps
        minus = float(fn(*inputs).data.sum())
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-5,
    atol: float = 1e-4,
    rtol: float = 1e-3,
) -> bool:
    """Compare analytical and numerical gradients for every grad-requiring input.

    Returns ``True`` when all gradients match within tolerance, otherwise
    raises an ``AssertionError`` describing the first mismatch.  Inputs should
    use ``float64`` data for meaningful comparisons.
    """
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    out.backward(np.ones_like(out.data))
    for idx, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        analytical = t.grad if t.grad is not None else np.zeros_like(t.data)
        numerical = numerical_gradient(fn, inputs, idx, eps=eps)
        if not np.allclose(analytical, numerical, atol=atol, rtol=rtol):
            max_err = float(np.max(np.abs(analytical - numerical)))
            raise AssertionError(
                f"gradcheck failed for input {idx}: max abs error {max_err:.3e}\n"
                f"analytical:\n{analytical}\nnumerical:\n{numerical}"
            )
    return True
