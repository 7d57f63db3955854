"""Reverse-mode automatic differentiation engine.

This subpackage is the substrate that replaces PyTorch in the offline
reproduction.  It provides a :class:`~repro.autograd.tensor.Tensor` type that
records a computation graph as operations are applied and a topological
backward pass that propagates gradients to every leaf with
``requires_grad=True``.

The engine supports everything the paper's convolutional spiking network
needs: elementwise arithmetic, matrix multiplication, 2-D convolution
(im2col), max pooling, reductions, reshaping, concatenation/stacking
over time, and custom functions (used by the surrogate-gradient spike
operator in :mod:`repro.surrogate`).

Example
-------
>>> from repro.autograd import Tensor
>>> import numpy as np
>>> x = Tensor(np.ones((2, 3)), requires_grad=True)
>>> y = (x * 2.0 + 1.0).sum()
>>> y.backward()
>>> x.grad.tolist()
[[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]]
"""

from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled, zeros, ones, arange, tensor
from repro.autograd.function import Function, Context
from repro.autograd.gradcheck import gradcheck, numerical_gradient
from repro.autograd.ops_spiking import fused_lif_step

__all__ = [
    "Tensor",
    "Function",
    "Context",
    "fused_lif_step",
    "no_grad",
    "is_grad_enabled",
    "gradcheck",
    "numerical_gradient",
    "zeros",
    "ones",
    "arange",
    "tensor",
]
