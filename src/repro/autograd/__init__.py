"""Reverse-mode automatic differentiation engine.

This subpackage is the substrate that replaces PyTorch in the offline
reproduction.  It provides a :class:`~repro.autograd.tensor.Tensor` type that
records a computation graph as operations are applied and a topological
backward pass that propagates gradients to every leaf with
``requires_grad=True``.

The engine holds what the paper's convolutional spiking network trains
with, and nothing else: ten ops -- ``+``, ``-`` and ``*``
(:mod:`~repro.autograd.ops_elementwise`), the mean and log-sum-exp of the
count losses (:mod:`~repro.autograd.ops_reduce`), indexing and flattening
(:mod:`~repro.autograd.ops_shape`), the dense layer's affine transform
(:mod:`~repro.autograd.ops_matmul`), 2-D convolution and max pooling
(:mod:`~repro.autograd.ops_conv`) -- and the neuron's fused timestep
(:func:`~repro.autograd.ops_spiking.fused_lif_step`), whose spike takes
its surrogate derivative (:mod:`repro.surrogate`) on the backward pass.

Example
-------
>>> from repro.autograd import Tensor
>>> import numpy as np
>>> x = Tensor(np.ones((2, 2)), requires_grad=True)
>>> y = (x * 2.0 + 1.0).mean()
>>> y.backward()
>>> x.grad.tolist()
[[0.5, 0.5], [0.5, 0.5]]
"""

from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled, zeros
from repro.autograd.function import Function, Context
from repro.autograd.ops_spiking import fused_lif_step

__all__ = [
    "Tensor",
    "Function",
    "Context",
    "fused_lif_step",
    "no_grad",
    "is_grad_enabled",
    "zeros",
]
