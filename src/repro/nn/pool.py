"""Pooling layer (non-overlapping max pooling)."""

from __future__ import annotations

from repro.autograd.tensor import Tensor
from repro.nn.module import Module


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride), the paper's ``MP2``.

    Takes NCHW input, or the phase-major layout of its window phases that
    :class:`~repro.core.network.SpikingCNN` gives ``pool1`` on a
    direct-coded sequence (:func:`repro.autograd.ops_conv.phase_views`).
    """

    def __init__(self, kernel_size: int = 2) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = int(kernel_size)

    def forward(self, x: Tensor) -> Tensor:
        return x.max_pool2d(self.kernel_size)

    def extra_repr(self) -> str:
        return f"kernel_size={self.kernel_size}"

