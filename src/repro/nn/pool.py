"""Pooling layer (non-overlapping max pooling)."""

from __future__ import annotations

from repro.autograd.tensor import Tensor
from repro.nn.module import Module


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride), the paper's ``MP2``."""

    def __init__(self, kernel_size: int = 2) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = int(kernel_size)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"MaxPool2d expects NCHW input, got shape {x.shape}")
        return x.max_pool2d(self.kernel_size)

    def extra_repr(self) -> str:
        return f"kernel_size={self.kernel_size}"

