"""2-D convolution layer."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd import ops_conv
from repro.autograd.ops_conv import conv_output_shape
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter


class Conv2d(Module):
    """2-D cross-correlation over NCHW inputs with square kernels.

    The paper's network uses two ``32C3`` blocks (32 filters of size 3x3,
    stride 1, 'same' padding 1).

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Square kernel side length.
    stride, padding:
        Convolution stride and symmetric zero padding.
    bias:
        Whether to learn a per-channel bias.
    rng:
        Optional generator for deterministic initialisation.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0 or padding < 0:
            raise ValueError("invalid Conv2d hyperparameters")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        gen = rng if rng is not None else np.random.default_rng()
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, gen))
        fan_in = in_channels * kernel_size * kernel_size
        if bias:
            self.bias: Optional[Parameter] = Parameter(init.bias_uniform((out_channels,), fan_in, gen))
        else:
            self.bias = None

    def output_shape(self, h: int, w: int) -> Tuple[int, int]:
        """Spatial output size for an input of size ``(h, w)``."""
        return conv_output_shape(h, w, self.kernel_size, self.stride, self.padding)

    def forward(self, x: Tensor) -> Tensor:
        """Convolve NCHW ``x``."""
        return ops_conv.Conv2d.apply(x, self.weight, self.bias, self.stride, self.padding)

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}, bias={self.bias is not None}"
        )
