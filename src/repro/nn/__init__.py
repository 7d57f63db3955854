"""Neural-network layer library built on the autograd engine.

Provides the layers the paper's convolutional SNN is built from
(convolution, max pooling, dense, flatten) and the module base class that
holds them.  The API mirrors ``torch.nn`` so the model definitions read
naturally.
"""

from repro.nn.module import Module, Parameter
from repro.nn.linear import Linear
from repro.nn.conv import Conv2d
from repro.nn.pool import MaxPool2d
from repro.nn.flatten import Flatten
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "Flatten",
    "init",
]
