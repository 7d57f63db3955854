"""Neural-network layer library built on the autograd engine.

Provides the minimal-yet-complete set of layers the paper's convolutional
SNN needs (convolution, pooling, dense, flatten) plus the usual extras
(dropout, batch norm) used by the extension experiments.  The API mirrors
``torch.nn`` so the model definitions read naturally.
"""

from repro.nn.module import Module, Parameter
from repro.nn.linear import Linear
from repro.nn.conv import Conv2d
from repro.nn.pool import MaxPool2d
from repro.nn.flatten import Flatten
from repro.nn.dropout import Dropout
from repro.nn.batchnorm import BatchNorm2d
from repro.nn.sequential import Sequential
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "Flatten",
    "Dropout",
    "BatchNorm2d",
    "Sequential",
    "init",
]
