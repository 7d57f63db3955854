"""The paper's convolutional spiking network (32C3-MP2-32C3-MP2-256-10).

:class:`SpikingCNN` builds the topology at any width (its defaults are the
paper's; tests and benchmarks run reduced versions) with per-layer LIF
neurons whose ``beta``, ``threshold`` and surrogate are the hyperparameters
the paper sweeps.  :class:`SpikingMLP` is a small fully connected variant used by unit
tests and the quickstart example.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.encoding.base import is_time_invariant
from repro.neurons.factory import build_neuron
from repro.nn.conv import Conv2d
from repro.nn.flatten import Flatten
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.pool import MaxPool2d
from repro.surrogate.base import SurrogateFunction
from repro.surrogate.registry import get_surrogate


class SpikingCNN(Module):
    """Convolutional SNN with the paper's ``XC3-MP2-XC3-MP2-H-10`` topology.

    Forward input is a spike sequence of shape ``(T, N, C, H, W)``; the
    output is the per-class spike count accumulated over the ``T`` timesteps,
    shape ``(N, num_classes)`` — the quantity both the loss and the
    classification decision use.

    Parameters
    ----------
    image_size:
        Input spatial size (SVHN: 32).  Must be divisible by 4.
    in_channels:
        Input channels (RGB: 3).
    conv_channels:
        Channel widths of the two convolutional blocks (paper: ``(32, 32)``).
    hidden_units:
        Width of the dense hidden layer (paper: 256).
    num_classes:
        Output classes (paper: 10).
    beta, threshold:
        LIF hyperparameters applied to every spiking layer.
    surrogate:
        A :class:`~repro.surrogate.SurrogateFunction` instance shared by all
        layers, or ``None`` to construct one from ``surrogate_name`` /
        ``surrogate_scale``.
    surrogate_name, surrogate_scale:
        Registry name and derivative scale used when ``surrogate`` is None.
    seed:
        Weight-initialisation seed.
    neuron, neuron_params:
        Spiking substrate applied to every firing layer — a name from
        :data:`~repro.neurons.factory.NEURON_TYPES` (default ``"lif"``, the
        paper's model) plus its substrate-specific parameters (see
        :data:`~repro.neurons.factory.NEURON_PARAM_DEFAULTS`).
    """

    def __init__(
        self,
        image_size: int = 32,
        in_channels: int = 3,
        conv_channels: Tuple[int, int] = (32, 32),
        hidden_units: int = 256,
        num_classes: int = 10,
        beta: float = 0.25,
        threshold: float = 1.0,
        surrogate: Optional[SurrogateFunction] = None,
        surrogate_name: str = "fast_sigmoid",
        surrogate_scale: float = 25.0,
        seed: int = 0,
        neuron: str = "lif",
        neuron_params: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__()
        if image_size % 4 != 0:
            raise ValueError("image_size must be divisible by 4 (two pooling stages)")
        if surrogate is None:
            surrogate = get_surrogate(surrogate_name, surrogate_scale)
        rng = np.random.default_rng(seed)

        c1, c2 = conv_channels
        self.image_size = int(image_size)
        self.in_channels = int(in_channels)
        self.conv_channels = (int(c1), int(c2))
        self.hidden_units = int(hidden_units)
        self.num_classes = int(num_classes)
        self.beta = float(beta)
        self.threshold = float(threshold)
        self.surrogate = surrogate
        self.neuron = str(neuron)

        def fire():
            # Spiking layers are stateful: every firing site gets its own
            # fresh instance of the selected substrate.
            return build_neuron(
                neuron, beta=beta, threshold=threshold, surrogate=surrogate, params=neuron_params
            )

        self.conv1 = Conv2d(in_channels, c1, kernel_size=3, padding=1, rng=rng)
        self.lif1 = fire()
        self.pool1 = MaxPool2d(2)
        self.conv2 = Conv2d(c1, c2, kernel_size=3, padding=1, rng=rng)
        self.lif2 = fire()
        self.pool2 = MaxPool2d(2)
        self.flatten = Flatten()
        feature_size = c2 * (image_size // 4) * (image_size // 4)
        self.fc1 = Linear(feature_size, hidden_units, rng=rng)
        self.lif3 = fire()
        self.fc2 = Linear(hidden_units, num_classes, rng=rng)
        self.lif_out = fire()

    # ------------------------------------------------------------------ #
    @property
    def input_shape(self) -> Tuple[int, int, int]:
        """Shape of one input image, ``(in_channels, image_size, image_size)``."""
        return (self.in_channels, self.image_size, self.image_size)

    def step(self, frame: Tensor) -> Tensor:
        """Process one timestep frame of shape ``(N, C, H, W)``; returns output spikes."""
        return self._after_conv1(self.conv1(frame))

    def _after_conv1(self, x: Tensor) -> Tensor:
        """The rest of a timestep, from conv1's output ``x`` on."""
        x = self.lif1(x)
        x = self.pool1(x)
        x = self.conv2(x)
        x = self.lif2(x)
        x = self.pool2(x)
        x = self.flatten(x)
        x = self.fc1(x)
        x = self.lif3(x)
        x = self.fc2(x)
        return self.lif_out(x)

    def forward(self, spike_sequence: Tensor) -> Tensor:
        """Accumulate output spike counts over the whole sequence ``(T, N, ...)``.

        A sequence that repeats one frame (direct coding) and needs no
        input gradient gets one conv1 node, whose read-only output feeds
        ``lif1`` at every step: the engine sums its ``T`` output gradients,
        so conv1's backward is one product instead of ``T``.
        """
        if spike_sequence.ndim != 5 or spike_sequence.shape[0] == 0:
            raise ValueError(
                "SpikingCNN expects input of shape (T, N, C, H, W) with T >= 1, "
                f"got {spike_sequence.shape}"
            )
        num_steps = spike_sequence.shape[0]
        conv1_out: Optional[Tensor] = None
        if not spike_sequence.requires_grad and is_time_invariant(spike_sequence.data):
            conv1_out = self.conv1(spike_sequence[0])
            conv1_out.data.flags.writeable = False
        counts: Optional[Tensor] = None
        for t in range(num_steps):
            out_spikes = self.step(spike_sequence[t]) if conv1_out is None else self._after_conv1(conv1_out)
            counts = out_spikes if counts is None else counts + out_spikes
        return counts

    # ------------------------------------------------------------------ #
    def spiking_layer_names(self) -> List[str]:
        """Names of the spiking layers, in execution order."""
        return ["lif1", "lif2", "lif3", "lif_out"]

    def layer_specs(self) -> List[Dict]:
        """Architecture description consumed by the hardware workload builder.

        Each entry describes one weight layer; the associated spiking layer's
        name (``firing_layer``) tells the workload builder which measured
        firing rate provides that layer's *output* events.
        """
        size = self.image_size
        half = size // 2
        quarter = size // 4
        c1, c2 = self.conv_channels
        return [
            {
                "name": "conv1",
                "kind": "conv",
                "in_channels": self.in_channels,
                "out_channels": c1,
                "kernel_size": 3,
                "out_h": size,
                "out_w": size,
                "firing_layer": "lif1",
            },
            {
                "name": "conv2",
                "kind": "conv",
                "in_channels": c1,
                "out_channels": c2,
                "kernel_size": 3,
                "out_h": half,
                "out_w": half,
                "firing_layer": "lif2",
            },
            {
                "name": "fc1",
                "kind": "fc",
                "in_features": c2 * quarter * quarter,
                "out_features": self.hidden_units,
                "firing_layer": "lif3",
            },
            {
                "name": "fc2",
                "kind": "fc",
                "in_features": self.hidden_units,
                "out_features": self.num_classes,
                "firing_layer": "lif_out",
            },
        ]

    def extra_repr(self) -> str:
        c1, c2 = self.conv_channels
        return (
            f"{c1}C3-MP2-{c2}C3-MP2-{self.hidden_units}-{self.num_classes}, "
            f"image_size={self.image_size}, beta={self.beta}, threshold={self.threshold}"
        )


class SpikingMLP(Module):
    """Small fully connected SNN (input - hidden LIF - output LIF).

    Used by unit tests, the quickstart example and the substrate
    micro-benchmarks where the convolutional network would be overkill.
    """

    def __init__(
        self,
        in_features: int,
        hidden_units: int = 64,
        num_classes: int = 10,
        beta: float = 0.25,
        threshold: float = 1.0,
        surrogate: Optional[SurrogateFunction] = None,
        surrogate_name: str = "fast_sigmoid",
        surrogate_scale: float = 25.0,
        seed: int = 0,
        neuron: str = "lif",
        neuron_params: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__()
        if surrogate is None:
            surrogate = get_surrogate(surrogate_name, surrogate_scale)
        rng = np.random.default_rng(seed)
        self.in_features = int(in_features)
        self.hidden_units = int(hidden_units)
        self.num_classes = int(num_classes)
        self.neuron = str(neuron)
        self.fc1 = Linear(in_features, hidden_units, rng=rng)
        self.lif1 = build_neuron(
            neuron, beta=beta, threshold=threshold, surrogate=surrogate, params=neuron_params
        )
        self.fc2 = Linear(hidden_units, num_classes, rng=rng)
        self.lif_out = build_neuron(
            neuron, beta=beta, threshold=threshold, surrogate=surrogate, params=neuron_params
        )

    @property
    def input_shape(self) -> Tuple[int]:
        """Shape of one input image, ``(in_features,)``; wider frames are flattened."""
        return (self.in_features,)

    def step(self, frame: Tensor) -> Tensor:
        """One timestep on a flat frame of shape ``(N, in_features)``."""
        x = self.fc1(frame)
        x = self.lif1(x)
        x = self.fc2(x)
        return self.lif_out(x)

    def forward(self, spike_sequence: Tensor) -> Tensor:
        if spike_sequence.ndim < 3:
            raise ValueError(
                f"SpikingMLP expects input of shape (T, N, features...), got {spike_sequence.shape}"
            )
        num_steps = spike_sequence.shape[0]
        counts: Optional[Tensor] = None
        for t in range(num_steps):
            frame = spike_sequence[t]
            if frame.ndim > 2:
                frame = frame.flatten()
            out_spikes = self.step(frame)
            counts = out_spikes if counts is None else counts + out_spikes
        return counts

    def spiking_layer_names(self) -> List[str]:
        return ["lif1", "lif_out"]

    def layer_specs(self) -> List[Dict]:
        """Architecture description for the hardware workload builder."""
        return [
            {
                "name": "fc1",
                "kind": "fc",
                "in_features": self.in_features,
                "out_features": self.hidden_units,
                "firing_layer": "lif1",
            },
            {
                "name": "fc2",
                "kind": "fc",
                "in_features": self.hidden_units,
                "out_features": self.num_classes,
                "firing_layer": "lif_out",
            },
        ]

    def extra_repr(self) -> str:
        return f"{self.in_features}-{self.hidden_units}-{self.num_classes}"

