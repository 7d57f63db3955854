"""Experiment configuration and reproduction-scale presets."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class ReproScale:
    """How large the reproduction run is.

    The paper trains the full 32C3-MP2-32C3-MP2-256-10 network on 73k SVHN
    images for 25 epochs; that is far beyond what a pure-NumPy engine can do
    inside a test/benchmark budget.  A :class:`ReproScale` shrinks the
    network width, dataset and schedule while keeping every mechanism (the
    topology shape, LIF dynamics, BPTT, hardware mapping) intact, so the
    trade-off *shapes* the paper reports are preserved.

    Attributes
    ----------
    name:
        Preset name.
    image_size:
        Square input image size.
    conv_channels:
        Channels of the two convolutional blocks.
    hidden_units:
        Width of the dense hidden layer.
    num_steps:
        Simulation timesteps per inference.
    train_samples / test_samples:
        Synthetic dataset sizes.
    epochs:
        Training epochs.
    batch_size:
        Mini-batch size.
    """

    name: str
    image_size: int
    conv_channels: Tuple[int, int]
    hidden_units: int
    num_steps: int
    train_samples: int
    test_samples: int
    epochs: int
    batch_size: int

    def __post_init__(self) -> None:
        if self.image_size % 4 != 0:
            raise ValueError("image_size must be divisible by 4 (two 2x2 pooling stages)")
        if min(self.conv_channels) <= 0 or self.hidden_units <= 0:
            raise ValueError("network widths must be positive")
        if min(self.num_steps, self.train_samples, self.test_samples, self.epochs, self.batch_size) <= 0:
            raise ValueError("scale counts must be positive")


#: Named scale presets.  ``smoke`` is for unit tests, ``bench`` for the
#: benchmark harness, ``paper`` approaches the published configuration.
SCALE_PRESETS: Dict[str, ReproScale] = {
    "smoke": ReproScale(
        name="smoke",
        image_size=8,
        conv_channels=(4, 4),
        hidden_units=32,
        num_steps=4,
        train_samples=64,
        test_samples=32,
        epochs=2,
        batch_size=16,
    ),
    "bench": ReproScale(
        name="bench",
        image_size=16,
        conv_channels=(8, 8),
        hidden_units=64,
        num_steps=6,
        train_samples=256,
        test_samples=96,
        epochs=15,
        batch_size=32,
    ),
    "full": ReproScale(
        name="full",
        image_size=32,
        conv_channels=(16, 16),
        hidden_units=128,
        num_steps=10,
        train_samples=2000,
        test_samples=500,
        epochs=10,
        batch_size=32,
    ),
    "paper": ReproScale(
        name="paper",
        image_size=32,
        conv_channels=(32, 32),
        hidden_units=256,
        num_steps=25,
        train_samples=20000,
        test_samples=4000,
        epochs=25,
        batch_size=128,
    ),
}


def resolve_scale(name: Optional[str] = None) -> ReproScale:
    """Resolve a scale preset by name or from the ``REPRO_SCALE`` env var.

    Priority: explicit ``name`` argument, then ``REPRO_SCALE`` environment
    variable, then ``"bench"``.
    """
    key = name or os.environ.get("REPRO_SCALE", "bench")
    key = key.lower()
    if key not in SCALE_PRESETS:
        raise KeyError(f"unknown scale '{key}'; available: {sorted(SCALE_PRESETS)}")
    return SCALE_PRESETS[key]


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one training + hardware-evaluation run.

    The defaults correspond to the paper's *default setting*: fast-sigmoid
    surrogate at slope 0.25 (the operating point the paper selects for its
    cross-sweep), ``beta = 0.25``, ``theta = 1.0`` (Sec. III-B), cosine
    annealing over the configured number of epochs, Adam, and direct
    (constant-current) presentation of the static images — the standard
    snnTorch practice for frame datasets; the rate and latency encoders are
    exercised by the encoding ablation.

    Attributes
    ----------
    surrogate:
        Registered surrogate name: ``"arctan"``, ``"fast_sigmoid"`` or one
        a caller registered (:func:`repro.surrogate.register_surrogate`).
    surrogate_scale:
        Derivative scaling factor (the paper's ``alpha`` / ``k``).
    beta:
        Membrane leak factor.
    threshold:
        Membrane firing threshold ``theta``.
    encoder:
        Input encoder name (``"rate"``, ``"latency"`` or ``"direct"``).
    learning_rate:
        Adam learning rate.
    loss:
        ``"ce_count"`` (cross-entropy on spike counts) or ``"mse_count"``.
    seed:
        Seed controlling dataset generation, weight init and encoding.
    scale:
        The :class:`ReproScale` preset governing sizes.
    label:
        Optional free-form label used in reports.
    neuron:
        Spiking substrate name for every firing layer: ``"lif"`` (the
        paper's model, default; ``beta = 1`` has no leak) or ``"adaptive"``
        (see :mod:`repro.neurons.factory`).
    adaptation_step, adaptation_decay:
        Adaptive-threshold parameters, used when ``neuron="adaptive"``.
    """

    surrogate: str = "fast_sigmoid"
    surrogate_scale: float = 0.25
    beta: float = 0.25
    threshold: float = 1.0
    encoder: str = "direct"
    learning_rate: float = 5e-3
    loss: str = "ce_count"
    seed: int = 0
    scale: ReproScale = field(default_factory=lambda: SCALE_PRESETS["bench"])
    label: str = ""
    neuron: str = "lif"
    adaptation_step: float = 0.2
    adaptation_decay: float = 0.9

    def __post_init__(self) -> None:
        # Written so that NaN fails: every comparison with NaN is false.
        if not self.surrogate_scale > 0:
            raise ValueError("surrogate_scale must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.loss not in ("ce_count", "mse_count"):
            raise ValueError("loss must be 'ce_count' or 'mse_count'")
        # Local tuples rather than the neuron factory and make_encoder:
        # config must stay importable without pulling in the neuron,
        # encoding or autograd stack.
        encoders = ("rate", "latency", "direct")
        if self.encoder.lower() not in encoders:
            raise ValueError(f"encoder must be one of {encoders}, got '{self.encoder}'")
        neurons = ("lif", "adaptive")
        if self.neuron not in neurons:
            raise ValueError(f"neuron must be one of {neurons}, got '{self.neuron}'")
        if not self.adaptation_step >= 0:
            raise ValueError("adaptation_step must be non-negative")
        if not 0.0 <= self.adaptation_decay <= 1.0:
            raise ValueError("adaptation_decay must lie in [0, 1]")

    def neuron_params(self) -> Dict[str, float]:
        """Substrate-specific parameters for :func:`~repro.neurons.factory.build_neuron`.

        Only the fields the selected substrate actually consumes are
        included, so ``lif`` configs map to an empty dict no matter what the
        adaptive fields hold.
        """
        if self.neuron == "adaptive":
            return {
                "adaptation_step": self.adaptation_step,
                "adaptation_decay": self.adaptation_decay,
            }
        return {}

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """Short human-readable description for tables and logs."""
        label = self.label or (
            f"{self.surrogate}(scale={self.surrogate_scale:g}) "
            f"beta={self.beta:g} theta={self.threshold:g}"
        )
        if not self.label and self.neuron != "lif":
            label += f" neuron={self.neuron}"
        return label


#: The paper's default training setting (Sec. III-B): beta=0.25, theta=1.0.
PAPER_DEFAULT = ExperimentConfig(label="paper-default")

#: The paper's latency-optimal point from the Figure 2 cross-sweep.
PAPER_LATENCY_OPTIMAL = ExperimentConfig(
    surrogate="fast_sigmoid",
    surrogate_scale=0.25,
    beta=0.5,
    threshold=1.5,
    label="beta=0.5, theta=1.5 (latency-optimal)",
)

#: The configuration the paper compares against prior work [6]:
#: beta=0.7, theta=1.5, fast sigmoid.
PAPER_COMPARISON_POINT = ExperimentConfig(
    surrogate="fast_sigmoid",
    surrogate_scale=0.25,
    beta=0.7,
    threshold=1.5,
    label="beta=0.7, theta=1.5 (vs prior work)",
)
