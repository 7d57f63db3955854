"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ExperimentConfig, SCALE_PRESETS


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def smoke_config() -> ExperimentConfig:
    """Smallest end-to-end experiment configuration (for integration tests)."""
    return ExperimentConfig(scale=SCALE_PRESETS["smoke"], seed=0)


@pytest.fixture
def micro_scale():
    """Sub-smoke scale for tests that train several configurations.

    The executor/cache tests run whole (tiny) sweeps repeatedly; at this
    scale one end-to-end experiment takes a fraction of a second.
    """
    from repro.core.config import ReproScale

    return ReproScale(
        name="micro",
        image_size=8,
        conv_channels=(2, 2),
        hidden_units=8,
        num_steps=2,
        train_samples=16,
        test_samples=8,
        epochs=1,
        batch_size=8,
    )


def dense_forward_with_trains(model, spikes: np.ndarray):
    """Run the dense forward, capturing each spiking layer's full train.

    Wraps every spiking layer's ``forward`` for the duration of one
    ``no_grad`` pass and stacks its per-timestep outputs, so the result is
    ``(counts, {layer name: (T, N, ...) spike train})`` — the dense
    reference the compiled runtime must reproduce bit for bit.  Import it
    with ``from conftest import dense_forward_with_trains``.
    """
    from repro.autograd.tensor import Tensor, no_grad
    from repro.neurons.base import SpikingNeuron

    layers = {name: module for name, module in model.named_modules() if isinstance(module, SpikingNeuron)}
    trains = {name: [] for name in layers}

    def capture(name, forward):
        def recorded(synaptic_input):
            spikes_out = forward(synaptic_input)
            trains[name].append(spikes_out.data.copy())
            return spikes_out

        return recorded

    for name, layer in layers.items():
        layer.forward = capture(name, layer.forward)
    try:
        model.reset_spiking_state()
        with no_grad():
            counts = model(Tensor(spikes)).data
    finally:
        for layer in layers.values():
            del layer.forward
    return counts, {name: np.stack(steps) for name, steps in trains.items()}


def make_tensor(rng: np.random.Generator, *shape, requires_grad: bool = True, dtype=np.float64):
    """Create a float64 tensor with standard-normal data (for gradchecks)."""
    from repro.autograd import Tensor

    return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=requires_grad)
