"""Integer plans pinned to recorded spike trains.

The int8/int16 plans execute exact integer arithmetic on float carriers, so
their spike trains do not depend on the BLAS kernel family, and any change
to how a neuron kernel charges, leaks, rounds, fires or resets shows up as
a different train.  The other integer tests only check replay determinism
and agreement with the fp64 reference; this one hashes every spiking
layer's train, the output counts and each neuron kernel's final membrane
(values, dtype and shape: the membrane pins the carrier each layer picked
and every rounding, which a one-unit error rarely shows in the trains) and
compares them with digests recorded from the kernels as they stood.

The grid covers every substrate x {rate, direct} x two (beta, theta)
pairs x both integer precisions, for a small CNN and MLP.  It includes
LIF without a leak (beta = 1 at both thresholds), and the adaptive neuron
at step 0 (its threshold increment rounds to zero) and at decay 1 (an
unbounded trace), and both together.  Every substrate's state lands on
both carriers or is forced to float64: no leak and decay 1 always take
float64, and beta = 0.95 puts the direct-coded first layers there, the
int16 CNN's with an integer threshold above 2**24.  Weights are doubled
so the deeper layers fire.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.core.network import SpikingCNN, SpikingMLP
from repro.encoding import DirectEncoder, RateEncoder
from repro.runtime import compile_network, default_input_scale

#: Case name -> (substrate, substrate parameters, beta or None for the grid's).
SUBSTRATES = {
    "lif": ("lif", {}, None),
    "no-leak": ("lif", {}, 1.0),
    "adaptive": ("adaptive", {"adaptation_step": 0.3, "adaptation_decay": 0.8}, None),
    "adaptive-step0": ("adaptive", {"adaptation_step": 0.0, "adaptation_decay": 0.8}, None),
    "adaptive-decay1": ("adaptive", {"adaptation_step": 0.3, "adaptation_decay": 1.0}, None),
    "adaptive-step0-decay1": ("adaptive", {"adaptation_step": 0.0, "adaptation_decay": 1.0}, None),
}
BETA_THETA = ((0.5, 1.0), (0.95, 2.0))
ENCODERS = ("rate", "direct")
PRECISIONS = ("int8", "int16")
NUM_STEPS = 6

#: sha256 (first 16 hex digits) of each (model, case) over the grid above.
DIGESTS = {
    ("cnn", "lif"): "d56af163dc7a8b49",
    ("cnn", "no-leak"): "ce3ab6d6a6a7a542",
    ("cnn", "adaptive"): "a33c20e78f3d6317",
    ("cnn", "adaptive-step0"): "d56af163dc7a8b49",
    ("cnn", "adaptive-decay1"): "9d6e190de5b0979b",
    ("cnn", "adaptive-step0-decay1"): "3fe8417e09aba749",
    ("mlp", "lif"): "2a7b6ec287db1d45",
    ("mlp", "no-leak"): "7a7ebd22fd8824f0",
    ("mlp", "adaptive"): "0fdf84b2fe15aa56",
    ("mlp", "adaptive-step0"): "2a7b6ec287db1d45",
    ("mlp", "adaptive-decay1"): "3b98e9a410f6b02e",
    ("mlp", "adaptive-step0-decay1"): "f388bd41664c6c5b",
}


def _model(kind: str, neuron: str, params: dict, beta: float, threshold: float):
    if kind == "cnn":
        model = SpikingCNN(
            image_size=8, conv_channels=(3, 4), hidden_units=16, beta=beta,
            threshold=threshold, seed=7, neuron=neuron, neuron_params=params,
        )
    else:
        model = SpikingMLP(
            in_features=12, hidden_units=10, num_classes=4, beta=beta,
            threshold=threshold, seed=3, neuron=neuron, neuron_params=params,
        )
    for param in model.parameters():
        param.data *= 2.0
    return model


def _update(digest, label: str, array: np.ndarray) -> None:
    digest.update(f"{label}:{array.dtype.str}:{array.shape}".encode())
    digest.update(np.ascontiguousarray(array).tobytes())


def plan_digest(kind: str, case: str) -> str:
    """Hash the integer plans' spike trains, counts and membranes over the grid."""
    images = np.random.default_rng(2024).random(
        (8, 3, 8, 8) if kind == "cnn" else (8, 12), dtype=np.float32
    )
    neuron, params, fixed_beta = SUBSTRATES[case]
    digest = hashlib.sha256()
    for (beta, threshold), encoder_name, precision in itertools.product(BETA_THETA, ENCODERS, PRECISIONS):
        beta = beta if fixed_beta is None else fixed_beta
        encoder = (
            RateEncoder(num_steps=NUM_STEPS, seed=11)
            if encoder_name == "rate"
            else DirectEncoder(num_steps=NUM_STEPS)
        )
        plan = compile_network(
            _model(kind, neuron, params, beta, threshold),
            precision=precision,
            input_scale=default_input_scale(encoder),
        )
        result = plan.run(encoder(images), collect_spike_trains=True)
        cell = f"{beta}/{threshold}/{encoder_name}/{precision}"
        for name in sorted(result.spike_trains):
            _update(digest, f"{cell}/{name}", result.spike_trains[name])
        _update(digest, f"{cell}/counts", result.counts)
        for kernel in plan.kernels:
            if kernel.is_spiking_stage:
                _update(digest, f"{cell}/{kernel.name}/membrane", kernel.mem)
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("kind,case", sorted(DIGESTS))
def test_integer_plans_match_recorded_digest(kind, case):
    assert plan_digest(kind, case) == DIGESTS[(kind, case)]
