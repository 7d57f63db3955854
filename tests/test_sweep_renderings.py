"""Sweep renderings pinned to recorded digests, without training.

``fake_experiment`` stands in for ``run_experiment`` inside the executor:
it draws a record's accuracy and hardware metrics from an RNG seeded by the
cell's hyperparameters (never its label, which is cosmetic and differs
between sweeps), so a grid renders the same text on every run.  Each case
drives a front-end through ``repro.core`` and the executor's serial path
and compares a digest of the rendered report with one recorded from the
front-ends as they stood, so a rewrite of the sweep layer must keep every
figure byte-identical: the plots, the tables, their row order, and the
trade-off and firing-rate-shift summaries.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import (
    ExperimentConfig,
    ExperimentRecord,
    SCALE_PRESETS,
    format_adaptive_sweep,
    format_figure1,
    format_figure2,
    run_adaptive_threshold_sweep,
    run_beta_theta_sweep,
    run_surrogate_sweep,
)
from repro.exec import executor as executor_mod
from repro.hardware.efficiency import HardwareReport
from repro.surrogate import SurrogateFunction, register_surrogate

#: The config fields that seed a fake record.
HYPERPARAMETERS = (
    "surrogate",
    "surrogate_scale",
    "beta",
    "threshold",
    "encoder",
    "neuron",
    "adaptation_step",
    "adaptation_decay",
)


def fake_experiment(config, accelerator=None, verbose=False):
    """A deterministic record for ``config`` in place of training it."""
    cell = repr([getattr(config, name) for name in HYPERPARAMETERS]).encode()
    rng = np.random.default_rng(int.from_bytes(hashlib.sha256(cell).digest()[:8], "little"))
    accuracy, firing_rate, latency_ms, power_w = (
        float(v) for v in rng.uniform([0.4, 0.01, 0.05, 0.5], [0.5, 0.3, 2.0, 2.0])
    )
    fps = 1e3 / latency_ms
    hardware = HardwareReport(
        accuracy=accuracy,
        firing_rate=firing_rate,
        sparsity=1.0 - firing_rate,
        latency_ms=latency_ms,
        fps=fps,
        power_w=power_w,
        fps_per_watt=fps / power_w,
        energy_per_inference_mj=power_w * latency_ms,
    )
    return ExperimentRecord(
        config=config, accuracy=accuracy, training=None, sparsity_profile=None, hardware=hardware
    )


@pytest.fixture
def fake_training(monkeypatch):
    """Serve every executor cell from ``fake_experiment`` (serial path)."""
    monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    monkeypatch.setattr(executor_mod, "run_experiment", fake_experiment)
    return ExperimentConfig(scale=SCALE_PRESETS["smoke"])


CASES = {
    "figure1": lambda base: format_figure1(
        run_surrogate_sweep(scales=(0.5, 2.0, 8.0, 32.0), base_config=base)
    ),
    "figure2-budget-0.05": lambda base: format_figure2(
        run_beta_theta_sweep(betas=(0.25, 0.5, 0.7), thetas=(1.0, 1.5, 2.5), base_config=base),
        max_accuracy_loss=0.05,
    ),
    "figure2-budget-0": lambda base: format_figure2(
        run_beta_theta_sweep(betas=(0.25, 0.5, 0.7), thetas=(1.0, 1.5, 2.5), base_config=base),
        max_accuracy_loss=0.0,
    ),
    "adaptive": lambda base: format_adaptive_sweep(
        run_adaptive_threshold_sweep(adaptation_steps=(0.0, 0.2, 0.5), betas=(0.25, 0.5), base_config=base)
    ),
    "adaptive-no-baseline": lambda base: format_adaptive_sweep(
        run_adaptive_threshold_sweep(adaptation_steps=(0.2, 0.5), betas=(0.25, 0.5), base_config=base)
    ),
}

#: sha256 (first 16 hex digits) of each case's rendering.
DIGESTS = {
    "figure1": "6ea0ca5fc2096ac3",
    "figure2-budget-0.05": "3f087118505e96a6",
    "figure2-budget-0": "70ad6ee4af37cfc5",
    "adaptive": "9c4da4c69ff12b55",
    "adaptive-no-baseline": "ca1aeba662ed458d",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rendering_matches_recorded_digest(case, fake_training):
    text = CASES[case](fake_training)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == DIGESTS[case]


class _Boxcar(SurrogateFunction):
    """A surrogate outside the paper's two, registered only while a test runs."""

    name = "boxcar"


@pytest.mark.parametrize("surrogates", [("boxcar",), ("arctan",), ("fast_sigmoid",)])
def test_figure1_renders_without_both_paper_surrogates(surrogates, fake_training, surrogate_registry):
    """The fast-sigmoid-vs-arctangent line needs both; the rest renders for any registered surrogates."""
    register_surrogate(_Boxcar)
    sweep = run_surrogate_sweep(scales=(0.5, 8.0), surrogates=surrogates, base_config=fake_training)
    text = format_figure1(sweep)
    assert "Figure 1a" in text and "Figure 1 data" in text
    assert all(name in text for name in surrogates)
    assert "fast sigmoid vs arctangent" not in text
