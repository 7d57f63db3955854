"""Tier-1 smoke guard for the runtime speedup benchmark.

Runs the same measurement code as ``benchmarks/bench_runtime_speedup.py``
at a minimal configuration, asserting the two execution paths stay
equivalent and the compiled plan is actually faster at sparse
activity.  Keeps the benchmark importable and the speedup claim under
continuous test without the benchmark suite's runtime cost.
"""

import numpy as np
import pytest

from repro.core.network import SpikingMLP
from repro.nn.module import Module
from repro.runtime.bench import make_reduced_cnn, make_spike_sequence, measure_speedup


def test_speedup_measurement_smoke():
    result = measure_speedup(density=0.1, num_steps=6, batch_size=4, repeats=3, seed=0)
    assert result.equivalent, "compiled plan diverged from the dense forward"
    assert result.density <= 0.15
    assert result.dense_seconds > 0 and result.runtime_seconds > 0
    # The full benchmark holds the 2x bar; here only require a genuine win
    # so a loaded CI box cannot flake the tier-1 suite.
    assert result.speedup > 1.0, f"runtime slower than dense path ({result.speedup:.2f}x)"


def test_speedup_measurement_on_mlp():
    model = SpikingMLP(in_features=64, hidden_units=32, seed=1)
    result = measure_speedup(model, density=0.05, num_steps=6, batch_size=4, repeats=2, seed=1)
    assert result.equivalent


def test_measure_speedup_accepts_explicit_spikes():
    model = make_reduced_cnn(seed=2)
    spikes = make_spike_sequence((2, 3, 16, 16), 0.1, 4, seed=2)
    result = measure_speedup(model, spikes=spikes, repeats=1, label="explicit")
    assert result.label == "explicit"
    assert result.equivalent
    assert np.isfinite(result.speedup)


def test_measure_speedup_needs_spikes_for_a_model_without_an_input_shape():
    with pytest.raises(ValueError, match="provide `spikes`"):
        measure_speedup(Module(), repeats=1)
