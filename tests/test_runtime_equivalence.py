"""Equivalence of the compiled plan with the dense forward pass.

The runtime's contract is that its sparsity-exploiting execution is an
*optimisation*, never an approximation: for any input sequence, every
spiking layer must emit a bitwise-identical spike train and the accumulated
output counts must match the dense ``model.forward`` exactly.
"""

import numpy as np
import pytest

from conftest import dense_forward_with_trains
from repro.autograd.tensor import Tensor, no_grad
from repro.core.network import SpikingCNN, SpikingMLP
from repro.runtime import LinearKernel, compile_network, run_inference


def make_spikes(shape, density, num_steps, seed):
    rng = np.random.default_rng(seed)
    return (rng.random((num_steps,) + shape) < density).astype(np.float32)


DENSITIES = [0.0, 0.02, 0.1, 0.5, 1.0]
SEEDS = [0, 1, 2]


class TestCNNEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_spike_trains_and_counts_identical(self, seed, density):
        model = SpikingCNN(image_size=8, conv_channels=(4, 4), hidden_units=16, seed=seed)
        model.eval()
        spikes = make_spikes((2, 3, 8, 8), density, num_steps=5, seed=seed + 100)
        dense_counts, dense_trains = dense_forward_with_trains(model, spikes)
        result = compile_network(model).run(spikes, collect_spike_trains=True)
        assert np.array_equal(dense_counts, result.counts)
        assert set(result.spike_trains) == set(dense_trains)
        for name, train in dense_trains.items():
            assert np.array_equal(train, result.spike_trains[name]), f"spike train differs in {name}"

    def test_all_zero_input_counts_match(self):
        """Silent input exercises the bias-only fast paths of every layer."""
        model = SpikingCNN(image_size=8, conv_channels=(4, 4), hidden_units=16, seed=7)
        model.eval()
        spikes = np.zeros((6, 3, 3, 8, 8), dtype=np.float32)
        dense_counts, dense_trains = dense_forward_with_trains(model, spikes)
        result = compile_network(model).run(spikes, collect_spike_trains=True)
        assert np.array_equal(dense_counts, result.counts)
        for name, train in dense_trains.items():
            assert np.array_equal(train, result.spike_trains[name])

    def test_all_one_input_counts_match(self):
        """Saturated input degenerates to the dense path and must still agree."""
        model = SpikingCNN(image_size=8, conv_channels=(4, 4), hidden_units=16, seed=8)
        model.eval()
        spikes = np.ones((4, 2, 3, 8, 8), dtype=np.float32)
        dense_counts, _ = dense_forward_with_trains(model, spikes)
        result = compile_network(model).run(spikes)
        assert np.array_equal(dense_counts, result.counts)

    def test_graded_input_currents(self):
        """Direct-encoded (non-binary) inputs must also be handled exactly."""
        model = SpikingCNN(image_size=8, conv_channels=(4, 4), hidden_units=16, seed=4)
        model.eval()
        rng = np.random.default_rng(11)
        spikes = (rng.random((4, 2, 3, 8, 8)) * (rng.random((4, 2, 3, 8, 8)) < 0.3)).astype(np.float32)
        dense_counts, _ = dense_forward_with_trains(model, spikes)
        result = compile_network(model).run(spikes)
        assert np.array_equal(dense_counts, result.counts)


class TestMLPEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_spike_trains_and_counts_identical(self, seed, density):
        model = SpikingMLP(in_features=24, hidden_units=12, seed=seed)
        model.eval()
        spikes = make_spikes((3, 24), density, num_steps=6, seed=seed + 50)
        dense_counts, dense_trains = dense_forward_with_trains(model, spikes)
        result = compile_network(model).run(spikes, collect_spike_trains=True)
        assert np.array_equal(dense_counts, result.counts)
        for name, train in dense_trains.items():
            assert np.array_equal(train, result.spike_trains[name]), f"spike train differs in {name}"

    def test_unflattened_input_is_flattened_like_dense_path(self):
        """(T, N, C, H, W) input to the MLP must match the dense auto-flatten."""
        model = SpikingMLP(in_features=2 * 3 * 4, hidden_units=8, seed=9)
        model.eval()
        spikes = make_spikes((2, 2, 3, 4), 0.3, num_steps=4, seed=13)
        model.reset_spiking_state()
        with no_grad():
            dense_counts = model(Tensor(spikes)).data
        result = compile_network(model).run(spikes)
        assert np.array_equal(dense_counts, result.counts)


class TestRuntimeBehaviour:
    def test_run_inference_convenience(self):
        model = SpikingMLP(in_features=16, hidden_units=8, seed=2)
        model.eval()
        spikes = make_spikes((2, 16), 0.2, num_steps=3, seed=1)
        result = run_inference(model, spikes)
        assert result.counts.shape == (2, 10)
        assert result.predictions().shape == (2,)

    def test_repeated_runs_are_stateless(self):
        """Membrane state must reset between runs (same input, same output)."""
        model = SpikingMLP(in_features=16, hidden_units=8, seed=2)
        model.eval()
        compiled = compile_network(model)
        spikes = make_spikes((2, 16), 0.4, num_steps=5, seed=3)
        first = compiled.run(spikes).counts
        second = compiled.run(spikes).counts
        assert np.array_equal(first, second)

    def test_varying_batch_size_reuses_plan(self):
        """A compiled plan must survive batch-size changes between runs."""
        model = SpikingCNN(image_size=8, conv_channels=(4, 4), hidden_units=16, seed=1)
        model.eval()
        compiled = compile_network(model)
        for batch in (4, 1, 3):
            spikes = make_spikes((batch, 3, 8, 8), 0.2, num_steps=3, seed=batch)
            dense_counts, _ = dense_forward_with_trains(model, spikes)
            assert np.array_equal(dense_counts, compiled.run(spikes).counts)

    def test_weight_updates_are_picked_up_without_recompiling(self):
        """Kernels reference live parameters; load_state_dict must take effect."""
        model = SpikingMLP(in_features=16, hidden_units=8, seed=2)
        model.eval()
        compiled = compile_network(model)
        spikes = make_spikes((2, 16), 0.3, num_steps=4, seed=6)
        before = compiled.run(spikes).counts.copy()
        state = model.state_dict()
        state["fc1.weight"] = state["fc1.weight"] * 5.0
        model.load_state_dict(state)
        dense_counts, _ = dense_forward_with_trains(model, spikes)
        after = compiled.run(spikes).counts
        assert np.array_equal(dense_counts, after)
        assert not np.array_equal(before, after)

    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize(
        "out_features,in_features,batch", [(64, 128, 4), (256, 2048, 2)], ids=["bench-fc1", "paper-fc1"]
    )
    def test_linear_kernel_equals_autograd_op(self, out_features, in_features, batch, density):
        # One BLAS call on the autograd op's own arrays, at the benchmark
        # CNN's width and the paper's, sparse or not; a silent frame yields
        # the same bias row.
        rng = np.random.default_rng(17)
        weight = rng.standard_normal((out_features, in_features)).astype(np.float32)
        bias = rng.standard_normal(out_features).astype(np.float32)
        kernel = LinearKernel("fc1", weight, bias)
        kernel.prepare()
        frame = (rng.random((batch, in_features)) < density).astype(np.float32)
        dense = Tensor(frame).linear(Tensor(weight), Tensor(bias)).data
        np.testing.assert_array_equal(kernel.run(frame), dense)

    @pytest.mark.parametrize("precision", ["fp32", "int8"])
    @pytest.mark.parametrize("shape", [(8,), (0, 2, 8)], ids=["no-time-axis", "empty-time-axis"])
    def test_rejects_malformed_input(self, precision, shape):
        model = SpikingMLP(in_features=8, hidden_units=4, seed=0)
        compiled = compile_network(model, precision=precision)
        with pytest.raises(ValueError):
            compiled.run(np.zeros(shape, dtype=np.float32))
