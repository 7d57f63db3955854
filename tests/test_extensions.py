"""Tests for the extension substrates: adaptive-threshold LIF and weight quantization."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core.network import SpikingMLP
from repro.hardware.quantization import (
    QuantizationConfig,
    QuantizationReport,
    quantize_array,
    quantize_array_int,
    quantize_model,
)
from repro.neurons import AdaptiveLIF, LIF


class TestAdaptiveLIF:
    def test_threshold_rises_after_spiking(self):
        neuron = AdaptiveLIF(beta=0.5, threshold=1.0, adaptation_step=0.5, adaptation_decay=1.0)
        neuron.step(Tensor([[2.0]]))  # spikes
        theta_eff = neuron.effective_threshold().numpy()[0, 0]
        assert theta_eff == pytest.approx(1.5)

    def test_adaptation_decays_without_spikes(self):
        neuron = AdaptiveLIF(beta=0.0, threshold=10.0, adaptation_step=0.5, adaptation_decay=0.5)
        neuron._adaptation = None
        neuron.step(Tensor([[20.0]]))  # force one spike
        first = neuron.adaptation.numpy()[0, 0]
        neuron.step(Tensor([[0.0]]))  # silent step: adaptation halves
        second = neuron.adaptation.numpy()[0, 0]
        assert second == pytest.approx(first * 0.5)

    def test_adaptation_reduces_firing_under_constant_drive(self):
        """Sustained drive fires less with adaptation than without."""
        drive = Tensor(np.full((4, 32), 1.5, dtype=np.float32))
        plain = LIF(beta=0.5, threshold=1.0)
        adaptive = AdaptiveLIF(beta=0.5, threshold=1.0, adaptation_step=0.5, adaptation_decay=0.95)
        plain_spikes = adaptive_spikes = 0.0
        for _ in range(20):
            plain_spikes += float(plain.step(drive).data.sum())
            adaptive_spikes += float(adaptive.step(drive).data.sum())
        assert adaptive_spikes < plain_spikes

    def test_effective_threshold_none_before_first_step(self):
        assert AdaptiveLIF().effective_threshold() is None

    def test_reset_clears_adaptation(self):
        neuron = AdaptiveLIF(threshold=0.5)
        neuron.step(Tensor([[2.0]]))
        neuron.reset_state()
        assert neuron.adaptation is None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveLIF(adaptation_step=-0.1)
        with pytest.raises(ValueError):
            AdaptiveLIF(adaptation_decay=1.5)

    def test_gradients_flow_through_adaptive_spike(self):
        neuron = AdaptiveLIF(beta=0.9, threshold=1.0)
        x = Tensor(np.full((1, 8), 0.6), requires_grad=True)
        total = None
        for _ in range(4):
            s = neuron.step(x)
            total = s if total is None else total + s
        total.backward(np.ones_like(total.data))
        assert x.grad is not None

    def test_repr_mentions_adaptation(self):
        assert "adaptation_step" in repr(AdaptiveLIF())


class TestQuantization:
    def test_quantize_array_roundtrip_error_bounded_by_scale(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(1000).astype(np.float32)
        quantized, scale = quantize_array(values, QuantizationConfig(weight_bits=8))
        assert np.abs(quantized - values).max() <= scale / 2 + 1e-7

    def test_quantize_array_zero_input(self):
        quantized, scale = quantize_array(np.zeros(10, dtype=np.float32), QuantizationConfig())
        assert scale == 0.0
        assert np.allclose(quantized, 0.0)

    def test_more_bits_means_less_error(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(2000).astype(np.float32)
        q4, _ = quantize_array(values, QuantizationConfig(weight_bits=4))
        q8, _ = quantize_array(values, QuantizationConfig(weight_bits=8))
        assert np.abs(q8 - values).mean() < np.abs(q4 - values).mean()

    def test_levels_property(self):
        assert QuantizationConfig(weight_bits=8).levels == 127
        assert QuantizationConfig(weight_bits=4).levels == 7

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            QuantizationConfig(weight_bits=1)
        with pytest.raises(ValueError):
            QuantizationConfig(clip_percentile=0.0)

    def test_quantize_model_in_place(self):
        model = SpikingMLP(in_features=16, hidden_units=32, num_classes=4, seed=0)
        original = {name: p.data.copy() for name, p in model.named_parameters()}
        report = quantize_model(model, QuantizationConfig(weight_bits=8))
        assert isinstance(report, QuantizationReport)
        assert set(report.scales) == set(original)
        # Weights changed (by at most the reported max error) but not wildly.
        for name, param in model.named_parameters():
            diff = np.abs(param.data - original[name]).max()
            assert diff <= report.max_abs_error + 1e-9
        assert report.mean_squared_error >= 0.0

    def test_quantized_model_output_close_to_original(self):
        model = SpikingMLP(in_features=16, hidden_units=32, num_classes=4, seed=0, threshold=0.5)
        spikes = Tensor(np.random.default_rng(2).random((5, 3, 16)).astype(np.float32))
        before = model(spikes).numpy().copy()
        model.reset_spiking_state()
        quantize_model(model, QuantizationConfig(weight_bits=8))
        after = model(spikes).numpy()
        # Spike counts are integers; 8-bit quantization should move few of them.
        assert np.abs(after - before).mean() <= 1.0

    def test_low_precision_hurts_more_than_high_precision(self):
        rng = np.random.default_rng(3)
        spikes = Tensor(rng.random((5, 3, 16)).astype(np.float32))
        reference = SpikingMLP(in_features=16, hidden_units=32, num_classes=4, seed=0, threshold=0.5)
        base = reference(spikes).numpy().copy()

        def divergence(bits):
            model = SpikingMLP(in_features=16, hidden_units=32, num_classes=4, seed=0, threshold=0.5)
            quantize_model(model, QuantizationConfig(weight_bits=bits))
            return np.abs(model(spikes).numpy() - base).sum()

        assert divergence(2) >= divergence(8)

    def test_sparse_tensor_not_zeroed_by_percentile_clip(self):
        # Regression: with clip_percentile=99 a >=99%-sparse tensor used to
        # produce a 0.0 percentile, a 0.0 scale, and a fully zeroed output —
        # the nonzero weights (the only information in the tensor) vanished.
        values = np.zeros(1000, dtype=np.float32)
        values[:5] = np.array([0.5, -0.25, 0.125, 0.75, -0.5], dtype=np.float32)
        config = QuantizationConfig(weight_bits=8, clip_percentile=99.0)
        quantized, scale = quantize_array(values, config)
        assert scale > 0.0
        assert np.abs(quantized[:5]).max() > 0.0
        # Max-abs fallback: error still bounded by half a step.
        assert np.abs(quantized - values).max() <= scale / 2 + 1e-7

    def test_quantize_array_int_sparse_and_zero_edge_cases(self):
        config = QuantizationConfig(weight_bits=8, clip_percentile=99.0)
        sparse = np.zeros(500, dtype=np.float32)
        sparse[0] = 1.27
        ints, scale = quantize_array_int(sparse, config)
        assert ints.dtype == np.int8
        assert scale > 0.0
        assert ints[0] == 127 and not ints[1:].any()
        # All-zero input: integer codes are all zero but the scale must stay
        # usable as a divisor (1.0, never 0.0).
        zero_ints, zero_scale = quantize_array_int(np.zeros(10, dtype=np.float32), config)
        assert zero_scale == 1.0
        assert not zero_ints.any()

    def test_quantize_array_int_matches_fake_quantized_lattice(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(512).astype(np.float32)
        config = QuantizationConfig(weight_bits=8)
        fake, fake_scale = quantize_array(values, config)
        ints, scale = quantize_array_int(values, config)
        assert scale == fake_scale
        assert np.allclose(ints.astype(np.float64) * scale, fake, atol=1e-7)
        assert np.abs(ints).max() <= config.levels

    def test_quantize_model_restore_round_trips(self):
        model = SpikingMLP(in_features=16, hidden_units=32, num_classes=4, seed=0)
        original = {name: p.data.copy() for name, p in model.named_parameters()}
        report = quantize_model(model, QuantizationConfig(weight_bits=4))
        mutated = any(
            not np.array_equal(p.data, original[name]) for name, p in model.named_parameters()
        )
        assert mutated, "4-bit quantization should change at least one weight"
        report.restore(model)
        for name, param in model.named_parameters():
            assert np.array_equal(param.data, original[name])

    def test_restore_rejects_mismatched_model(self):
        model = SpikingMLP(in_features=16, hidden_units=32, num_classes=4, seed=0)
        report = quantize_model(model, QuantizationConfig(weight_bits=8))
        other = SpikingMLP(in_features=8, hidden_units=4, num_classes=2, seed=1)
        with pytest.raises(ValueError):
            report.restore(other)
