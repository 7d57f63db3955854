"""Tests for the extension substrates: adaptive-threshold LIF and weight quantization."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.hardware.quantization import QuantizationConfig, quantize_array_int
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
    def test_quantize_array_int_roundtrip_error_bounded_by_scale(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(1000).astype(np.float32)
        config = QuantizationConfig(weight_bits=8)
        ints, scale = quantize_array_int(values, config)
        assert ints.dtype == np.int8
        assert np.abs(ints.astype(np.float64) * scale - values).max() <= scale / 2 + 1e-7
        # Max-abs clip: the largest magnitude lands on the top level.
        assert np.abs(ints).max() == config.levels
        assert scale == float(np.abs(values).max()) / config.levels

    def test_quantize_array_int_more_bits_means_less_error(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(2000).astype(np.float32)

        def mean_error(bits):
            ints, scale = quantize_array_int(values, QuantizationConfig(weight_bits=bits))
            return np.abs(ints.astype(np.float64) * scale - values).mean()

        assert mean_error(8) < mean_error(4)

    def test_levels_property(self):
        assert QuantizationConfig(weight_bits=8).levels == 127
        assert QuantizationConfig(weight_bits=4).levels == 7

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            QuantizationConfig(weight_bits=1)

    def test_quantize_array_int_sparse_and_zero_edge_cases(self):
        config = QuantizationConfig(weight_bits=8)
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

    def test_quantize_array_int_of_an_empty_array(self):
        ints, scale = quantize_array_int(np.zeros((0, 4), dtype=np.float32), QuantizationConfig())
        assert ints.shape == (0, 4) and ints.dtype == np.int8
        assert scale == 1.0

    def test_storage_dtype_is_the_smallest_that_holds_the_lattice(self):
        expected = {2: np.int8, 8: np.int8, 9: np.int16, 16: np.int16, 17: np.int32, 32: np.int32}
        values = np.linspace(-1.0, 1.0, 33)
        for bits, dtype in expected.items():
            config = QuantizationConfig(weight_bits=bits)
            assert config.storage_dtype() == np.dtype(dtype)
            ints, _ = quantize_array_int(values, config)
            assert ints.dtype == np.dtype(dtype)
            assert ints.min() == -config.levels and ints.max() == config.levels

    def test_quantize_array_int_is_symmetric_about_zero(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(400)
        values[7] = -3.0 * np.abs(values).max()  # the extreme is negative
        config = QuantizationConfig(weight_bits=8)
        ints, scale = quantize_array_int(values, config)
        assert ints[7] == -config.levels
        negated, negated_scale = quantize_array_int(-values, config)
        assert negated_scale == scale
        np.testing.assert_array_equal(negated, -ints)

    def test_quantize_array_int_lattice_is_a_fixed_point(self):
        rng = np.random.default_rng(3)
        config = QuantizationConfig(weight_bits=8)
        ints, scale = quantize_array_int(rng.standard_normal(300).astype(np.float32), config)
        again, again_scale = quantize_array_int(ints.astype(np.float64) * scale, config)
        np.testing.assert_array_equal(again, ints)
        assert again_scale == pytest.approx(scale, rel=1e-12)
