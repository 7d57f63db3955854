"""Unit and property tests for the input spike encoders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.encoding import DirectEncoder, LatencyEncoder, RateEncoder, is_time_invariant


class TestEncoderInterface:
    def test_output_shape_adds_time_axis(self):
        x = np.random.default_rng(0).random((4, 3, 8, 8)).astype(np.float32)
        for enc in (RateEncoder(5), LatencyEncoder(5), DirectEncoder(5)):
            out = enc(x)
            assert out.shape == (5,) + x.shape

    def test_rejects_out_of_range_inputs(self):
        enc = RateEncoder(4)
        with pytest.raises(ValueError):
            enc(np.array([[2.0]]))
        with pytest.raises(ValueError):
            enc(np.array([[-0.5]]))

    def test_invalid_num_steps(self):
        with pytest.raises(ValueError):
            RateEncoder(0)

    def test_repr(self):
        assert "num_steps=7" in repr(RateEncoder(7))

    @pytest.mark.parametrize(
        "encoder,stochastic",
        [(RateEncoder(6, seed=0), True), (LatencyEncoder(6), False), (DirectEncoder(6), False)],
        ids=["rate", "latency", "direct"],
    )
    def test_stochastic_flag_says_whether_a_second_call_differs(self, encoder, stochastic):
        # The serving scheduler serialises calls only to stochastic encoders.
        x = np.random.default_rng(10).random((4, 32)).astype(np.float32)
        assert encoder.stochastic is stochastic
        assert np.array_equal(encoder(x), encoder(x)) is not stochastic

    @pytest.mark.parametrize("cls", [RateEncoder, LatencyEncoder, DirectEncoder])
    def test_empty_batch_encodes_to_an_empty_sequence(self, cls):
        out = cls(3)(np.zeros((0, 2, 4, 4), dtype=np.float32))
        assert out.shape == (3, 0, 2, 4, 4) and out.dtype == np.float32

    def test_rounding_overshoot_is_clipped_not_rejected(self):
        """Inputs within 1e-6 outside [0, 1] (image-normalisation rounding) encode as the bound."""
        x = np.array([[1.0 + 5e-7, -5e-7, 0.5]], dtype=np.float32)
        out = DirectEncoder(2)(x)
        assert out[0].tolist() == [[1.0, 0.0, 0.5]] and out[1].tolist() == out[0].tolist()


class TestRateEncoder:
    def test_output_is_binary(self):
        x = np.random.default_rng(1).random((2, 4)).astype(np.float32)
        out = RateEncoder(20, seed=0)(x)
        assert set(np.unique(out)).issubset({0.0, 1.0})

    def test_firing_probability_tracks_intensity(self):
        x = np.array([[0.1, 0.9]], dtype=np.float32)
        out = RateEncoder(2000, seed=1)(x)
        rates = out.mean(axis=0)[0]
        assert rates[0] == pytest.approx(0.1, abs=0.03)
        assert rates[1] == pytest.approx(0.9, abs=0.03)

    def test_zero_intensity_never_fires(self):
        out = RateEncoder(100, seed=2)(np.zeros((1, 5), dtype=np.float32))
        assert out.sum() == 0.0

    def test_gain_scales_firing(self):
        x = np.full((1, 100), 0.5, dtype=np.float32)
        low = RateEncoder(200, gain=0.5, seed=3)(x).mean()
        high = RateEncoder(200, gain=1.0, seed=3)(x).mean()
        assert low < high

    def test_seed_reproducibility(self):
        x = np.random.default_rng(4).random((2, 8)).astype(np.float32)
        a = RateEncoder(10, seed=42)(x)
        b = RateEncoder(10, seed=42)(x)
        assert np.array_equal(a, b)

    def test_invalid_gain(self):
        with pytest.raises(ValueError):
            RateEncoder(5, gain=0.0)


class TestLatencyEncoder:
    def test_at_most_one_spike_per_element(self):
        x = np.random.default_rng(5).random((3, 6)).astype(np.float32)
        out = LatencyEncoder(8)(x)
        assert out.sum(axis=0).max() <= 1.0

    def test_bright_fires_earlier_than_dim(self):
        x = np.array([[1.0, 0.3]], dtype=np.float32)
        out = LatencyEncoder(10)(x)
        bright_time = np.argmax(out[:, 0, 0])
        dim_time = np.argmax(out[:, 0, 1])
        assert bright_time < dim_time

    def test_below_threshold_never_fires(self):
        x = np.array([[0.001]], dtype=np.float32)
        out = LatencyEncoder(10, threshold=0.05)(x)
        assert out.sum() == 0.0

    def test_spike_time_is_linear_in_intensity(self):
        """t = floor((1 - x) (T - 1)): full intensity fires first, the threshold fires last."""
        x = np.array([[1.0, 0.75, 0.5, 0.25, 0.01]], dtype=np.float32)
        out = LatencyEncoder(11, threshold=0.01)(x)
        assert out.sum() == 5.0
        assert np.argmax(out[:, 0, :], axis=0).tolist() == [0, 2, 5, 7, 9]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            LatencyEncoder(5, threshold=1.0)

    def test_is_sparser_than_rate(self):
        x = np.random.default_rng(6).random((4, 32)).astype(np.float32)
        latency_spikes = LatencyEncoder(10)(x).sum()
        rate_spikes = RateEncoder(10, seed=0)(x).sum()
        assert latency_spikes < rate_spikes


class TestDirectEncoder:
    def test_repeats_input_every_step(self):
        x = np.random.default_rng(8).random((2, 3)).astype(np.float32)
        out = DirectEncoder(4)(x)
        for t in range(4):
            assert np.allclose(out[t], x)

    def test_values_not_binarised(self):
        x = np.array([[0.37]], dtype=np.float32)
        out = DirectEncoder(3)(x)
        assert out[0, 0, 0] == pytest.approx(0.37)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fills_a_contiguous_writable_float32_sequence(self, dtype):
        # Same bytes as copying the broadcast view, including -0.0 and the
        # float64 -> float32 rounding of a direct encode() call.
        x = np.random.default_rng(9).random((2, 3, 4, 4)).astype(dtype)
        x[0, 0, 0, :2] = [-0.0, 1.0 / 3.0]
        out = DirectEncoder(5).encode(x)
        assert out.dtype == np.float32 and out.shape == (5, 2, 3, 4, 4)
        assert out.flags.c_contiguous and out.flags.writeable
        assert out.tobytes() == np.broadcast_to(x[None], out.shape).astype(np.float32).copy().tobytes()
        assert is_time_invariant(out)


class TestIsTimeInvariant:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16, np.bool_, np.complex128])
    def test_repeated_frames(self, dtype):
        frame = np.random.default_rng(3).integers(0, 2, (2, 3, 4)).astype(dtype)
        assert is_time_invariant(np.stack([frame] * 4))
        assert is_time_invariant(frame[None])

    @pytest.mark.parametrize("change", ["one-element", "signed-zero", "nan-payload", "last-frame"])
    def test_any_bit_difference_breaks_invariance(self, change):
        frames = np.zeros((4, 2, 5), dtype=np.float32)
        if change == "one-element":
            frames[1, 1, 3] = np.float32(1e-30)
        elif change == "signed-zero":
            frames[2, 0, 0] = -0.0
        elif change == "nan-payload":
            frames[...] = np.nan
            frames[3, 1, 1] = np.uint32(0x7FC00001).view(np.float32)
        else:
            frames[3, 1, 4] = 1.0
        assert not is_time_invariant(frames)

    def test_equal_nan_bits_are_invariant(self):
        assert is_time_invariant(np.full((3, 2, 2), np.nan))

    def test_strided_view(self):
        frames = np.repeat(np.arange(6.0).reshape(1, 2, 3), 4, axis=0)
        assert is_time_invariant(frames[:, :, ::2])
        assert not is_time_invariant(frames[:, :, ::2].transpose(2, 1, 0))


images = hnp.arrays(
    dtype=np.float32,
    shape=st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(min_value=0.0, max_value=1.0, width=32),
)


@settings(max_examples=30, deadline=None)
@given(images, st.integers(min_value=1, max_value=12))
def test_property_rate_spike_count_bounded_by_steps(image, steps):
    out = RateEncoder(steps, seed=0)(image)
    per_element = out.sum(axis=0)
    assert per_element.max() <= steps


@settings(max_examples=30, deadline=None)
@given(images, st.integers(min_value=2, max_value=12))
def test_property_latency_spikes_at_most_one(image, steps):
    out = LatencyEncoder(steps)(image)
    assert out.sum(axis=0).max() <= 1.0


@settings(max_examples=30, deadline=None)
@given(images, st.integers(min_value=1, max_value=8))
def test_property_direct_encoder_preserves_mean(image, steps):
    out = DirectEncoder(steps)(image)
    assert np.allclose(out.mean(axis=0), image, atol=1e-6)
