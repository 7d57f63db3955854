"""Unit tests for experiment configuration and scale presets."""

import re

import pytest

from repro.core.config import (
    ExperimentConfig,
    PAPER_COMPARISON_POINT,
    PAPER_DEFAULT,
    PAPER_LATENCY_OPTIMAL,
    ReproScale,
    SCALE_PRESETS,
    resolve_scale,
)


class TestReproScale:
    def test_presets_exist(self):
        assert set(SCALE_PRESETS) == {"smoke", "bench", "full", "paper"}

    def test_paper_preset_matches_publication(self):
        paper = SCALE_PRESETS["paper"]
        assert paper.image_size == 32
        assert paper.conv_channels == (32, 32)
        assert paper.hidden_units == 256
        assert paper.epochs == 25

    def test_scales_increase_in_size(self):
        smoke, bench, full = SCALE_PRESETS["smoke"], SCALE_PRESETS["bench"], SCALE_PRESETS["full"]
        assert smoke.train_samples < bench.train_samples < full.train_samples
        assert smoke.image_size <= bench.image_size <= full.image_size

    def test_image_size_must_be_divisible_by_four(self):
        with pytest.raises(ValueError):
            ReproScale("bad", 10, (4, 4), 8, 4, 8, 8, 1, 4)

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            ReproScale("bad", 8, (4, 4), 8, 0, 8, 8, 1, 4)

    def test_resolve_scale_by_name(self):
        assert resolve_scale("smoke").name == "smoke"
        assert resolve_scale("PAPER").name == "paper"

    def test_resolve_scale_default_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert resolve_scale().name == "bench"
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert resolve_scale().name == "smoke"

    def test_resolve_scale_unknown(self):
        with pytest.raises(KeyError):
            resolve_scale("enormous")


class TestExperimentConfig:
    def test_defaults_follow_paper_section_3(self):
        config = ExperimentConfig()
        assert config.surrogate == "fast_sigmoid"
        assert config.beta == 0.25
        assert config.threshold == 1.0

    def test_with_overrides_returns_new_config(self):
        base = ExperimentConfig()
        changed = base.with_overrides(beta=0.7, threshold=1.5)
        assert changed.beta == 0.7 and changed.threshold == 1.5
        assert base.beta == 0.25  # original untouched

    def test_describe_uses_label_when_present(self):
        assert ExperimentConfig(label="my run").describe() == "my run"
        assert "beta=0.5" in ExperimentConfig(beta=0.5).describe()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(surrogate_scale=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(beta=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(threshold=-1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(loss="hinge")

    @pytest.mark.parametrize(
        "field", ["surrogate_scale", "beta", "threshold", "learning_rate", "adaptation_step", "adaptation_decay"]
    )
    def test_nan_fails_every_range_check(self, field):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: float("nan")})

    def test_retired_if_neuron_rejected(self):
        """``if`` was LIF at beta = 1, which is how the config asks for it now."""
        with pytest.raises(ValueError, match="got 'if'"):
            ExperimentConfig(neuron="if")
        assert ExperimentConfig(neuron="lif", beta=1.0).neuron_params() == {}

    def test_neuron_names_are_the_factory_substrates(self):
        """Config checks names against its own tuple, which must be NEURON_TYPES."""
        from repro.neurons import NEURON_TYPES

        for neuron in NEURON_TYPES:
            assert ExperimentConfig(neuron=neuron).neuron == neuron
        with pytest.raises(ValueError, match=re.escape(f"one of {NEURON_TYPES}, got 'synaptic'")):
            ExperimentConfig(neuron="synaptic")

    def test_encoder_names_are_the_ones_make_encoder_builds(self):
        """Config checks names against its own tuple; each builds the encoder of that name."""
        from repro.core.experiment import make_encoder

        encoders = ("rate", "latency", "direct")
        for encoder in encoders:
            assert make_encoder(ExperimentConfig(encoder=encoder)).name == encoder
        with pytest.raises(ValueError, match=re.escape(f"one of {encoders}, got 'delta'")):
            ExperimentConfig(encoder="delta")

    def test_encoder_name_is_case_insensitive(self):
        """Config and make_encoder both lower the name, so the two checks agree."""
        from repro.core.experiment import make_encoder
        from repro.encoding import LatencyEncoder, RateEncoder

        assert type(make_encoder(ExperimentConfig(encoder="Rate"))) is RateEncoder
        assert type(make_encoder(ExperimentConfig(encoder="LATENCY"))) is LatencyEncoder

    def test_sweep_overrides_are_checked_too(self):
        """Sweeps build their cells with with_overrides: a retired name fails there, before any cell runs."""
        base = ExperimentConfig()
        with pytest.raises(ValueError, match="got 'delta'"):
            base.with_overrides(encoder="delta")
        with pytest.raises(ValueError, match="got 'synaptic'"):
            base.with_overrides(neuron="synaptic")

    def test_paper_reference_points(self):
        assert PAPER_DEFAULT.beta == 0.25 and PAPER_DEFAULT.threshold == 1.0
        assert PAPER_LATENCY_OPTIMAL.beta == 0.5 and PAPER_LATENCY_OPTIMAL.threshold == 1.5
        assert PAPER_COMPARISON_POINT.beta == 0.7 and PAPER_COMPARISON_POINT.threshold == 1.5
        assert PAPER_COMPARISON_POINT.surrogate == "fast_sigmoid"
        assert PAPER_COMPARISON_POINT.surrogate_scale == 0.25
