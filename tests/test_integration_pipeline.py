"""Cross-module integration tests: consistency between training-side statistics
and the hardware-side workload, and failure-injection paths."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core.config import ExperimentConfig, SCALE_PRESETS
from repro.core.experiment import build_workload, make_dataset, make_encoder, make_model
from repro.core.network import SpikingMLP
from repro.data import ArrayDataset, DataLoader
from repro.encoding import DirectEncoder
from repro.hardware import SparsityAwareAccelerator
from repro.runtime import evaluate_with_runtime
from repro.training import Adam, Trainer


class TestProfileToWorkloadConsistency:
    @pytest.fixture(scope="class")
    def profiled(self):
        config = ExperimentConfig(scale=SCALE_PRESETS["smoke"], seed=3)
        model = make_model(config)
        encoder = make_encoder(config)
        _, test_loader = make_dataset(config)
        profile = evaluate_with_runtime(model, encoder, test_loader)[1].to_sparsity_profile()
        workload = build_workload(model, profile)
        return config, model, profile, workload

    def test_workload_neuron_counts_match_architecture(self, profiled):
        config, model, profile, workload = profiled
        size = config.scale.image_size
        c1, c2 = config.scale.conv_channels
        assert workload.layer("conv1").num_neurons == c1 * size * size
        assert workload.layer("conv2").num_neurons == c2 * (size // 2) * (size // 2)
        assert workload.layer("fc1").num_neurons == config.scale.hidden_units
        assert workload.layer("fc2").num_neurons == 10

    def test_events_flow_from_profile_into_workload(self, profiled):
        _, _, profile, workload = profiled
        assert workload.layer("conv1").avg_input_events_per_step == pytest.approx(
            profile.input_events_per_step
        )
        assert workload.layer("conv2").avg_input_events_per_step == pytest.approx(
            profile.layer_events_per_step["lif1"]
        )
        assert workload.layer("fc2").avg_output_events_per_step == pytest.approx(
            profile.layer_events_per_step["lif_out"]
        )

    def test_firing_rates_bounded_by_one(self, profiled):
        _, _, profile, workload = profiled
        for layer in workload:
            assert 0.0 <= layer.output_firing_rate <= 1.0
        assert 0.0 <= profile.average_firing_rate() <= 1.0

    def test_hardware_model_accepts_profiled_workload(self, profiled):
        _, _, _, workload = profiled
        run = SparsityAwareAccelerator().run(workload)
        assert run.resources.fits()
        assert run.latency_ms > 0

    def test_threshold_change_reduces_measured_firing(self):
        """End-to-end: raising theta at fixed weights must not increase firing."""
        config = ExperimentConfig(scale=SCALE_PRESETS["smoke"], seed=4)
        encoder = make_encoder(config)
        _, test_loader = make_dataset(config)
        low = make_model(config.with_overrides(threshold=0.5))
        high = make_model(config.with_overrides(threshold=2.0))
        # Same seed => same weights; only the threshold differs.
        high.load_state_dict(low.state_dict())
        profile_low = evaluate_with_runtime(low, encoder, test_loader, max_batches=1)[1].to_sparsity_profile()
        profile_high = evaluate_with_runtime(high, encoder, test_loader, max_batches=1)[1].to_sparsity_profile()
        assert profile_high.average_firing_rate() <= profile_low.average_firing_rate() + 1e-9


class TestFailureInjection:
    def test_profile_requires_samples(self):
        model = SpikingMLP(in_features=4, hidden_units=8, num_classes=2)
        empty_loader = DataLoader(
            ArrayDataset(np.zeros((1, 4), dtype=np.float32), np.zeros(1, dtype=np.int64)),
            batch_size=2,
            drop_last=True,
        )
        with pytest.raises(ValueError):
            evaluate_with_runtime(model, DirectEncoder(3), empty_loader)

    def test_trainer_with_empty_loader_reports_zero_epoch_metrics(self):
        model = SpikingMLP(in_features=4, hidden_units=8, num_classes=2)
        empty_loader = DataLoader(
            ArrayDataset(np.zeros((1, 4), dtype=np.float32), np.zeros(1, dtype=np.int64)),
            batch_size=2,
            drop_last=True,
        )
        trainer = Trainer(model, DirectEncoder(3), Adam(model.parameters(), lr=1e-3))
        result = trainer.fit(empty_loader, epochs=1)
        assert result.history["train_loss"] == [0.0]

    def test_model_rejects_mismatched_spike_sequence(self):
        config = ExperimentConfig(scale=SCALE_PRESETS["smoke"])
        model = make_model(config)
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((2, 3, 8, 8))))  # missing time axis

    def test_workload_requires_complete_firing_profile(self):
        config = ExperimentConfig(scale=SCALE_PRESETS["smoke"])
        model = make_model(config)

        class FakeProfile:
            layer_events_per_step = {"lif1": 1.0}  # missing the other layers
            input_events_per_step = 1.0
            num_steps = 4

        with pytest.raises(KeyError):
            build_workload(model, FakeProfile())

    def test_encoder_rejects_unnormalised_batch(self):
        config = ExperimentConfig(scale=SCALE_PRESETS["smoke"])
        encoder = make_encoder(config)
        with pytest.raises(ValueError):
            encoder(np.full((1, 3, 8, 8), 7.0, dtype=np.float32))


class TestDeterminism:
    def test_identical_configs_give_identical_results(self):
        config = ExperimentConfig(scale=SCALE_PRESETS["smoke"], seed=11)
        from repro.core.experiment import run_experiment

        a = run_experiment(config)
        b = run_experiment(config)
        assert a.accuracy == pytest.approx(b.accuracy)
        assert a.hardware.fps_per_watt == pytest.approx(b.hardware.fps_per_watt, rel=1e-9)
        assert a.hardware.firing_rate == pytest.approx(b.hardware.firing_rate, rel=1e-9)

    def test_different_seed_changes_weights_not_data(self):
        base = ExperimentConfig(scale=SCALE_PRESETS["smoke"], seed=0)
        other = base.with_overrides(seed=1)
        model_a, model_b = make_model(base), make_model(other)
        assert not np.array_equal(model_a.conv1.weight.data, model_b.conv1.weight.data)
        loader_a, _ = make_dataset(base)
        loader_b, _ = make_dataset(other)
        images_a, _ = next(iter(DataLoader(loader_a.dataset, batch_size=4)))
        images_b, _ = next(iter(DataLoader(loader_b.dataset, batch_size=4)))
        assert np.array_equal(images_a, images_b)
