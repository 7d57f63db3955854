"""Integration tests: the end-to-end experiment pipeline at smoke scale."""

import numpy as np
import pytest

from repro.core.config import ExperimentConfig, SCALE_PRESETS
from repro.core.experiment import (
    ExperimentRecord,
    build_workload,
    evaluate_trained_model,
    make_dataset,
    make_encoder,
    make_loss,
    make_model,
    run_experiment,
)
from repro.core.results import ResultStore
from repro.encoding import DirectEncoder, LatencyEncoder, RateEncoder
from repro.hardware import DenseBaselineAccelerator, SparsityAwareAccelerator
from repro.training.loss import CrossEntropySpikeCount, MSESpikeCount


@pytest.fixture(scope="module")
def smoke_record():
    """One shared end-to-end run at the smallest scale (module-scoped for speed)."""
    config = ExperimentConfig(scale=SCALE_PRESETS["smoke"], seed=0)
    return run_experiment(config)


class TestFactories:
    def test_make_dataset_sizes(self, smoke_config):
        train_loader, test_loader = make_dataset(smoke_config)
        n_train = sum(len(labels) for _, labels in train_loader)
        n_test = sum(len(labels) for _, labels in test_loader)
        assert n_train == smoke_config.scale.train_samples
        assert n_test == smoke_config.scale.test_samples

    def test_make_dataset_is_identical_across_hyperparameters(self):
        """Every configuration must train/evaluate on identical data."""
        a_loader, _ = make_dataset(ExperimentConfig(scale=SCALE_PRESETS["smoke"], beta=0.25))
        b_loader, _ = make_dataset(ExperimentConfig(scale=SCALE_PRESETS["smoke"], beta=0.95))
        a_images, a_labels = next(iter(a_loader))
        b_images, b_labels = next(iter(b_loader))
        assert np.array_equal(a_images, b_images)
        assert np.array_equal(a_labels, b_labels)

    def test_make_encoder_dispatch(self, smoke_config):
        assert isinstance(make_encoder(smoke_config.with_overrides(encoder="rate")), RateEncoder)
        assert isinstance(make_encoder(smoke_config.with_overrides(encoder="latency")), LatencyEncoder)
        assert isinstance(make_encoder(smoke_config.with_overrides(encoder="direct")), DirectEncoder)
        with pytest.raises(KeyError):
            make_encoder(smoke_config.with_overrides(encoder="morse"))

    def test_make_model_respects_config(self, smoke_config):
        config = smoke_config.with_overrides(beta=0.7, threshold=1.5, surrogate="arctan", surrogate_scale=4.0)
        model = make_model(config)
        assert model.lif1.beta == 0.7
        assert model.lif1.threshold == 1.5
        assert model.image_size == smoke_config.scale.image_size

    def test_make_loss_dispatch(self, smoke_config):
        assert isinstance(make_loss(smoke_config.with_overrides(loss="ce_count")), CrossEntropySpikeCount)
        assert isinstance(make_loss(smoke_config.with_overrides(loss="mse_count")), MSESpikeCount)


class TestRunExperiment:
    def test_record_structure(self, smoke_record):
        assert isinstance(smoke_record, ExperimentRecord)
        assert 0.0 <= smoke_record.accuracy <= 1.0
        assert smoke_record.training.epochs_run == SCALE_PRESETS["smoke"].epochs
        assert smoke_record.hardware.fps > 0
        assert smoke_record.hardware.fps_per_watt > 0
        assert 0.0 <= smoke_record.hardware.sparsity <= 1.0

    def test_recipe_anneals_the_configured_lr_over_the_configured_epochs(self, smoke_record):
        """The sweep recipe: Adam at ``learning_rate``, cosine-annealed to 0 over ``epochs``."""
        config = smoke_record.config
        epochs = config.scale.epochs
        expected = [config.learning_rate * 0.5 * (1 + np.cos(np.pi * e / epochs)) for e in range(epochs)]
        assert smoke_record.training.history["lr"] == pytest.approx(expected)

    def test_sparsity_profile_covers_all_layers(self, smoke_record):
        profile = smoke_record.sparsity_profile
        assert set(profile.layer_events_per_step) == {"lif1", "lif2", "lif3", "lif_out"}
        assert profile.input_events_per_step > 0

    def test_workload_built_from_profile(self, smoke_record):
        model = make_model(smoke_record.config)
        workload = build_workload(model, smoke_record.sparsity_profile)
        assert [l.name for l in workload] == ["conv1", "conv2", "fc1", "fc2"]
        assert workload.num_steps == smoke_record.config.scale.num_steps

    def test_summary_row_is_flat(self, smoke_record):
        row = smoke_record.summary_row()
        assert row["beta"] == smoke_record.config.beta
        assert row["accuracy"] == smoke_record.accuracy
        assert "fps_per_watt" in row

    def test_accelerator_choice_changes_hardware_metrics(self):
        config = ExperimentConfig(scale=SCALE_PRESETS["smoke"], seed=1)
        sparse_record = run_experiment(config, accelerator=SparsityAwareAccelerator())
        dense_record = run_experiment(config, accelerator=DenseBaselineAccelerator())
        # Same training seed => same accuracy; different platforms => different FPS/W.
        assert sparse_record.accuracy == pytest.approx(dense_record.accuracy)
        assert sparse_record.hardware.fps_per_watt > dense_record.hardware.fps_per_watt


class TestEvaluateTrainedModel:
    def test_reuses_given_accuracy(self, smoke_config):
        model = make_model(smoke_config)
        encoder = make_encoder(smoke_config)
        _, test_loader = make_dataset(smoke_config)
        profile, report = evaluate_trained_model(model, encoder, test_loader, accuracy=0.42)
        assert report.accuracy == 0.42
        assert profile.samples_profiled > 0

    def test_measures_accuracy_when_missing(self, smoke_config):
        model = make_model(smoke_config)
        encoder = make_encoder(smoke_config)
        _, test_loader = make_dataset(smoke_config)
        _, report = evaluate_trained_model(model, encoder, test_loader)
        assert 0.0 <= report.accuracy <= 1.0

    def test_custom_neuron_raises_compile_error(self, smoke_config):
        """A neuron class the runtime cannot lower fails loudly, at compile and at evaluation."""
        from repro.neurons.base import SpikingNeuron
        from repro.runtime import RuntimeCompileError, compile_network

        class CustomNeuron(SpikingNeuron):
            def step(self, synaptic_input):
                return synaptic_input

        model = make_model(smoke_config)
        model.lif2 = CustomNeuron()
        encoder = make_encoder(smoke_config)
        _, test_loader = make_dataset(smoke_config)
        with pytest.raises(RuntimeCompileError, match="CustomNeuron"):
            compile_network(model)
        with pytest.raises(RuntimeCompileError, match="CustomNeuron"):
            evaluate_trained_model(model, encoder, test_loader)


class TestResultStore:
    def test_add_and_reload(self, tmp_path, smoke_record):
        store = ResultStore(tmp_path / "results.json")
        store.add("figure1", "fast_sigmoid@0.25", smoke_record.summary_row())
        assert len(store) == 1

        reloaded = ResultStore(tmp_path / "results.json")
        assert len(reloaded) == 1
        found = reloaded.find("figure1", "fast_sigmoid@0.25")
        assert found is not None
        assert found.metrics["accuracy"] == pytest.approx(smoke_record.accuracy)

    def test_by_experiment_and_labels(self, tmp_path):
        store = ResultStore(tmp_path / "r.json")
        store.add("figure1", "a", {"x": 1.0})
        store.add("figure2", "b", {"x": 2.0})
        assert [r.label for r in store.by_experiment("figure1")] == ["a"]
        assert store.labels() == ["a", "b"]
        assert store.labels("figure2") == ["b"]
        assert store.find("figure1", "missing") is None

    def test_non_numeric_metrics_filtered(self, tmp_path):
        store = ResultStore(tmp_path / "r.json")
        result = store.add("exp", "lbl", {"x": 1.0, "label": "text"})
        assert "label" not in result.metrics
