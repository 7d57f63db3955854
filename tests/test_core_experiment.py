"""Integration tests: the end-to-end experiment pipeline at smoke scale."""

import numpy as np
import pytest
from conftest import TriangleSurrogate

from repro.analysis.io import load_json
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
    train_model,
)
from repro.core.results import ResultStore
from repro.encoding import DirectEncoder, LatencyEncoder, RateEncoder
from repro.hardware import DenseBaselineAccelerator, SparsityAwareAccelerator
from repro.neurons.base import SpikingNeuron
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

    def test_make_model_respects_config(self, smoke_config):
        config = smoke_config.with_overrides(beta=0.7, threshold=1.5, surrogate="arctan", surrogate_scale=4.0)
        model = make_model(config)
        assert model.lif1.beta == 0.7
        assert model.lif1.threshold == 1.5
        assert model.image_size == smoke_config.scale.image_size

    def test_make_model_builds_a_registered_surrogate(self, smoke_config, registered_surrogate):
        """The config names any registered surrogate; the name is resolved when the model is built."""
        config = smoke_config.with_overrides(surrogate=registered_surrogate, surrogate_scale=0.5)
        model = make_model(config)
        layers = [m for m in model.modules() if isinstance(m, SpikingNeuron)]
        assert layers and all(layer.surrogate == TriangleSurrogate(0.5) for layer in layers)
        with pytest.raises(KeyError, match="unknown surrogate 'gaussian'"):
            make_model(smoke_config.with_overrides(surrogate="gaussian"))

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

    def test_a_registered_surrogate_trains_end_to_end(self, micro_scale, registered_surrogate):
        """The caller-registered path that examples/custom_surrogate.py takes, at sub-smoke scale."""
        config = ExperimentConfig(scale=micro_scale, surrogate=registered_surrogate, surrogate_scale=0.5)
        record = run_experiment(config)
        assert record.config.surrogate == registered_surrogate
        assert 0.0 <= record.accuracy <= 1.0
        assert np.isfinite(record.hardware.latency_ms)
        # Its bounded support passes less gradient than the fast sigmoid at
        # the same scale, so the two train different weights.
        fast = train_model(config.with_overrides(surrogate="fast_sigmoid"))[0]
        mine = train_model(config)[0]
        assert any(
            not np.array_equal(a, b) for a, b in zip(mine.state_dict().values(), fast.state_dict().values())
        )

    def test_a_cell_without_leak_evaluates_through_the_plan_as_it_validated(self, micro_scale):
        """``beta = 1``, the neuron the retired ``if`` substrate named, trains and compiles."""
        from repro.runtime import evaluate_with_runtime

        config = ExperimentConfig(scale=micro_scale, beta=1.0)
        model, encoder, test_loader, training = train_model(config)
        assert [getattr(model, name).beta for name in model.spiking_layer_names()] == [1.0] * 4
        accuracy, activity = evaluate_with_runtime(model, encoder, test_loader)
        assert accuracy == training.final_val_accuracy
        assert sum(activity.layer_output_events.values()) > 0

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
        store.add("figure1", "fast_sigmoid@0.25", smoke_record.hardware.as_dict())
        store.add("figure2", "b", {"x": 2.0})
        assert len(store) == 2

        reloaded = ResultStore(tmp_path / "results.json")
        reloaded.add("figure2", "c", {"x": 3.0})
        rows = load_json(tmp_path / "results.json")
        assert [(row["experiment"], row["label"]) for row in rows] == [
            ("figure1", "fast_sigmoid@0.25"),
            ("figure2", "b"),
            ("figure2", "c"),
        ]
        assert rows[0]["metrics"]["accuracy"] == pytest.approx(smoke_record.accuracy)

    def test_non_numeric_metrics_filtered(self, tmp_path):
        store = ResultStore(tmp_path / "r.json")
        result = store.add("exp", "lbl", {"x": 1.0, "label": "text"})
        assert "label" not in result.metrics
