"""Run one complete experiment: train, evaluate, profile, map to hardware."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.sparsity import SparsityProfile
from repro.core.config import ExperimentConfig
from repro.core.network import SpikingCNN
from repro.data.dataloader import DataLoader
from repro.data.dataset import train_test_split
from repro.data.synth_svhn import SynthSVHN
from repro.encoding import DeltaEncoder, DirectEncoder, Encoder, LatencyEncoder, RateEncoder
from repro.hardware.accelerator import SparsityAwareAccelerator
from repro.hardware.efficiency import HardwareReport, evaluate_on_hardware
from repro.hardware.workload import NetworkWorkload, workload_from_layer_specs
from repro.training.loss import CrossEntropySpikeCount, MSESpikeCount
from repro.training.optim import Adam
from repro.training.schedulers import CosineAnnealingLR
from repro.training.trainer import Trainer, TrainingResult


@dataclass
class ExperimentRecord:
    """Everything measured for one hyperparameter configuration.

    Attributes
    ----------
    config:
        The configuration that was run.
    accuracy:
        Test-set classification accuracy.
    training:
        The :class:`~repro.training.trainer.TrainingResult` history.
    sparsity_profile:
        Measured per-layer firing behaviour.
    hardware:
        Hardware metrics on the sparsity-aware accelerator.
    """

    config: ExperimentConfig
    accuracy: float
    training: TrainingResult
    sparsity_profile: SparsityProfile
    hardware: HardwareReport

    def summary_row(self) -> Dict[str, float]:
        """Flat dictionary used by result tables and CSV export."""
        row: Dict[str, float] = {
            "label": self.config.describe(),
            "surrogate": self.config.surrogate,
            "surrogate_scale": self.config.surrogate_scale,
            "beta": self.config.beta,
            "threshold": self.config.threshold,
            "accuracy": self.accuracy,
        }
        row.update(self.hardware.as_dict())
        return row


def make_encoder(config: ExperimentConfig) -> Encoder:
    """Construct the input encoder named by the configuration."""
    name = config.encoder.lower()
    steps = config.scale.num_steps
    seed = config.seed + 17
    if name == "rate":
        return RateEncoder(num_steps=steps, seed=seed)
    if name == "latency":
        return LatencyEncoder(num_steps=steps, seed=seed)
    if name == "delta":
        return DeltaEncoder(num_steps=steps, seed=seed)
    if name == "direct":
        return DirectEncoder(num_steps=steps, seed=seed)
    raise KeyError(f"unknown encoder '{config.encoder}'")


def make_dataset(config: ExperimentConfig) -> Tuple[DataLoader, DataLoader]:
    """Build deterministic train/test loaders at the configuration's scale.

    The dataset seed is independent of the hyperparameters under study so
    every configuration trains and evaluates on identical data.
    """
    scale = config.scale
    from repro.data.synth_svhn import SynthSVHNConfig

    # At reduced scales (a few hundred training images) the full SVHN-like
    # clutter makes the task unlearnable and would flatten every trend; the
    # reduced-variability preset keeps the trends observable (see
    # SynthSVHNConfig.easy and DESIGN.md).
    if scale.train_samples < 2000:
        dataset_config = SynthSVHNConfig.easy(image_size=scale.image_size)
    else:
        dataset_config = SynthSVHNConfig(image_size=scale.image_size)
    dataset = SynthSVHN(
        num_samples=scale.train_samples + scale.test_samples,
        seed=1234,
        config=dataset_config,
    )
    test_fraction = scale.test_samples / (scale.train_samples + scale.test_samples)
    train_set, test_set = train_test_split(dataset, test_fraction=test_fraction, seed=99)
    train_loader = DataLoader(train_set, batch_size=scale.batch_size, shuffle=True, seed=config.seed)
    test_loader = DataLoader(test_set, batch_size=scale.batch_size, shuffle=False)
    return train_loader, test_loader


def make_model(config: ExperimentConfig) -> SpikingCNN:
    """Build the paper's network at the configuration's scale."""
    scale = config.scale
    return SpikingCNN(
        image_size=scale.image_size,
        conv_channels=scale.conv_channels,
        hidden_units=scale.hidden_units,
        beta=config.beta,
        threshold=config.threshold,
        surrogate_name=config.surrogate,
        surrogate_scale=config.surrogate_scale,
        seed=config.seed,
        neuron=config.neuron,
        neuron_params=config.neuron_params(),
    )


def make_loss(config: ExperimentConfig):
    if config.loss == "ce_count":
        return CrossEntropySpikeCount()
    return MSESpikeCount(num_steps=config.scale.num_steps)


def build_workload(model: SpikingCNN, profile: SparsityProfile) -> NetworkWorkload:
    """Combine the architecture specs with measured firing rates."""
    specs = model.layer_specs()
    firing_profile = {
        spec["name"]: profile.layer_events_per_step[spec["firing_layer"]] for spec in specs
    }
    return workload_from_layer_specs(
        specs,
        firing_profile,
        num_steps=profile.num_steps,
        input_events_per_step=profile.input_events_per_step,
    )


def evaluate_trained_model(
    model: SpikingCNN,
    encoder: Encoder,
    test_loader: DataLoader,
    accelerator: Optional[SparsityAwareAccelerator] = None,
    accuracy: Optional[float] = None,
    profile_batches: Optional[int] = 4,
) -> Tuple[SparsityProfile, HardwareReport]:
    """Profile a trained model and evaluate it on the hardware model.

    The model is compiled once into an inference plan
    (:mod:`repro.runtime`), whose spike trains are identical to the dense
    forward; one sweep of that plan yields the accuracy and the measured
    sparsity profile.

    Parameters
    ----------
    model, encoder, test_loader:
        The trained model and its evaluation data.
    accelerator:
        Hardware platform model (default: the paper's sparsity-aware one).
    accuracy:
        Pre-computed test accuracy; measured here if omitted.
    profile_batches:
        Number of test batches used for sparsity profiling.

    Raises
    ------
    repro.runtime.RuntimeCompileError
        If the runtime cannot lower the model (for example a custom
        :class:`~repro.neurons.base.SpikingNeuron` subclass).
    """
    from repro.runtime import compile_network, evaluate_with_runtime

    accel = accelerator if accelerator is not None else SparsityAwareAccelerator()
    compiled = compile_network(model)
    model.eval()
    if accuracy is None:
        # Single sweep: accuracy over the whole loader, activity over the
        # first `profile_batches` batches.
        accuracy, activity = evaluate_with_runtime(
            model, encoder, test_loader, profile_batches=profile_batches, compiled=compiled
        )
    else:
        _, activity = evaluate_with_runtime(
            model, encoder, test_loader, max_batches=profile_batches, compiled=compiled
        )
    profile = activity.to_sparsity_profile()
    workload = build_workload(model, profile)
    report = evaluate_on_hardware(workload, accel, accuracy)
    return profile, report


def train_model(
    config: ExperimentConfig,
    verbose: bool = False,
) -> Tuple[SpikingCNN, Encoder, DataLoader, TrainingResult]:
    """Train the configured model; returns ``(model, encoder, test_loader, training)``.

    The training half of :func:`run_experiment`, exposed separately so
    callers that need the *live trained model* — checkpoint export, the
    serving registry (:func:`repro.serve.train_and_register`) — can reuse
    the exact sweep recipe (Adam + cosine annealing over the configured
    epochs) instead of re-implementing it.
    """
    train_loader, test_loader = make_dataset(config)
    encoder = make_encoder(config)
    model = make_model(config)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    scheduler = CosineAnnealingLR(optimizer, t_max=config.scale.epochs)
    trainer = Trainer(model, encoder, optimizer, loss_fn=make_loss(config), scheduler=scheduler)
    training = trainer.fit(train_loader, val_loader=test_loader, epochs=config.scale.epochs, verbose=verbose)
    return model, encoder, test_loader, training


def run_experiment(
    config: ExperimentConfig,
    accelerator: Optional[SparsityAwareAccelerator] = None,
    verbose: bool = False,
) -> ExperimentRecord:
    """Train and evaluate one hyperparameter configuration end to end.

    This is the unit of work repeated by every sweep: build the dataset,
    encoder and network from ``config``, train with Adam + cosine annealing,
    measure test accuracy, profile firing rates through the compiled
    inference plan, and run the hardware model.
    """
    model, encoder, test_loader, training = train_model(config, verbose=verbose)
    accuracy = training.final_val_accuracy
    profile, hardware = evaluate_trained_model(
        model, encoder, test_loader, accelerator=accelerator, accuracy=accuracy
    )
    return ExperimentRecord(
        config=config,
        accuracy=accuracy,
        training=training,
        sparsity_profile=profile,
        hardware=hardware,
    )
