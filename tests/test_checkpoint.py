"""Model checkpoint round-trips: save -> load -> compile -> identical predictions."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import TriangleSurrogate, rewrite_checkpoint_header

from repro.autograd import Tensor
from repro.core.network import SpikingCNN, SpikingMLP
from repro.encoding import DirectEncoder, LatencyEncoder, RateEncoder
from repro.runtime import compile_network
from repro.surrogate import available_surrogates
from repro.surrogate.registry import _REGISTRY
from repro.neurons import NEURON_TYPES
from repro.neurons.base import SpikingNeuron
from repro.training.checkpoint import (
    CheckpointError,
    build_encoder,
    build_model,
    encoder_spec,
    load_checkpoint,
    model_spec,
    save_checkpoint,
)

ENCODER_CLASSES = {
    "rate": RateEncoder,
    "latency": LatencyEncoder,
    "direct": DirectEncoder,
}


def _make_model(kind: str):
    if kind == "cnn":
        return SpikingCNN(
            image_size=8,
            conv_channels=(3, 4),
            hidden_units=16,
            beta=0.5,
            threshold=1.2,
            surrogate_name="arctan",
            surrogate_scale=2.0,
            seed=7,
        )
    return SpikingMLP(
        in_features=12, hidden_units=10, num_classes=4, beta=0.3, threshold=0.9, seed=3
    )


def _images(kind: str, rng: np.random.Generator) -> np.ndarray:
    if kind == "cnn":
        return rng.random((5, 3, 8, 8), dtype=np.float32)
    return rng.random((5, 12), dtype=np.float32)


@pytest.mark.parametrize("kind", ["cnn", "mlp"])
@pytest.mark.parametrize("encoder_name", sorted(ENCODER_CLASSES))
def test_round_trip_predictions_bit_identical(tmp_path, rng, kind, encoder_name):
    model = _make_model(kind)
    encoder = ENCODER_CLASSES[encoder_name](num_steps=4, seed=11)
    path = save_checkpoint(tmp_path / "model.npz", model, encoder, metadata={"kind": kind})

    loaded_model, loaded_encoder, metadata = load_checkpoint(path)
    assert metadata == {"kind": kind}
    assert type(loaded_model) is type(model)

    # Weights round-trip exactly.
    original_state = model.state_dict()
    loaded_state = loaded_model.state_dict()
    assert set(original_state) == set(loaded_state)
    for name in original_state:
        np.testing.assert_array_equal(original_state[name], loaded_state[name])

    # The restored encoder restarts its stream from the saved seed, so it
    # must agree with a *fresh* encoder built the same way.
    reference_encoder = ENCODER_CLASSES[encoder_name](num_steps=4, seed=11)
    images = _images(kind, rng)
    spikes = reference_encoder(images)
    np.testing.assert_array_equal(loaded_encoder(images), spikes)

    # Dense original vs compiled-runtime reload: bit-identical spike counts.
    model.eval()
    model.reset_spiking_state()
    dense_counts = model.forward(Tensor(spikes)).numpy()
    runtime_counts = compile_network(loaded_model).run(spikes, record_activity=False).counts
    np.testing.assert_array_equal(runtime_counts, dense_counts)


@pytest.mark.parametrize("kind", ["cnn", "mlp"])
def test_legacy_use_fused_flag_is_ignored(tmp_path, rng, kind):
    """Older headers carry ``use_fused``; such a checkpoint still predicts bit-identically."""
    model = _make_model(kind)
    path = save_checkpoint(tmp_path / "legacy.npz", model, RateEncoder(num_steps=4, seed=11))
    rewrite_checkpoint_header(path, use_fused=False)
    loaded_model, loaded_encoder, _ = load_checkpoint(path)

    spikes = loaded_encoder(_images(kind, rng))
    model.eval()
    model.reset_spiking_state()
    loaded_model.reset_spiking_state()
    dense_counts = model.forward(Tensor(spikes)).numpy()
    np.testing.assert_array_equal(loaded_model.forward(Tensor(spikes)).numpy(), dense_counts)
    runtime_counts = compile_network(loaded_model).run(spikes, record_activity=False).counts
    np.testing.assert_array_equal(runtime_counts, dense_counts)


@pytest.mark.parametrize("reset", ["zero", "none", "bogus"])
def test_a_reset_other_than_subtract_is_rejected_at_load(tmp_path, reset):
    """Older headers name the reset; one that is not ``subtract`` must not load as subtract."""
    path = save_checkpoint(tmp_path / "tampered.npz", _make_model("mlp"))
    rewrite_checkpoint_header(path, reset_mechanism=reset)
    with pytest.raises(CheckpointError, match=f"unknown reset_mechanism '{reset}'.*'subtract'"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind", ["cnn", "mlp"])
def test_an_older_header_naming_the_subtract_reset_loads(tmp_path, rng, kind):
    """The spec no longer writes the reset; a header that names ``subtract`` predicts as saved."""
    model = _make_model(kind)
    assert set(model_spec(model)) == {"class", "kwargs"}
    path = save_checkpoint(tmp_path / "older.npz", model, RateEncoder(num_steps=4, seed=11))
    rewrite_checkpoint_header(path, reset_mechanism="subtract")
    loaded_model, loaded_encoder, _ = load_checkpoint(path)
    spikes = loaded_encoder(_images(kind, rng))
    model.eval()
    model.reset_spiking_state()
    dense_counts = model.forward(Tensor(spikes)).numpy()
    np.testing.assert_array_equal(compile_network(loaded_model).run(spikes).counts, dense_counts)


@pytest.mark.parametrize("kind", ["cnn", "mlp"])
def test_retired_if_neuron_rejected_at_load(tmp_path, kind):
    """A header naming the removed ``if`` substrate (LIF at beta = 1) is a CheckpointError naming it."""
    model = _make_model(kind)
    path = save_checkpoint(tmp_path / "if.npz", model)
    kwargs = dict(model_spec(model)["kwargs"], neuron="if", beta=1.0)
    rewrite_checkpoint_header(path, kwargs=kwargs, reset_mechanism="subtract")
    with pytest.raises(CheckpointError, match="unknown neuron type 'if'") as excinfo:
        load_checkpoint(path)
    assert str(NEURON_TYPES) in str(excinfo.value)


def test_unknown_neuron_substrate_rejected_at_load(tmp_path):
    """A substrate this code lacks (``synaptic`` was removed) is a CheckpointError naming the supported ones."""
    model = _make_model("mlp")
    path = save_checkpoint(tmp_path / "tampered.npz", model)
    kwargs = dict(model_spec(model)["kwargs"], neuron="synaptic", neuron_params={"alpha": 0.9})
    rewrite_checkpoint_header(path, kwargs=kwargs)
    with pytest.raises(CheckpointError, match="'synaptic'") as excinfo:
        load_checkpoint(path)
    assert str(NEURON_TYPES) in str(excinfo.value)


def test_unknown_surrogate_rejected_at_load(tmp_path):
    """A surrogate this code lacks (``triangular`` was removed) is a CheckpointError naming it."""
    model = _make_model("cnn")
    path = save_checkpoint(tmp_path / "tampered.npz", model)
    kwargs = dict(model_spec(model)["kwargs"], surrogate_name="triangular")
    rewrite_checkpoint_header(path, kwargs=kwargs)
    with pytest.raises(CheckpointError, match="unknown surrogate 'triangular'") as excinfo:
        load_checkpoint(path)
    assert str(available_surrogates()) in str(excinfo.value)


@pytest.mark.parametrize("kind", ["cnn", "mlp"])
def test_registered_surrogate_round_trips_while_registered(tmp_path, rng, kind, registered_surrogate):
    """A checkpoint names a caller's surrogate; it loads while the caller has it registered."""
    common = dict(beta=0.5, threshold=1.2, surrogate_name=registered_surrogate, surrogate_scale=0.75)
    if kind == "cnn":
        model = SpikingCNN(image_size=8, conv_channels=(3, 4), hidden_units=16, seed=7, **common)
    else:
        model = SpikingMLP(in_features=12, hidden_units=10, num_classes=4, seed=3, **common)
    path = save_checkpoint(tmp_path / "registered.npz", model, RateEncoder(num_steps=4, seed=11))
    loaded_model, loaded_encoder, _ = load_checkpoint(path)
    layers = [m for m in loaded_model.modules() if isinstance(m, SpikingNeuron)]
    assert layers and all(layer.surrogate == TriangleSurrogate(0.75) for layer in layers)

    spikes = loaded_encoder(_images(kind, rng))
    model.eval()
    model.reset_spiking_state()
    dense_counts = model.forward(Tensor(spikes)).numpy()
    runtime_counts = compile_network(loaded_model).run(spikes, record_activity=False).counts
    np.testing.assert_array_equal(runtime_counts, dense_counts)

    del _REGISTRY[registered_surrogate]
    with pytest.raises(CheckpointError, match=f"unknown surrogate '{registered_surrogate}'"):
        load_checkpoint(path)


def test_retired_encoder_rejected_at_load(tmp_path):
    """A header naming the delta encoder (removed) is a CheckpointError naming the supported ones."""
    path = save_checkpoint(tmp_path / "delta.npz", _make_model("mlp"), RateEncoder(num_steps=4, seed=11))
    spec = {"name": "delta", "num_steps": 4, "seed": 11, "delta_threshold": 0.1}
    rewrite_checkpoint_header(path, header_fields={"encoder": spec})
    with pytest.raises(CheckpointError, match="unknown encoder 'delta'") as excinfo:
        load_checkpoint(path)
    assert str(sorted(ENCODER_CLASSES)) in str(excinfo.value)


def test_encoder_spec_rejects_a_subclass_it_would_rebuild_as_its_base(tmp_path):
    """An encoder subclass that keeps its base's name would load as the base class: refuse to save it."""

    class GatedRate(RateEncoder):
        def encode(self, x):
            return super().encode(x) * (x[None] > 0.5)

    with pytest.raises(CheckpointError, match="cannot checkpoint encoder GatedRate"):
        save_checkpoint(tmp_path / "gated.npz", _make_model("mlp"), GatedRate(num_steps=4, seed=11))
    assert not (tmp_path / "gated.npz").exists()


def test_quantized_publish_rejected_at_load(tmp_path):
    """A header naming a quantization spec was an integer publish: an error, not fp32 serving."""
    path = save_checkpoint(tmp_path / "quantized.npz", _make_model("mlp"))
    spec = {"precision": "int8", "weight_bits": 8, "input_scale": 1.0}
    rewrite_checkpoint_header(path, header_fields={"quantization": spec})
    with pytest.raises(CheckpointError, match="quantized serving") as excinfo:
        load_checkpoint(path)
    assert str(path) in str(excinfo.value)
    # The null field every plain checkpoint used to carry still loads.
    rewrite_checkpoint_header(path, header_fields={"quantization": None})
    assert type(load_checkpoint(path)[0]) is SpikingMLP


@pytest.mark.parametrize("beta", [0.25, 1.0], ids=["leak", "no-leak"])
@pytest.mark.parametrize("neuron", NEURON_TYPES)
@pytest.mark.parametrize("kind", ["cnn", "mlp"])
def test_every_model_a_checkpoint_describes_compiles_at_fp32(rng, kind, neuron, beta):
    """The gateway serves every registry entry through an fp32 plan, so none may fail to lower."""
    if kind == "cnn":
        model = SpikingCNN(image_size=8, conv_channels=(3, 4), hidden_units=16, neuron=neuron, beta=beta, seed=7)
    else:
        model = SpikingMLP(in_features=12, hidden_units=10, num_classes=4, neuron=neuron, beta=beta, seed=3)
    rebuilt = build_model(model_spec(model))
    rebuilt.load_state_dict(model.state_dict())
    spikes = RateEncoder(num_steps=4, seed=11)(_images(kind, rng))
    rebuilt.eval()
    rebuilt.reset_spiking_state()
    dense_counts = rebuilt.forward(Tensor(spikes)).numpy()
    plan = compile_network(rebuilt)
    assert plan.precision == "fp32"
    np.testing.assert_array_equal(plan.run(spikes, record_activity=False).counts, dense_counts)


def test_checkpoint_without_encoder(tmp_path):
    model = _make_model("mlp")
    path = save_checkpoint(tmp_path / "bare.npz", model)
    loaded_model, loaded_encoder, metadata = load_checkpoint(path)
    assert loaded_encoder is None
    assert metadata == {}
    assert type(loaded_model) is SpikingMLP


def test_encoder_spec_round_trip_preserves_kwargs():
    encoder = RateEncoder(num_steps=6, gain=0.5, seed=42)
    rebuilt = build_encoder(encoder_spec(encoder))
    assert isinstance(rebuilt, RateEncoder)
    assert rebuilt.num_steps == 6 and rebuilt.gain == 0.5 and rebuilt.seed == 42

    encoder = LatencyEncoder(num_steps=3, threshold=0.2)
    rebuilt = build_encoder(encoder_spec(encoder))
    assert isinstance(rebuilt, LatencyEncoder) and rebuilt.threshold == 0.2


def test_unsupported_model_rejected(tmp_path):
    from repro.nn.linear import Linear

    with pytest.raises(CheckpointError, match="no spiking layers"):
        save_checkpoint(tmp_path / "x.npz", Linear(4, 2))


def test_corrupt_header_rejected(tmp_path):
    bad = tmp_path / "bad.npz"
    np.savez(bad, whatever=np.zeros(3))
    with pytest.raises(CheckpointError, match="missing header"):
        load_checkpoint(bad)


def test_loaded_model_usable_for_further_training(tmp_path, rng):
    """A reloaded model has real Parameters: gradients flow after load."""
    model = _make_model("mlp")
    path = save_checkpoint(tmp_path / "model.npz", model)
    loaded, _, _ = load_checkpoint(path)
    loaded.train()
    spikes = (rng.random((3, 2, 12)) < 0.5).astype(np.float32)
    loaded.reset_spiking_state()
    counts = loaded.forward(Tensor(spikes))
    counts.backward(np.ones_like(counts.data))
    assert all(p.grad is not None for p in loaded.parameters())


def test_heterogeneous_lif_settings_rejected(tmp_path):
    """Per-layer mutated LIF settings must fail loudly, not round-trip silently."""
    model = _make_model("mlp")
    model.lif_out.threshold = 2.0
    with pytest.raises(CheckpointError, match="differs from"):
        save_checkpoint(tmp_path / "hetero.npz", model)
