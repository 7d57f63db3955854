"""Cross-substrate equivalence matrix for the compiled plan.

Every supported spiking substrate ({LIF, AdaptiveLIF}, and LIF without a
leak, ``beta = 1``) x both model families x all three encoders must satisfy
the runtime's contract: the compiled plan's spike trains are bit-identical
to the dense forward at fp32, fp64 predictions agree on the same paired
spikes, and the integer precisions replay bit-deterministically with high
paired-spike agreement against the fp64 reference.  At every precision the measured
:class:`RuntimeActivity` equals counts taken independently, from the input
frames and the collected spike trains.  Also covers checkpoint round-trip
bit-identity for the substrate-specific neuron parameters and serving a
compiled model of each substrate through the registry/gateway stack.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import dense_forward_with_trains
from repro.core.config import ExperimentConfig
from repro.core.experiment import make_encoder, make_model
from repro.core.network import SpikingCNN, SpikingMLP
from repro.encoding import DirectEncoder, LatencyEncoder, RateEncoder
from repro.neurons import NEURON_TYPES, AdaptiveLIF, LIF, neuron_descriptor
from repro.neurons.base import SpikingNeuron
from repro.nn import Flatten, Module
from repro.runtime import (
    PRECISIONS,
    FlattenKernel,
    MaxPoolKernel,
    NeuronKernel,
    RuntimeCompileError,
    compile_network,
    default_input_scale,
)
from repro.runtime.activity import count_events
from repro.serve import ModelRegistry, ServeGateway
from repro.training.checkpoint import load_checkpoint, save_checkpoint

ENCODER_CLASSES = {
    "rate": RateEncoder,
    "latency": LatencyEncoder,
    "direct": DirectEncoder,
}

#: Case -> (neuron kwarg, non-default substrate params, beta or None for the
#: model's own) so the matrix exercises real parameter threading, not just
#: defaults.  ``no-leak`` is LIF at ``beta = 1``, whose integer plans keep
#: their states in float64.
SUBSTRATES = {
    "lif": ("lif", {}, None),
    "no-leak": ("lif", {}, 1.0),
    "adaptive": ("adaptive", {"adaptation_step": 0.3, "adaptation_decay": 0.8}, None),
}

EXPECTED_LAYER_CLASSES = {
    "lif": LIF,
    "no-leak": LIF,
    "adaptive": AdaptiveLIF,
}

INT_PRECISIONS = ("int8", "int16")


def _make_model(kind: str, case: str):
    neuron, params, beta = SUBSTRATES[case]
    if kind == "cnn":
        return SpikingCNN(
            image_size=8,
            conv_channels=(3, 4),
            hidden_units=16,
            beta=0.5 if beta is None else beta,
            threshold=1.2,
            seed=7,
            neuron=neuron,
            neuron_params=params,
        )
    return SpikingMLP(
        in_features=12,
        hidden_units=10,
        num_classes=4,
        beta=0.3 if beta is None else beta,
        threshold=0.9,
        seed=3,
        neuron=neuron,
        neuron_params=params,
    )


def _images(kind: str, rng: np.random.Generator, count: int = 8) -> np.ndarray:
    if kind == "cnn":
        return rng.random((count, 3, 8, 8), dtype=np.float32)
    return rng.random((count, 12), dtype=np.float32)


# ---------------------------------------------------------------------- #
# The fp32 equivalence matrix: substrate x model x encoder
# ---------------------------------------------------------------------- #
class TestSubstrateMatrix:
    @pytest.mark.parametrize("encoder_name", sorted(ENCODER_CLASSES))
    @pytest.mark.parametrize("kind", ["cnn", "mlp"])
    @pytest.mark.parametrize("neuron", sorted(SUBSTRATES))
    def test_fp32_bit_identity_with_dense_forward(self, rng, neuron, kind, encoder_name):
        model = _make_model(kind, neuron)
        model.eval()
        encoder = ENCODER_CLASSES[encoder_name](num_steps=4, seed=11)
        spikes = encoder(_images(kind, rng))

        dense_counts, dense_trains = dense_forward_with_trains(model, spikes)
        result = compile_network(model).run(spikes, collect_spike_trains=True)

        np.testing.assert_array_equal(dense_counts, result.counts)
        assert set(result.spike_trains) == set(dense_trains)
        for name, train in dense_trains.items():
            assert np.array_equal(
                train, result.spike_trains[name]
            ), f"{neuron}/{kind}/{encoder_name}: spike train differs in {name}"

    @pytest.mark.parametrize("neuron", sorted(SUBSTRATES))
    def test_substrate_constructs_expected_layers(self, neuron):
        model = _make_model("mlp", neuron)
        for layer in (model.lif1, model.lif_out):
            assert type(layer) is EXPECTED_LAYER_CLASSES[neuron]
        substrate, params, _ = SUBSTRATES[neuron]
        found_name, found_params = neuron_descriptor(model.lif1)
        assert found_name == substrate
        for key, value in params.items():
            assert found_params[key] == pytest.approx(value)

    @pytest.mark.parametrize("kind", ["cnn", "mlp"])
    def test_adaptive_lowering_uses_fused_adaptive_kernels(self, kind):
        plan = compile_network(_make_model(kind, "adaptive"))
        spiking = [k for k in plan.kernels if k.is_spiking_stage]
        assert spiking and all(type(k) is NeuronKernel and k.substrate == "adaptive" for k in spiking)



# ---------------------------------------------------------------------- #
# No leak (beta = 1): deterministic at every precision
# ---------------------------------------------------------------------- #
class TestNoLeak:
    """LIF at ``beta = 1`` never decays, so its integer states have no bound.

    The fp32 matrix above runs it as the ``no-leak`` case.
    """

    @pytest.mark.parametrize("precision", ("fp64",) + INT_PRECISIONS)
    def test_no_leak_across_precisions(self, rng, precision):
        """Non-fp32 plans compile, replay deterministically, and agree."""
        encoder = RateEncoder(num_steps=4, seed=6)
        spikes = encoder(_images("mlp", rng))
        input_scale = default_input_scale(encoder)
        reference = compile_network(_make_model("mlp", "no-leak"), precision="fp64")
        if precision == "fp64":
            plan = reference
        else:
            plan = compile_network(
                _make_model("mlp", "no-leak"), precision=precision, input_scale=input_scale
            )
            assert all(k.carrier == np.float64 for k in plan.kernels if k.is_spiking_stage)
        out = plan.run(spikes, record_activity=False)
        replay = plan.run(spikes, record_activity=False)
        np.testing.assert_array_equal(out.counts, replay.counts)
        ref = reference.run(spikes, record_activity=False)
        agreement = float(np.mean(ref.predictions() == out.predictions()))
        assert agreement >= 0.9, f"no-leak/{precision}: agreement {agreement}"


class TestSubclassLowering:
    """Lowering matches a substrate by isinstance, so a subclass must keep its dynamics."""

    def test_every_substrate_name_has_a_kernel_and_no_other(self):
        from repro.runtime.engine import _SUBSTRATE_CLASSES

        assert sorted(_SUBSTRATE_CLASSES) == sorted(NEURON_TYPES)
        with pytest.raises(ValueError, match="unknown neuron substrate 'if'"):
            NeuronKernel("lif1", "if", {}, 1.0, 1.0)

    def test_a_nested_container_has_no_lowering(self):
        """The plan lowers a model's own layers in order; it does not walk into containers."""
        model = _make_model("mlp", "lif")
        nested = Module()
        nested.register_module("flatten", Flatten())
        model.register_module("head", nested)
        with pytest.raises(RuntimeCompileError, match="layer 'head': Module has no compiled-plan lowering"):
            compile_network(model)

    @pytest.mark.parametrize("method", ["step", "forward"])
    @pytest.mark.parametrize("neuron", sorted(SUBSTRATES))
    def test_overridden_dynamics_raise(self, neuron, method):
        # Compiled, the plan would silently run the substrate's kernel and
        # fire different spikes from the dense forward.
        model = _make_model("cnn", neuron)
        base = type(model.lif1)

        def doubled(self, synaptic_input):
            return getattr(base, method)(self, synaptic_input * 2.0)

        model.lif1.__class__ = type(f"Doubling{base.__name__}", (base,), {method: doubled})
        with pytest.raises(RuntimeCompileError, match=f"layer 'lif1': Doubling{base.__name__} overrides {method}"):
            compile_network(model)


# ---------------------------------------------------------------------- #
# Integer precisions for every substrate
# ---------------------------------------------------------------------- #
class TestQuantizedSubstrates:
    @pytest.mark.parametrize("precision", INT_PRECISIONS)
    @pytest.mark.parametrize("kind", ["cnn", "mlp"])
    @pytest.mark.parametrize("neuron", sorted(SUBSTRATES))
    def test_integer_agreement_with_fp64(self, rng, neuron, kind, precision):
        encoder = RateEncoder(num_steps=6, seed=11)
        spikes = encoder(_images(kind, rng, count=16))
        input_scale = default_input_scale(encoder)

        reference = compile_network(_make_model(kind, neuron), precision="fp64")
        quantized = compile_network(
            _make_model(kind, neuron), precision=precision, input_scale=input_scale
        )
        spiking = [k for k in quantized.kernels if k.is_spiking_stage]
        assert spiking and all(
            type(k) is NeuronKernel and k.substrate == SUBSTRATES[neuron][0] and k.integer for k in spiking
        )

        ref = reference.run(spikes, record_activity=False)
        out = quantized.run(spikes, record_activity=False)
        replay = quantized.run(spikes, record_activity=False)
        np.testing.assert_array_equal(out.counts, replay.counts)
        np.testing.assert_array_equal(out.counts, np.rint(out.counts))

        # Untrained micro-models spike so sparsely that argmax ties add
        # noise to paired predictions; the strict accuracy bar for trained
        # models is check_accuracy_delta (tests/test_quantized_runtime.py).
        agreement = float(np.mean(ref.predictions() == out.predictions()))
        assert agreement >= 0.85, f"{neuron}/{kind}/{precision}: agreement {agreement}"

    def test_zero_step_adaptive_matches_plain_lif_plan(self, rng):
        """An AdaptiveLIF with step 0 must execute exactly like LIF."""
        adaptive = SpikingMLP(
            in_features=12, hidden_units=10, num_classes=4, beta=0.3, threshold=0.9,
            seed=3, neuron="adaptive", neuron_params={"adaptation_step": 0.0},
        )
        plain = SpikingMLP(
            in_features=12, hidden_units=10, num_classes=4, beta=0.3, threshold=0.9, seed=3
        )
        spikes = (rng.random((6, 4, 12)) < 0.4).astype(np.float32)
        out_a = compile_network(adaptive).run(spikes, collect_spike_trains=True)
        out_p = compile_network(plain).run(spikes, collect_spike_trains=True)
        np.testing.assert_array_equal(out_a.counts, out_p.counts)
        for name in out_p.spike_trains:
            np.testing.assert_array_equal(out_a.spike_trains[name], out_p.spike_trains[name])


# ---------------------------------------------------------------------- #
# Activity accounting against an independent count, at every precision
# ---------------------------------------------------------------------- #
def _edge_case_spikes(kind: str, encoder_name: str, rng: np.random.Generator) -> np.ndarray:
    """A 5-step sequence whose first three frames are edge cases.

    Frame 0 is all zeros and frame 1 all ``-0.0`` (silent frames), and
    frame 2 holds ``-0.0`` wherever it holds no event.  The images carry
    exact zeros, and intensities that round to zero on the 8-bit input grid
    of an integer plan (``0.001`` and ``0.0019``, under half of 1/255) next
    to one that does not (``0.002``).
    """
    images = _images(kind, rng)
    flat = images.reshape(len(images), -1)
    flat[:, :3] = 0.0
    flat[:, 3:6] = 0.001
    flat[:, 6] = 0.0019
    flat[:, 7] = 0.002
    spikes = ENCODER_CLASSES[encoder_name](num_steps=5, seed=4)(images)
    spikes[0] = 0.0
    spikes[1] = -0.0
    spikes[2] = np.where(spikes[2] == 0, -0.0, spikes[2])
    return spikes


def _independent_activity(plan, spikes: np.ndarray, trains) -> dict:
    """Every :class:`RuntimeActivity` field, from the input and the spike trains alone.

    A weight layer's events are the nonzero entries of what reaches it:
    the input after the plan's input quantization, or the previous spiking
    layer's train, max-pooled and flattened as the plan's stages say.
    """
    x = spikes
    if plan.quantization is not None and plan.input_scale != 1.0:
        x = np.rint(spikes / plan.input_scale)
    layer_inputs = {}
    for kernel in plan.kernels:
        if kernel.is_weight_stage:
            layer_inputs[kernel.name] = float(np.count_nonzero(x))
        elif kernel.is_spiking_stage:
            x = trains[kernel.name]
        elif isinstance(kernel, MaxPoolKernel):
            k = kernel.kernel_size
            steps, n, c, h, w = x.shape
            x = x.reshape(steps, n, c, h // k, k, w // k, k).max(axis=(4, 6))
        else:
            assert isinstance(kernel, FlattenKernel)
            x = x.reshape(x.shape[0], x.shape[1], -1)
    return {
        "num_steps": spikes.shape[0],
        "samples": spikes.shape[1],
        "input_events": pytest.approx(float(spikes.astype(np.float64).sum()), rel=1e-6),
        "layer_input_events": layer_inputs,
        "layer_output_events": {name: float(np.count_nonzero(train)) for name, train in trains.items()},
        "layer_neuron_counts": {name: train[0, 0].size for name, train in trains.items()},
    }


def _compile(kind: str, neuron: str, precision: str, encoder_name: str):
    input_scale = default_input_scale(ENCODER_CLASSES[encoder_name](num_steps=1))
    return compile_network(
        _make_model(kind, neuron),
        precision=precision,
        input_scale=input_scale if precision in INT_PRECISIONS else 1.0,
    )


class TestActivityAccounting:
    def test_an_event_is_a_nonzero_entry(self):
        values = np.array([0.0, -0.0, np.nan, 1.0, -2.0, 1e-45, np.inf], dtype=np.float32)
        assert count_events(values) == 5
        assert count_events(np.zeros((2, 3))) == count_events(np.full(4, -0.0)) == 0

    @pytest.mark.parametrize("encoder_name", ["rate", "direct"])
    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("kind", ["cnn", "mlp"])
    @pytest.mark.parametrize("neuron", sorted(SUBSTRATES))
    def test_every_field_matches_an_independent_count(self, rng, neuron, kind, precision, encoder_name):
        spikes = _edge_case_spikes(kind, encoder_name, rng)
        plan = _compile(kind, neuron, precision, encoder_name)
        result = plan.run(spikes, collect_spike_trains=True)
        expected = _independent_activity(plan, spikes, result.spike_trains)
        activity = result.activity
        assert {field: getattr(activity, field) for field in expected} == expected
        first = plan.weight_stage_names[0]
        if precision in INT_PRECISIONS and encoder_name == "direct":
            # The intensities under half a grid step are input, but no event.
            assert activity.layer_input_events[first] < np.count_nonzero(spikes)
        else:
            assert activity.layer_input_events[first] == np.count_nonzero(spikes)

    @pytest.mark.parametrize("kind", ["cnn", "mlp"])
    def test_a_silent_frame_never_reads_the_weights(self, kind):
        plan = compile_network(_make_model(kind, "lif"))
        weights = [k for k in plan.kernels if k.is_weight_stage]
        assert len(weights) >= 2
        for kernel in weights:
            kernel.source_weight[...] = np.nan
            kernel.prepare()
            fan_in = kernel.weight.shape[1]
            shape = (3, fan_in, 8, 8) if kernel.weight.ndim == 4 else (3, fan_in)
            for silent in (np.zeros(shape, np.float32), np.full(shape, -0.0, np.float32)):
                out = kernel.run(silent)
                bias = kernel.bias.reshape((1, -1) + (1,) * (out.ndim - 2))
                np.testing.assert_array_equal(out, np.broadcast_to(bias, out.shape))
            one_event = np.zeros(shape, np.float32)
            one_event.flat[0] = 1.0
            assert np.isnan(kernel.run(one_event)).any(), f"{kernel.name}: a live frame skipped the weights"

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("kind", ["cnn", "mlp"])
    def test_alternating_recording_matches_a_fresh_plan(self, rng, kind, precision):
        sequences = [_edge_case_spikes(kind, "rate", rng) for _ in range(2)]
        plan = _compile(kind, "adaptive", precision, "rate")
        spiking = [k for k in plan.kernels if k.is_spiking_stage]
        for step, record in enumerate([True, False, True, False, False, True]):
            spikes = sequences[step % 2]
            result = plan.run(spikes, record_activity=record)
            fresh = _compile(kind, "adaptive", precision, "rate").run(spikes)
            np.testing.assert_array_equal(result.counts, fresh.counts)
            if record:
                assert result.activity == fresh.activity
            else:
                assert result.activity is None
                assert all(k.output_events == 0 for k in spiking), "a run that records nothing counted spikes"


# ---------------------------------------------------------------------- #
# Shape binding: kept arrays never leak from one run into another
# ---------------------------------------------------------------------- #
def _batch(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A 5-step rate-coded batch of ``n`` samples whose first frame is silent."""
    spikes = ENCODER_CLASSES["rate"](num_steps=5, seed=n)(_images(kind, rng, n))
    spikes[0] = 0.0
    return spikes


def _states(plan) -> list:
    """Every neuron kernel's final membrane and trace."""
    return [
        state for k in plan.kernels if k.is_spiking_stage for state in (k.mem, k.trace) if state is not None
    ]


def _assert_same_bytes(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestShapeBinding:
    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("kind", ["cnn", "mlp"])
    @pytest.mark.parametrize("neuron", sorted(SUBSTRATES))
    def test_every_batch_size_matches_a_fresh_plan(self, rng, neuron, kind, precision):
        # One plan runs at N=64, 1, 8 and 64 again: each run rebinds or
        # reuses its kernels' arrays, and must equal a plan that never ran.
        plan = _compile(kind, neuron, precision, "rate")
        kept = []
        for n in (64, 1, 8, 64):
            spikes = _batch(kind, n, rng)
            result = plan.run(spikes, collect_spike_trains=True)
            fresh_plan = _compile(kind, neuron, precision, "rate")
            fresh = fresh_plan.run(spikes, collect_spike_trains=True)
            _assert_same_bytes(result.counts, fresh.counts)
            assert result.activity == fresh.activity
            assert result.spike_trains.keys() == fresh.spike_trains.keys()
            for name, train in fresh.spike_trains.items():
                _assert_same_bytes(result.spike_trains[name], train)
            for state, fresh_state in zip(_states(plan), _states(fresh_plan), strict=True):
                _assert_same_bytes(state, fresh_state)
            snapshot = [result.counts.copy()] + [t.copy() for t in result.spike_trains.values()]
            kept.append((result, snapshot))
        # A run's counts and trains are its own: later runs leave them be.
        for result, snapshot in kept:
            for array, copy in zip([result.counts, *result.spike_trains.values()], snapshot, strict=True):
                _assert_same_bytes(array, copy)

    @pytest.mark.parametrize("precision", ["fp32", "fp64", "int8"])
    def test_a_second_run_reuses_the_conv_binding(self, rng, precision):
        plan = _compile("cnn", "lif", precision, "rate")
        conv = next(k for k in plan.kernels if k.is_weight_stage)
        plan.run(_batch("cnn", 4, rng))
        binding = conv.binding
        pointers = (binding.cols.ctypes.data, binding.grid.ctypes.data, binding.prod.ctypes.data)
        spikes = _batch("cnn", 4, rng)
        result = plan.run(spikes, collect_spike_trains=True)
        assert conv.binding is binding
        assert (binding.cols.ctypes.data, binding.grid.ctypes.data, binding.prod.ctypes.data) == pointers
        fresh = _compile("cnn", "lif", precision, "rate").run(spikes, collect_spike_trains=True)
        _assert_same_bytes(result.counts, fresh.counts)
        for name, train in fresh.spike_trains.items():
            _assert_same_bytes(result.spike_trains[name], train)
        plan.run(_batch("cnn", 2, rng))
        assert conv.binding is not binding and conv.binding.cols.shape != binding.cols.shape
        # The kernel's pool holds the bound shape's binding alone.
        assert list(conv._scratch._buffers.values()) == [conv.binding]

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("kind", ["cnn", "mlp"])
    def test_a_silent_frame_after_a_live_one_is_the_bias_map(self, rng, kind, precision):
        plan = _compile(kind, "lif", precision, "rate")
        for kernel in plan.kernels:
            if not kernel.is_weight_stage:
                continue
            kernel.prepare()
            fan_in = kernel.weight.shape[1]
            shape = (3, fan_in, 8, 8) if kernel.weight.ndim == 4 else (3, fan_in)
            live = (rng.random(shape) < 0.5).astype(np.float32)
            for silent in (np.zeros(shape, np.float32), np.full(shape, -0.0, np.float32)):
                kernel.run(live)
                out = kernel.run(silent)
                bias = kernel.bias.reshape((1, -1) + (1,) * (out.ndim - 2))
                expected = np.zeros(out.shape, out.dtype)
                expected += bias
                _assert_same_bytes(out, expected)

    @pytest.mark.parametrize("precision", ["fp32", "fp64", "int8"])
    @pytest.mark.parametrize("kind", ["cnn", "mlp"])
    def test_load_state_dict_reaches_a_bound_plan(self, rng, kind, precision):
        model = _make_model(kind, "lif")
        plan = compile_network(model, precision=precision)
        spikes = _batch(kind, 6, rng)
        before = plan.run(spikes, collect_spike_trains=True)
        state = model.state_dict()
        for name in state:
            if name.endswith("weight"):
                state[name] = state[name] * -1.5 + 0.05
        model.load_state_dict(state)
        after = plan.run(spikes, collect_spike_trains=True)
        fresh = compile_network(model, precision=precision).run(spikes, collect_spike_trains=True)
        _assert_same_bytes(after.counts, fresh.counts)
        for name, train in fresh.spike_trains.items():
            _assert_same_bytes(after.spike_trains[name], train)
        assert any(
            not np.array_equal(before.spike_trains[name], train) for name, train in after.spike_trains.items()
        ), "the new weights changed nothing"


# ---------------------------------------------------------------------- #
# Checkpoint round-trip of the substrate parameters
# ---------------------------------------------------------------------- #
class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("kind", ["cnn", "mlp"])
    @pytest.mark.parametrize("neuron", sorted(SUBSTRATES))
    def test_round_trip_is_bit_identical(self, tmp_path, rng, neuron, kind):
        model = _make_model(kind, neuron)
        model.eval()
        encoder = RateEncoder(num_steps=4, seed=2)
        path = save_checkpoint(tmp_path / f"{neuron}-{kind}.npz", model, encoder)
        reloaded, reloaded_encoder, _ = load_checkpoint(path)

        assert type(reloaded) is type(model)
        for orig, back in zip(
            (m for m in model.modules() if isinstance(m, SpikingNeuron)),
            (m for m in reloaded.modules() if isinstance(m, SpikingNeuron)),
        ):
            assert neuron_descriptor(back) == neuron_descriptor(orig)
            assert back.beta == orig.beta and back.threshold == orig.threshold

        spikes = reloaded_encoder(_images(kind, rng))
        original_run = compile_network(model).run(spikes, collect_spike_trains=True)
        reloaded_run = compile_network(reloaded).run(spikes, collect_spike_trains=True)
        np.testing.assert_array_equal(original_run.counts, reloaded_run.counts)
        for name, train in original_run.spike_trains.items():
            assert np.array_equal(train, reloaded_run.spike_trains[name])


# ---------------------------------------------------------------------- #
# Serving every substrate's compiled model through the registry/gateway stack
# ---------------------------------------------------------------------- #
class TestServingAdaptiveModels:
    @pytest.mark.parametrize("neuron", sorted(SUBSTRATES))
    def test_gateway_serves_new_substrates(self, tmp_path, micro_scale, rng, neuron):
        substrate, _, beta = SUBSTRATES[neuron]
        config = ExperimentConfig(scale=micro_scale, seed=0, neuron=substrate)
        if beta is not None:
            config = config.with_overrides(beta=beta)
        model = make_model(config)
        model.eval()
        encoder = make_encoder(config)  # direct: deterministic per-request encoding
        registry = ModelRegistry(tmp_path)
        registry.save(f"{neuron}-model", model, encoder, config=config)

        images = [
            rng.random((3, micro_scale.image_size, micro_scale.image_size), dtype=np.float32)
            for _ in range(3)
        ]
        plan = compile_network(model)
        expected = np.stack(
            [plan.run(encoder(image[None]), record_activity=False).counts[0] for image in images]
        )
        with ServeGateway(registry, max_batch=2, max_wait_ms=1.0) as gateway:
            served = np.stack(
                [gateway.submit(f"{neuron}-model", image).result(timeout=30).counts for image in images]
            )
        np.testing.assert_array_equal(served, expected)
