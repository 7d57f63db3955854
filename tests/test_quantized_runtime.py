"""Quantized execution path: int8/int16 plans vs the fp64 reference.

Covers the full chain the accuracy gate relies on: lowering to quantized
kernels, exact-integer execution (integer spike counts, bit-deterministic
replays), paired-spike agreement with the fp64 reference across both
model families and all four encoders, the compile/publish-time accuracy
gate itself, checkpoint round-trip of the quantization spec, and serving
(registry pools, gateway hot-reload across a precision change, telemetry
precision reporting).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.network import SpikingCNN, SpikingMLP
from repro.encoding import DeltaEncoder, DirectEncoder, LatencyEncoder, RateEncoder
from repro.hardware.quantization import QuantizationConfig
from repro.runtime import (
    AccuracyGateError,
    ConvKernel,
    LinearKernel,
    NeuronKernel,
    RuntimeCompileError,
    WeightKernel,
    check_accuracy_delta,
    compile_network,
    default_input_scale,
    resolve_quantization,
)
from repro.runtime.pool import CompiledNetworkPool
from repro.serve import ModelRegistry, ServeGateway, quantization_pool_kwargs
from repro.serve.telemetry import ServeTelemetry, format_telemetry
from repro.training.checkpoint import (
    load_checkpoint,
    read_checkpoint_quantization,
    save_checkpoint,
)

ENCODER_CLASSES = {
    "rate": RateEncoder,
    "latency": LatencyEncoder,
    "delta": DeltaEncoder,
    "direct": DirectEncoder,
}

INT_PRECISIONS = ("int8", "int16")

STORAGE_DTYPES = {"int8": np.int8, "int16": np.int16}


def _make_model(kind: str):
    if kind == "cnn":
        return SpikingCNN(
            image_size=8, conv_channels=(3, 4), hidden_units=16, beta=0.5, threshold=1.2, seed=7
        )
    return SpikingMLP(
        in_features=12, hidden_units=10, num_classes=4, beta=0.3, threshold=0.9, seed=3
    )


def _images(kind: str, rng: np.random.Generator, count: int = 16) -> np.ndarray:
    if kind == "cnn":
        return rng.random((count, 3, 8, 8), dtype=np.float32)
    return rng.random((count, 12), dtype=np.float32)


class TestQuantizedPlans:
    @pytest.mark.parametrize("precision", INT_PRECISIONS)
    def test_lowering_produces_quantized_kernels(self, precision):
        plan = compile_network(_make_model("cnn"), precision=precision)
        kinds = [type(k) for k in plan.kernels]
        assert ConvKernel in kinds
        assert LinearKernel in kinds
        assert NeuronKernel in kinds
        for kernel in plan.kernels:
            if isinstance(kernel, WeightKernel):
                assert kernel.quantization is not None
            if isinstance(kernel, NeuronKernel):
                assert kernel.integer and kernel.substrate == "lif"
        assert plan.precision == precision
        assert plan.weight_bits == {"int8": 8, "int16": 16}[precision]

    @pytest.mark.parametrize("precision", INT_PRECISIONS)
    def test_weight_kernels_hold_integer_lattice(self, rng, precision):
        plan = compile_network(_make_model("mlp"), precision=precision)
        plan.run(ENCODER_CLASSES["rate"](num_steps=2, seed=0)(_images("mlp", rng, 2)))
        for kernel in plan.kernels:
            if isinstance(kernel, WeightKernel):
                assert kernel.weight_int is not None
                assert kernel.weight_int.dtype == STORAGE_DTYPES[precision]
                assert kernel.output_scale > 0.0
                # The float carrier holds exactly the integer lattice.
                np.testing.assert_array_equal(
                    kernel.weight, kernel.weight_int.astype(kernel.weight.dtype)
                )

    @pytest.mark.parametrize("kind", ["cnn", "mlp"])
    @pytest.mark.parametrize("encoder_name", sorted(ENCODER_CLASSES))
    @pytest.mark.parametrize("precision", INT_PRECISIONS)
    def test_agreement_with_fp64_on_paired_spikes(self, rng, kind, encoder_name, precision):
        """Same spike train through fp64 and quantized plans: predictions agree."""
        encoder = ENCODER_CLASSES[encoder_name](num_steps=4, seed=11)
        spikes = encoder(_images(kind, rng))
        input_scale = default_input_scale(encoder)

        reference = compile_network(_make_model(kind), precision="fp64")
        quantized = compile_network(_make_model(kind), precision=precision, input_scale=input_scale)

        ref = reference.run(spikes, record_activity=False)
        out = quantized.run(spikes, record_activity=False)

        # Quantized counts are dequantized integers: integral when the plan
        # ends on a spiking stage, integral multiples of the output scale
        # otherwise — either way replaying the same spikes is bit-identical.
        replay = quantized.run(spikes, record_activity=False)
        np.testing.assert_array_equal(out.counts, replay.counts)
        np.testing.assert_array_equal(out.counts, np.rint(out.counts))

        agreement = float(np.mean(ref.predictions() == out.predictions()))
        assert agreement >= 0.9, f"{kind}/{encoder_name}/{precision}: agreement {agreement}"

    def test_all_zero_layer_still_runs(self, rng):
        """A dead (all-zero) layer must not poison the plan with 0-scales."""
        model = _make_model("mlp")
        for name, param in model.named_parameters():
            if name.startswith("fc2"):
                param.data[...] = 0.0
        plan = compile_network(model, precision="int8")
        out = plan.run(ENCODER_CLASSES["rate"](num_steps=4, seed=0)(_images("mlp", rng)))
        assert np.all(np.isfinite(out.counts))
        assert not out.counts.any()

    @pytest.mark.parametrize("precision", INT_PRECISIONS)
    def test_input_events_match_fp32_on_direct_encoding(self, rng, precision):
        """Rescaling analog input onto the 1/255 grid must not inflate the encoder events."""
        encoder = DirectEncoder(num_steps=4, seed=11)
        spikes = encoder(_images("cnn", rng))
        fp32 = compile_network(_make_model("cnn")).run(spikes).activity
        quantized = compile_network(
            _make_model("cnn"), precision=precision, input_scale=default_input_scale(encoder)
        ).run(spikes).activity
        assert quantized.input_events == fp32.input_events == float(spikes.sum())

    def test_resolve_quantization_validation(self):
        assert resolve_quantization("fp32", None) is None
        assert resolve_quantization("int8", None).weight_bits == 8
        assert resolve_quantization("int16", None).weight_bits == 16
        custom = QuantizationConfig(weight_bits=8, clip_percentile=99.5)
        assert resolve_quantization("int8", custom) is custom
        with pytest.raises(RuntimeCompileError):
            resolve_quantization("int4", None)
        with pytest.raises(RuntimeCompileError):
            resolve_quantization("fp32", custom)
        with pytest.raises(RuntimeCompileError):
            resolve_quantization("int16", custom)

    def test_pool_compiles_at_requested_precision(self):
        pool = CompiledNetworkPool(_make_model("mlp"), precision="int16")
        assert pool.precision == "int16"
        assert pool.weight_bits == 16
        with pool.acquire() as plan:
            assert plan.precision == "int16"


class TestAccuracyGate:
    def _loader(self, rng, model, encoder, samples=24):
        """Synthetic loader labelled by the fp64 plan's own predictions."""
        images = _images("mlp", rng, samples)
        labels = (
            compile_network(model, precision="fp64")
            .run(encoder(images), record_activity=False)
            .predictions()
        )
        return [(images[i : i + 8], labels[i : i + 8]) for i in range(0, samples, 8)]

    def test_gate_passes_within_budget(self, rng):
        model = _make_model("mlp")
        encoder = RateEncoder(num_steps=4, seed=11)
        delta = check_accuracy_delta(
            model, encoder, self._loader(rng, model, encoder), precision="int8",
            max_accuracy_drop=0.5,
        )
        assert delta.passed
        assert delta.samples == 24
        assert 0.0 <= delta.drop <= 0.5
        assert delta.precision == "int8" and delta.baseline_precision == "fp64"

    def test_gate_raises_on_impossible_budget(self, rng):
        # A negative budget cannot be met even at zero drop, so the gate
        # must raise (and carry the measured delta on the exception).
        model = _make_model("mlp")
        encoder = RateEncoder(num_steps=4, seed=11)
        loader = self._loader(rng, model, encoder)
        with pytest.raises(AccuracyGateError) as excinfo:
            check_accuracy_delta(
                model, encoder, loader, precision="int8", max_accuracy_drop=-0.01
            )
        assert excinfo.value.delta.drop >= 0.0
        no_raise = check_accuracy_delta(
            model, encoder, loader, precision="int8", max_accuracy_drop=-0.01,
            raise_on_fail=False,
        )
        assert not no_raise.passed


class TestCheckpointSpec:
    def test_quantization_spec_round_trips(self, tmp_path):
        model = _make_model("mlp")
        spec = {"precision": "int8", "weight_bits": 8, "input_scale": 1.0}
        path = save_checkpoint(tmp_path / "q.npz", model, quantization=spec)
        assert read_checkpoint_quantization(path) == spec
        # The full loader is unaffected by the extra header field.
        loaded_model, _, _ = load_checkpoint(path)
        assert type(loaded_model) is SpikingMLP

    def test_no_spec_reads_as_none(self, tmp_path):
        path = save_checkpoint(tmp_path / "plain.npz", _make_model("mlp"))
        assert read_checkpoint_quantization(path) is None


class TestQuantizedServing:
    def _publish_quantized(self, rng, registry, budget=1.0, precision="int8"):
        model = _make_model("mlp")
        model.eval()
        encoder = DirectEncoder(num_steps=4)
        images = _images("mlp", rng, 24)
        labels = np.zeros(24, dtype=np.int64)
        loader = [(images[i : i + 8], labels[i : i + 8]) for i in range(0, 24, 8)]
        path, delta = registry.save_quantized(
            "m", model, encoder, loader, precision=precision, max_accuracy_drop=budget
        )
        return model, encoder, images, path, delta

    def test_save_quantized_publishes_spec_and_restores_model(self, tmp_path, rng):
        registry = ModelRegistry(tmp_path)
        model = _make_model("mlp")
        reference = {name: p.data.copy() for name, p in model.named_parameters()}
        model.eval()
        encoder = DirectEncoder(num_steps=4)
        images = _images("mlp", rng, 24)
        loader = [(images[i : i + 8], np.zeros(8, dtype=np.int64)) for i in range(0, 24, 8)]

        path, delta = registry.save_quantized(
            "m", model, encoder, loader, precision="int8", max_accuracy_drop=1.0
        )
        assert delta.passed
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, reference[name])

        spec = registry.load("m").quantization
        assert spec["precision"] == "int8" and spec["weight_bits"] == 8
        assert spec["input_scale"] == pytest.approx(default_input_scale(encoder))
        assert read_checkpoint_quantization(path) == spec

        entry, pool = registry.compiled_pool("m")
        assert pool.precision == "int8"
        with pool.acquire() as plan:
            assert plan.weight_bits == 8

    def test_save_quantized_rolls_back_on_gate_failure(self, tmp_path, rng):
        registry = ModelRegistry(tmp_path)
        model = _make_model("mlp")
        reference = {name: p.data.copy() for name, p in model.named_parameters()}
        model.eval()
        encoder = DirectEncoder(num_steps=4)
        images = _images("mlp", rng, 24)
        loader = [(images[i : i + 8], np.zeros(8, dtype=np.int64)) for i in range(0, 24, 8)]

        with pytest.raises(AccuracyGateError):
            registry.save_quantized(
                "m", model, encoder, loader, precision="int8", max_accuracy_drop=-0.01
            )
        # Nothing was published and the caller's model came back intact.
        assert registry.version("m") == 0
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, reference[name])

    def test_malformed_spec_rejected_by_pool_kwargs(self):
        assert quantization_pool_kwargs(None) == {}
        from repro.serve import RegistryError

        with pytest.raises(RegistryError):
            quantization_pool_kwargs({"precision": "int8", "weight_bits": 16})
        with pytest.raises(RegistryError):
            quantization_pool_kwargs({"precision": "float8"})

    def test_gateway_serves_quantized_then_reloads_float(self, tmp_path, rng):
        registry = ModelRegistry(tmp_path)
        model, encoder, images, _, _ = self._publish_quantized(rng, registry)

        entry, pool = registry.compiled_pool("m")
        with pool.acquire() as plan:
            expected = plan.run(encoder(images[:1]), record_activity=False).counts[0]

        with ServeGateway(registry, max_batch=4, max_wait_ms=1.0) as gateway:
            served = gateway.submit("m", images[0]).result(timeout=30)
            np.testing.assert_array_equal(served.counts, expected)
            assert gateway.telemetry("m").summary()["weight_bits"] == 8.0

            # Republish as plain float: a precision change forces a
            # drain-and-replace reload; telemetry follows the new pool.
            registry.save("m", model, encoder)
            served_float = gateway.submit("m", images[0]).result(timeout=30)
            assert np.all(np.isfinite(served_float.counts))
            assert gateway.telemetry("m").summary()["weight_bits"] == 0.0

    def test_telemetry_reports_precision(self):
        telemetry = ServeTelemetry()
        assert telemetry.summary()["weight_bits"] == 0.0
        telemetry.set_precision("int8", 8)
        assert telemetry.precision == "int8"
        assert telemetry.summary()["weight_bits"] == 8.0
        assert "int8 weights" in format_telemetry(telemetry.summary())
        telemetry.set_precision("fp32")
        assert "full (float)" in format_telemetry(telemetry.summary())
