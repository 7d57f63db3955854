"""Quantized execution path: int8/int16 plans vs the fp64 reference.

Covers the full chain the accuracy gate relies on: lowering to quantized
kernels, exact-integer execution (integer spike counts, bit-deterministic
replays), paired-spike agreement with the fp64 reference across both
model families and all three encoders, and the accuracy gate itself.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.network import SpikingCNN, SpikingMLP
from repro.encoding import DirectEncoder, LatencyEncoder, RateEncoder
from repro.runtime import (
    AccuracyDelta,
    AccuracyGateError,
    ConvKernel,
    LinearKernel,
    NeuronKernel,
    RuntimeCompileError,
    WeightKernel,
    check_accuracy_delta,
    compile_network,
    default_input_scale,
)

ENCODER_CLASSES = {
    "rate": RateEncoder,
    "latency": LatencyEncoder,
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
        assert plan.quantization.weight_bits == {"int8": 8, "int16": 16}[precision]

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

    def test_compile_rejects_an_unknown_precision(self):
        with pytest.raises(RuntimeCompileError, match="unknown precision 'int4'"):
            compile_network(_make_model("mlp"), precision="int4")

    def test_compile_rejects_an_input_scale_outside_the_unit_interval(self):
        for input_scale in (0.0, -0.5, 1.5):
            with pytest.raises(RuntimeCompileError, match="input_scale must lie in"):
                compile_network(_make_model("mlp"), precision="int8", input_scale=input_scale)

    def test_float_precisions_ignore_input_scale(self, rng):
        spikes = ENCODER_CLASSES["direct"](num_steps=4, seed=11)(_images("mlp", rng))
        for precision in ("fp32", "fp64"):
            plan = compile_network(_make_model("mlp"), precision=precision, input_scale=7.0)
            assert plan.input_scale == 1.0 and plan.quantization is None
            reference = compile_network(_make_model("mlp"), precision=precision)
            np.testing.assert_array_equal(
                plan.run(spikes, record_activity=False).counts,
                reference.run(spikes, record_activity=False).counts,
            )

    @pytest.mark.parametrize("precision", INT_PRECISIONS)
    def test_live_weight_update_is_requantized(self, rng, precision):
        """``load_state_dict`` between runs re-quantizes; an unchanged run keeps the lattice."""
        model = _make_model("mlp")
        plan = compile_network(model, precision=precision)
        spikes = ENCODER_CLASSES["rate"](num_steps=4, seed=0)(_images("mlp", rng))
        before = plan.run(spikes, record_activity=False).counts.copy()
        fc1 = next(k for k in plan.kernels if isinstance(k, WeightKernel))
        lattice = fc1.weight_int
        plan.run(spikes, record_activity=False)
        assert fc1.weight_int is lattice

        state = model.state_dict()
        state["fc1.weight"] = state["fc1.weight"] * 5.0
        model.load_state_dict(state)
        after = plan.run(spikes, record_activity=False).counts
        assert fc1.weight_int is not lattice
        # The refreshed plan is the plan a fresh compile of the new weights builds.
        rebuilt = _make_model("mlp")
        rebuilt.load_state_dict(state)
        fresh = compile_network(rebuilt, precision=precision).run(spikes, record_activity=False)
        np.testing.assert_array_equal(after, fresh.counts)
        assert not np.array_equal(before, after)


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

    def test_gate_rejects_a_float_precision(self, rng):
        model = _make_model("mlp")
        encoder = RateEncoder(num_steps=4, seed=11)
        with pytest.raises(RuntimeCompileError, match="gates integer precisions, got 'fp32'"):
            check_accuracy_delta(model, encoder, self._loader(rng, model, encoder), precision="fp32")

    def test_gate_rejects_an_empty_loader(self):
        encoder = RateEncoder(num_steps=4, seed=11)
        with pytest.raises(ValueError, match="no samples to gate on"):
            check_accuracy_delta(_make_model("mlp"), encoder, [], precision="int8")

    def test_drop_equal_to_the_budget_passes(self):
        # 0.5 - 0.48 is 0.020000000000000018 in binary floating point: a drop
        # that equals the budget must not fail on the rounding.
        delta = AccuracyDelta(
            baseline_accuracy=0.5, quantized_accuracy=0.48, precision="int8",
            baseline_precision="fp64", samples=50, agreement=0.96, max_accuracy_drop=0.02,
        )
        assert delta.drop > 0.02
        assert delta.passed
        assert replace(delta, quantized_accuracy=0.46).passed is False
        # A quantized plan that beats the baseline has a negative drop and passes.
        won = replace(delta, quantized_accuracy=0.52, max_accuracy_drop=0.0)
        assert won.drop < 0.0 and won.passed
