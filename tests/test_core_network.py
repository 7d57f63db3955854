"""Unit tests for the paper's network definitions."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, ops_conv
from repro.core.network import SpikingCNN, SpikingMLP
from repro.neurons import LIF
from repro.surrogate import ArcTan, FastSigmoid
from repro.training.loss import CrossEntropySpikeCount


class TestSpikingCNN:
    def _small(self, **kwargs):
        defaults = dict(image_size=8, conv_channels=(4, 4), hidden_units=16,
                        num_classes=10, seed=0)
        defaults.update(kwargs)
        return SpikingCNN(**defaults)

    def test_forward_returns_spike_counts(self):
        model = self._small()
        spikes = np.random.default_rng(0).integers(0, 2, size=(4, 2, 3, 8, 8)).astype(np.float32)
        counts = model(Tensor(spikes))
        assert counts.shape == (2, 10)
        assert (counts.numpy() >= 0).all()
        assert (counts.numpy() <= 4).all()  # at most one spike per step

    def test_rejects_wrong_input_rank(self):
        model = self._small()
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((2, 3, 8, 8))))
        with pytest.raises(ValueError, match="T >= 1"):
            model(Tensor(np.zeros((0, 2, 3, 8, 8))))

    def test_requires_image_size_divisible_by_four(self):
        with pytest.raises(ValueError):
            SpikingCNN(image_size=10)

    def test_input_shape_is_one_channels_first_image(self):
        model = self._small(in_channels=2)
        assert model.input_shape == (2, 8, 8)
        assert model(Tensor(np.zeros((3, 4, *model.input_shape), dtype=np.float32))).shape == (4, 10)

    def test_hyperparameters_propagate_to_all_lif_layers(self):
        model = self._small(beta=0.7, threshold=1.5, surrogate_name="arctan", surrogate_scale=4.0)
        for name in model.spiking_layer_names():
            layer = getattr(model, name)
            assert isinstance(layer, LIF)
            assert layer.beta == 0.7
            assert layer.threshold == 1.5
            assert isinstance(layer.surrogate, ArcTan)
            assert layer.surrogate.scale == 4.0

    def test_explicit_surrogate_instance(self):
        surrogate = FastSigmoid(0.25)
        model = self._small(surrogate=surrogate)
        assert model.lif1.surrogate is surrogate

    def test_layer_specs_geometry(self):
        model = self._small(image_size=16, conv_channels=(8, 12), hidden_units=32)
        specs = {s["name"]: s for s in model.layer_specs()}
        assert specs["conv1"]["out_h"] == 16
        assert specs["conv2"]["in_channels"] == 8
        assert specs["conv2"]["out_channels"] == 12
        assert specs["conv2"]["out_h"] == 8
        assert specs["fc1"]["in_features"] == 12 * 4 * 4
        assert specs["fc2"]["out_features"] == 10
        assert [s["firing_layer"] for s in model.layer_specs()] == ["lif1", "lif2", "lif3", "lif_out"]

    def test_paper_topology_parameter_count(self):
        """The default network matches the paper's 32C3-MP2-32C3-MP2-256-10 topology."""
        model = SpikingCNN()
        specs = {s["name"]: s for s in model.layer_specs()}
        assert specs["fc1"]["in_features"] == 32 * 8 * 8
        # conv1: 32*3*9 + 32, conv2: 32*32*9 + 32, fc1: 2048*256 + 256, fc2: 256*10 + 10
        expected = (32 * 3 * 9 + 32) + (32 * 32 * 9 + 32) + (2048 * 256 + 256) + (256 * 10 + 10)
        assert model.num_parameters() == expected

    def test_weight_init_is_seed_deterministic(self):
        a = self._small(seed=7)
        b = self._small(seed=7)
        c = self._small(seed=8)
        assert np.array_equal(a.conv1.weight.data, b.conv1.weight.data)
        assert not np.array_equal(a.conv1.weight.data, c.conv1.weight.data)

    def test_reset_spiking_state_clears_membranes(self):
        model = self._small()
        spikes = np.ones((2, 1, 3, 8, 8), dtype=np.float32)
        model(Tensor(spikes))
        assert model.lif1.membrane is not None
        model.reset_spiking_state()
        assert all(layer.membrane is None for layer in (model.lif1, model.lif2, model.lif3, model.lif_out))

    def test_gradients_reach_first_conv_layer(self):
        model = self._small(surrogate_scale=0.5)
        spikes = np.random.default_rng(1).random((3, 2, 3, 8, 8)).astype(np.float32)
        counts = model(Tensor(spikes))
        counts.backward(np.ones_like(counts.data))
        assert model.conv1.weight.grad is not None
        assert np.abs(model.conv1.weight.grad).max() > 0

    def test_extra_repr_describes_topology(self):
        text = repr(self._small(conv_channels=(4, 4), hidden_units=16))
        assert "4C3-MP2-4C3-MP2-16-10" in text


class TestTimeInvariantInput:
    """A direct-coded sequence convolves its frame once, with per-step results."""

    STEPS = 5

    def _frames(self, variant):
        rng = np.random.default_rng(21)
        frames = np.empty((self.STEPS, 4, 3, 8, 8), dtype=np.float32)
        frames[...] = rng.random((4, 3, 8, 8), dtype=np.float32)
        if variant == "one-element":
            frames[3, 1, 2, 4, 4] = np.nextafter(frames[3, 1, 2, 4, 4], np.float32(1))
        elif variant == "signed-zero":
            frames[:, 0, 0, 0, 0] = 0.0
            frames[2, 0, 0, 0, 0] = -0.0
        return frames

    @pytest.mark.parametrize("mode", ["backward", "backward-input-grad", "no_grad"])
    @pytest.mark.parametrize("variant", ["direct", "one-element", "signed-zero"])
    def test_forward_matches_stepping_frame_by_frame(self, monkeypatch, variant, mode):
        # Only bit-equal frames that need no input gradient share one conv1
        # node, whose read-only output lif1 gets at every step; -0.0 is not
        # +0.0.  Either way, counts, loss and every gradient equal
        # model.step on each frame in turn -- bit for bit, except conv1's
        # weight and bias gradients on the shared node, which sum the
        # output gradients before the product.
        model = SpikingCNN(
            image_size=8, conv_channels=(4, 4), hidden_units=16, threshold=0.5, surrogate_scale=0.5, seed=3
        )
        frames = self._frames(variant)
        labels = np.arange(4)
        lowerings = []
        lower = ops_conv.conv2d_forward
        monkeypatch.setattr(ops_conv, "conv2d_forward", lambda *a, **k: lowerings.append(1) or lower(*a, **k))
        lif1_inputs = []
        lif1 = model.lif1.forward
        monkeypatch.setattr(model.lif1, "forward", lambda x: lif1_inputs.append(x) or lif1(x))

        def run(forward):
            model.zero_grad()
            model.reset_spiking_state()
            lowerings.clear()
            lif1_inputs.clear()
            sequence = Tensor(frames, requires_grad=mode == "backward-input-grad")
            with no_grad() if mode == "no_grad" else nullcontext():
                counts = forward(sequence)
                loss = CrossEntropySpikeCount()(counts, labels)
            if mode != "no_grad":
                loss.backward()
            grads = {name: p.grad for name, p in model.named_parameters()}
            return counts.data, loss.data, grads, sequence.grad, len(lowerings), list(lif1_inputs)

        def stepped(sequence):
            counts = None
            for t in range(self.STEPS):
                out = model.step(sequence[t])
                counts = out if counts is None else counts + out
            return counts

        counts, loss, grads, input_grad, calls, conv1_outs = run(model)
        ref_counts, ref_loss, ref_grads, ref_input_grad, ref_calls, _ = run(stepped)
        shared = variant == "direct" and mode != "backward-input-grad"
        assert ref_calls == 2 * self.STEPS
        assert calls == (self.STEPS + 1 if shared else 2 * self.STEPS)
        assert len({id(x) for x in conv1_outs}) == (1 if shared else self.STEPS)
        assert all(x.data.flags.writeable != shared for x in conv1_outs)
        assert counts.sum() > 0
        np.testing.assert_array_equal(counts, ref_counts)
        np.testing.assert_array_equal(loss, ref_loss)
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            if mode == "no_grad":
                assert grad is None and ref_grads[name] is None
            else:
                assert np.abs(grad).max() > 0, name
                if shared and name.startswith("conv1."):
                    np.testing.assert_allclose(grad, ref_grads[name], rtol=1e-5, atol=1e-6, err_msg=name)
                else:
                    np.testing.assert_array_equal(grad, ref_grads[name], err_msg=name)
        if mode == "backward-input-grad":
            assert np.abs(input_grad).max() > 0
            np.testing.assert_array_equal(input_grad, ref_input_grad)
        else:
            assert input_grad is None and ref_input_grad is None


class TestSpikingMLP:
    def test_forward_flattens_higher_rank_frames(self):
        model = SpikingMLP(in_features=12, hidden_units=8, num_classes=3, seed=0)
        spikes = np.zeros((4, 2, 3, 2, 2), dtype=np.float32)
        counts = model(Tensor(spikes))
        assert counts.shape == (2, 3)

    def test_input_shape_is_flat(self):
        model = SpikingMLP(in_features=12, hidden_units=8, num_classes=3)
        assert model.input_shape == (12,)
        assert model(Tensor(np.zeros((3, 4, *model.input_shape), dtype=np.float32))).shape == (4, 3)

    def test_forward_rejects_low_rank(self):
        model = SpikingMLP(in_features=4)
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((4, 4))))

    def test_layer_specs(self):
        model = SpikingMLP(in_features=20, hidden_units=16, num_classes=5)
        specs = model.layer_specs()
        assert specs[0]["in_features"] == 20
        assert specs[1]["out_features"] == 5
        assert model.spiking_layer_names() == ["lif1", "lif_out"]

    def test_counts_bounded_by_timesteps(self):
        model = SpikingMLP(in_features=6, hidden_units=8, num_classes=2, threshold=0.1, seed=1)
        spikes = np.ones((7, 3, 6), dtype=np.float32)
        counts = model(Tensor(spikes)).numpy()
        assert counts.max() <= 7
