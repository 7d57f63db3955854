"""Unit tests for the NN layer library."""

import numpy as np
import pytest

from gradcheck import gradcheck
from repro.autograd import Tensor
from repro.nn import (
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
)
from repro.nn import init as nn_init


class _Chain(Module):
    """Layers registered under their index and applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        for index, layer in enumerate(layers):
            self.register_module(str(index), layer)

    def forward(self, x):
        for layer in self._modules.values():
            x = layer(x)
        return x


class TestModuleMechanics:
    def test_parameter_registration(self):
        class Tiny(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))
                self.child = Linear(2, 2)

        m = Tiny()
        names = [n for n, _ in m.named_parameters()]
        assert "w" in names
        assert "child.weight" in names and "child.bias" in names

    def test_num_parameters_counts_scalars(self):
        layer = Linear(4, 3)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_train_eval_propagates(self):
        model = _Chain(Linear(2, 2), _Chain(MaxPool2d(2)))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears_all(self):
        layer = Linear(3, 2)
        layer(Tensor(np.ones((1, 3)))).backward(np.ones((1, 2)))
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self):
        src = Linear(4, 2, rng=np.random.default_rng(0))
        dst = Linear(4, 2, rng=np.random.default_rng(1))
        assert not np.allclose(src.weight.data, dst.weight.data)
        dst.load_state_dict(src.state_dict())
        assert np.allclose(src.weight.data, dst.weight.data)

    def test_load_state_dict_rejects_mismatched_keys(self):
        layer = Linear(4, 2)
        with pytest.raises(KeyError):
            layer.load_state_dict({"bogus": np.zeros(1)})

    def test_load_state_dict_rejects_wrong_shape(self):
        layer = Linear(4, 2)
        state = layer.state_dict()
        state["weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_named_modules_includes_nested(self):
        model = _Chain(Linear(2, 2), _Chain(Linear(2, 2)))
        names = [n for n, _ in model.named_modules()]
        assert "0" in names and "1.0" in names


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(8, 4)
        out = layer(Tensor(np.zeros((5, 8))))
        assert out.shape == (5, 4)

    def test_forward_matches_manual(self):
        layer = Linear(3, 2, rng=np.random.default_rng(3))
        x = np.random.default_rng(4).standard_normal((4, 3)).astype(np.float32)
        out = layer(Tensor(x)).numpy()
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(out, expected, atol=1e-6)

    def test_no_bias_option(self):
        layer = Linear(3, 2, bias=False)
        assert layer.bias is None
        assert layer(Tensor(np.ones((1, 3)))).shape == (1, 2)

    def test_rejects_wrong_input_width(self):
        with pytest.raises(ValueError):
            Linear(3, 2)(Tensor(np.zeros((1, 4))))

    def test_rejects_invalid_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 2)

    def test_gradients_flow_to_weights(self):
        layer = Linear(3, 2, rng=np.random.default_rng(5))
        layer(Tensor(np.ones((2, 3)))).backward(np.ones((2, 2)))
        assert layer.weight.grad.shape == (2, 3)
        assert layer.bias.grad.shape == (2,)
        assert np.allclose(layer.bias.grad, 2.0)  # batch of 2, d(sum)/db = N

    def test_gradcheck_through_layer(self):
        layer = Linear(4, 3, rng=np.random.default_rng(8))
        layer.weight.data = layer.weight.data.astype(np.float64)
        layer.bias.data = layer.bias.data.astype(np.float64)
        x = Tensor(np.random.default_rng(9).standard_normal((2, 4)), requires_grad=True)
        assert gradcheck(lambda inp, *_: layer(inp), [x, layer.weight, layer.bias])


class TestConvPoolLayers:
    def test_conv_output_shape_same_padding(self):
        layer = Conv2d(3, 8, kernel_size=3, padding=1)
        out = layer(Tensor(np.zeros((2, 3, 16, 16))))
        assert out.shape == (2, 8, 16, 16)
        assert layer.output_shape(16, 16) == (16, 16)

    def test_conv_rejects_bad_input(self):
        layer = Conv2d(3, 8, kernel_size=3)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((2, 4, 8, 8))))
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((2, 3, 8))))

    def test_conv_without_bias(self):
        layer = Conv2d(2, 3, kernel_size=3, padding=1, bias=False)
        assert layer.bias is None and len(layer.parameters()) == 1
        assert layer(Tensor(np.zeros((1, 2, 5, 5)))).shape == (1, 3, 5, 5)

    def test_conv_stride_two_halves_the_image(self):
        layer = Conv2d(1, 2, kernel_size=3, stride=2, padding=1)
        assert layer(Tensor(np.zeros((1, 1, 8, 8)))).shape == (1, 2, 4, 4)
        assert layer.output_shape(8, 8) == (4, 4)

    def test_conv_gradcheck_through_layer(self):
        layer = Conv2d(2, 3, kernel_size=3, padding=1, rng=np.random.default_rng(6))
        layer.weight.data = layer.weight.data.astype(np.float64)
        layer.bias.data = layer.bias.data.astype(np.float64)
        x = Tensor(np.random.default_rng(7).standard_normal((1, 2, 4, 4)), requires_grad=True)
        assert gradcheck(lambda inp: layer(inp), [x])

    def test_maxpool_layer(self):
        out = MaxPool2d(2)(Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)))
        assert out.shape == (1, 1, 2, 2)
        assert out.numpy()[0, 0, 1, 1] == 15.0

    def test_maxpool_layer_gradient_routes_to_window_max(self):
        x = Tensor(np.array([[[[1.0, 5.0], [3.0, 2.0]]]]), requires_grad=True)
        MaxPool2d(2)(x).backward(np.full((1, 1, 1, 1), 7.0))
        np.testing.assert_array_equal(x.grad, [[[[0.0, 7.0], [0.0, 0.0]]]])

    def test_pool_rejects_non_4d(self):
        with pytest.raises(ValueError):
            MaxPool2d(2)(Tensor(np.zeros((4, 4))))

    def test_flatten(self):
        out = Flatten()(Tensor(np.zeros((3, 2, 4, 4))))
        assert out.shape == (3, 32)


class TestLayerStack:
    def test_gradients_reach_every_parameter_of_a_conv_stack(self):
        # The paper's block order: conv, pool, flatten, dense.
        gen = np.random.default_rng(10)
        model = _Chain(Conv2d(1, 2, 3, padding=1, rng=gen), MaxPool2d(2), Flatten(), Linear(8, 3, rng=gen))
        x = Tensor(np.random.default_rng(11).standard_normal((2, 1, 4, 4)))
        out = model(x)
        assert out.shape == (2, 3)
        out.backward(np.ones((2, 3)))
        for name, param in model.named_parameters():
            assert param.grad is not None and param.grad.shape == param.shape, name
            assert np.any(param.grad != 0), name


class TestInit:
    def test_kaiming_uniform_bounds(self, rng):
        w = nn_init.kaiming_uniform((64, 128), rng)
        assert w.shape == (64, 128)
        assert np.abs(w).max() <= np.sqrt(5.0 / 128) + 1e-6

    def test_conv_fan_in_out(self, rng):
        w = nn_init.kaiming_uniform((16, 3, 3, 3), rng)
        assert w.shape == (16, 3, 3, 3)

    def test_unsupported_shape_raises(self, rng):
        with pytest.raises(ValueError):
            nn_init.kaiming_uniform((2, 3, 4), rng)

    def test_bias_uniform_bound(self, rng):
        b = nn_init.bias_uniform((10,), 100, rng)
        assert np.abs(b).max() <= 0.1 + 1e-9
