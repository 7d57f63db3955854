"""Unit tests for the Function/Context graph machinery and unbroadcast."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro.autograd
import repro.surrogate
from repro.autograd import Tensor
from repro.autograd.function import Context, Function, Node, unbroadcast
from repro.autograd.ops_spiking import _LIFCharge, _LIFReset, _LIFSpike
from repro.core.config import SCALE_PRESETS, ExperimentConfig
from repro.core.experiment import make_encoder, make_loss, make_model
from repro.core.network import SpikingMLP
from repro.neurons import NEURON_TYPES


class Double(Function):
    """Minimal op used to exercise the apply() machinery directly."""

    @staticmethod
    def forward(ctx, a, factor=2.0):
        ctx.save_for_backward(factor)
        ctx.note = "kept"
        return a * factor

    @staticmethod
    def backward(ctx, grad_output):
        (factor,) = ctx.saved
        return (grad_output * factor,)


class TestContext:
    def test_save_and_retrieve(self):
        ctx = Context()
        ctx.save_for_backward(1, "two", np.zeros(3))
        assert ctx.saved[0] == 1
        assert ctx.saved[1] == "two"

    def test_default_saved_is_empty(self):
        assert Context().saved == ()

    def test_arbitrary_attributes_allowed(self):
        ctx = Context()
        ctx.anything = 42
        assert ctx.anything == 42


class TestFunctionApply:
    def test_forward_value_and_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Double.apply(x, 3.0)
        assert np.allclose(y.numpy(), [3.0, 6.0])
        y.backward(np.ones(2))
        assert np.allclose(x.grad, [3.0, 3.0])

    def test_kwargs_passed_to_forward(self):
        x = Tensor([1.0], requires_grad=True)
        y = Double.apply(x, factor=5.0)
        assert y.numpy()[0] == 5.0

    def test_no_node_recorded_without_requires_grad(self):
        x = Tensor([1.0])
        y = Double.apply(x)
        assert y._node is None
        assert y.requires_grad is False

    def test_node_recorded_with_requires_grad(self):
        x = Tensor([1.0], requires_grad=True)
        y = Double.apply(x)
        assert isinstance(y._node, Node)
        assert y._node.fn is Double
        assert y._node.inputs[0] is x  # a leaf input stays the tensor

    def test_non_leaf_input_is_linked_as_its_node(self):
        # The graph links producers, so it does not pin the inner output.
        x = Tensor([1.0], requires_grad=True)
        inner = Double.apply(x)
        assert Double.apply(inner)._node.inputs[0] is inner._node

    def test_non_tensor_inputs_become_none_placeholders(self):
        x = Tensor([1.0], requires_grad=True)
        y = Double.apply(x, 4.0)
        assert y._node.inputs[1] is None

    def test_base_function_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Function.forward(Context(), None)
        with pytest.raises(NotImplementedError):
            Function.backward(Context(), None)


class TestUnbroadcast:
    def test_identity_when_shapes_match(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sums_over_added_leading_dims(self):
        g = np.ones((4, 2, 3))
        out = unbroadcast(g, (2, 3))
        assert out.shape == (2, 3)
        assert np.allclose(out, 4.0)

    def test_sums_over_broadcast_size_one_dims(self):
        g = np.ones((2, 5))
        out = unbroadcast(g, (2, 1))
        assert out.shape == (2, 1)
        assert np.allclose(out, 5.0)

    def test_scalar_target(self):
        g = np.ones((3, 3))
        out = unbroadcast(g, ())
        assert out.shape == ()
        assert out == 9.0

    def test_combined_leading_and_internal(self):
        g = np.ones((4, 2, 5))
        out = unbroadcast(g, (1, 5))
        assert out.shape == (1, 5)
        assert np.allclose(out, 8.0)


def _repro_functions():
    """Every ``Function`` subclass that ``repro`` defines.

    Each module of ``repro.autograd`` and ``repro.surrogate`` is imported
    first, so an op no other import reaches is counted too.
    """
    for package in (repro.autograd, repro.surrogate):
        for info in pkgutil.iter_modules(package.__path__, f"{package.__name__}."):
            importlib.import_module(info.name)
    found, todo = set(), [Function]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls not in found:
                found.add(cls)
                todo.append(cls)
    return {cls for cls in found if cls.__module__.startswith("repro.")}


def _graph_functions(loss):
    """The ``fn`` of every node reachable from ``loss`` through ``Node.inputs``."""
    seen, todo = {loss._node}, [loss._node]
    while todo:
        for parent in todo.pop().inputs:
            if isinstance(parent, Node) and parent not in seen:
                seen.add(parent)
                todo.append(parent)
    return {node.fn for node in seen}


class TestOpCensus:
    def test_every_op_runs_in_a_spiking_cnn_training_graph(self):
        # The engine holds only what the paper's network trains with: each
        # op is in the BPTT graph of a smoke SpikingCNN under one of the
        # two count losses, on the LIF or the adaptive substrate.
        rng = np.random.default_rng(0)
        ran = set()
        for neuron in ("lif", "adaptive"):
            for loss_name in ("ce_count", "mse_count"):
                config = ExperimentConfig(scale=SCALE_PRESETS["smoke"], neuron=neuron, loss=loss_name, seed=0)
                size = config.scale.image_size
                images = rng.random((4, 3, size, size)).astype(np.float32)
                model = make_model(config)
                model.train()
                model.reset_spiking_state()
                counts = model(Tensor(make_encoder(config)(images)))
                labels = rng.integers(0, counts.shape[1], len(images))
                ran |= _graph_functions(make_loss(config)(counts, labels))
        defined = _repro_functions()
        never_run = sorted(f"{cls.__module__}.{cls.__qualname__}" for cls in defined - ran)
        assert ran == defined, f"Function subclasses no training graph runs: {never_run}"

    @pytest.mark.parametrize("neuron", NEURON_TYPES)
    @pytest.mark.parametrize("kind", ["cnn", "mlp"])
    def test_each_neuron_step_records_a_charge_a_spike_and_a_reset_node(self, kind, neuron):
        """A BPTT graph holds one node of each per layer and step, on either substrate."""
        config = ExperimentConfig(scale=SCALE_PRESETS["smoke"], neuron=neuron, seed=0)
        size, steps = config.scale.image_size, config.scale.num_steps
        images = np.random.default_rng(1).random((4, 3, size, size)).astype(np.float32)
        if kind == "cnn":
            model = make_model(config)
        else:
            model = SpikingMLP(in_features=3 * size * size, neuron=neuron, neuron_params=config.neuron_params())
        model.train()
        model.reset_spiking_state()
        counts = model(Tensor(make_encoder(config)(images)))
        nodes, todo = {counts._node}, [counts._node]
        while todo:
            for parent in todo.pop().inputs:
                if isinstance(parent, Node) and parent not in nodes:
                    nodes.add(parent)
                    todo.append(parent)
        layers = len(model.spiking_layer_names())
        # Nothing reads the last step's membrane, so its reset is not reached.
        expected = {_LIFCharge: layers * steps, _LIFSpike: layers * steps, _LIFReset: layers * (steps - 1)}
        for fn, count in expected.items():
            assert sum(node.fn is fn for node in nodes) == count, fn.__name__
