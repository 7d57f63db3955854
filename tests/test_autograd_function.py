"""Unit tests for the Function/Context graph machinery and unbroadcast."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.function import Context, Function, Node, unbroadcast


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
        y.sum().backward()
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
