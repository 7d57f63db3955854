"""Gradient correctness tests for elementwise, reduction and shape operations."""

import numpy as np
import pytest

from gradcheck import gradcheck, numerical_gradient
from repro.autograd import Tensor


def t(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def normal(shape, seed):
    return t(np.random.default_rng(seed).standard_normal(shape))


#: Operand shapes that broadcast: a trailing vector (a bias), operands that
#: both grow, and a 0-d operand on either side.
BROADCAST_SHAPES = [((3, 4), (4,)), ((2, 1, 3), (4, 1)), ((), (2, 3)), ((2, 3), ())]


class TestElementwiseGradients:
    def test_add_broadcast(self):
        a = t(np.random.default_rng(0).standard_normal((3, 4)))
        b = t(np.random.default_rng(1).standard_normal((4,)))
        assert gradcheck(lambda x, y: x + y, [a, b])

    def test_sub_broadcast(self):
        a = t(np.random.default_rng(2).standard_normal((2, 3)))
        b = t(np.random.default_rng(3).standard_normal((1, 3)))
        assert gradcheck(lambda x, y: x - y, [a, b])

    def test_mul(self):
        a = t(np.random.default_rng(4).standard_normal((2, 5)))
        b = t(np.random.default_rng(5).standard_normal((2, 5)))
        assert gradcheck(lambda x, y: x * y, [a, b])

    @pytest.mark.parametrize("a_shape,b_shape", BROADCAST_SHAPES, ids=str)
    @pytest.mark.parametrize(
        "op", [lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y], ids=["add", "sub", "mul"]
    )
    def test_broadcast_gradient_has_its_operand_shape(self, op, a_shape, b_shape):
        a, b = normal(a_shape, 6), normal(b_shape, 7)
        assert gradcheck(op, [a, b])
        assert a.grad.shape == a_shape and b.grad.shape == b_shape

    def test_mul_by_a_constant_saves_and_returns_no_gradient_for_it(self):
        # ``mem * beta``: beta needs no gradient, so mem is not saved for it.
        x = normal((2, 3), 8)
        const = Tensor(np.full((2, 3), 0.5))
        out = x * const
        a_shape, b_shape, saved_b, saved_a = out._node.ctx.saved
        assert saved_a is None and saved_b is const.data
        grad_x, grad_const = out._node.fn.backward(out._node.ctx, np.ones((2, 3)))
        assert grad_const is None
        np.testing.assert_array_equal(grad_x, np.full((2, 3), 0.5))


class TestReductions:
    def test_mean_all_value(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        assert a.mean().item() == pytest.approx(2.5)

    def test_mean_all_gradcheck(self):
        assert gradcheck(lambda x: x.mean(), [normal((3, 5), 26)])

    def test_logsumexp_matches_naive(self):
        data = np.random.default_rng(24).standard_normal((4, 6))
        a = t(data)
        out = a.logsumexp()
        expected = np.log(np.exp(data).sum(axis=-1))
        assert np.allclose(out.numpy(), expected)

    def test_logsumexp_gradcheck(self):
        a = t(np.random.default_rng(25).standard_normal((3, 5)))
        assert gradcheck(lambda x: x.logsumexp(), [a])

    def test_logsumexp_stable_for_large_logits(self):
        a = t(np.array([[1000.0, 1000.0]]))
        out = a.logsumexp()
        assert np.isfinite(out.numpy()).all()
        out.backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [[0.5, 0.5]])

    def test_logsumexp_gradient_is_the_softmax(self):
        data = np.random.default_rng(29).standard_normal((3, 4))
        a = t(data)
        a.logsumexp().backward(np.ones(3))
        softmax = np.exp(data) / np.exp(data).sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(a.grad, softmax)

    def test_logsumexp_reduces_only_the_last_axis(self):
        a = normal((2, 3, 4), 30)
        assert a.logsumexp().shape == (2, 3)
        assert gradcheck(lambda x: x.logsumexp(), [a])


class TestShapeOps:
    def test_flatten_keeps_batch(self):
        a = t(np.random.default_rng(33).standard_normal((2, 3, 4)))
        flat = a.flatten()
        assert flat.shape == (2, 12)
        assert gradcheck(lambda x: x.flatten(), [a])

    def test_flatten_backward_restores_the_input_shape(self):
        a = normal((2, 3, 2, 2), 34)
        seed = np.arange(24.0).reshape(2, 12)
        a.flatten().backward(seed)
        np.testing.assert_array_equal(a.grad, seed.reshape(2, 3, 2, 2))

    def test_flatten_of_a_matrix_keeps_its_shape(self):
        a = normal((3, 4), 35)
        np.testing.assert_array_equal(a.flatten().numpy(), a.numpy())

    def test_getitem_slice_gradcheck(self):
        a = normal((3, 5), 36)
        assert gradcheck(lambda x: x[:, 1:4:2], [a])

    def test_getitem_reversed_and_negative_index_gradient(self):
        a = normal((4,), 37)
        (a[::-1] * t([1.0, 2.0, 3.0, 4.0], requires_grad=False)).backward(np.ones(4))
        a[-1].backward(np.ones(()))
        np.testing.assert_array_equal(a.grad, [4.0, 3.0, 2.0, 2.0])

    def test_getitem_boolean_mask_gradient(self):
        a = normal((2, 3), 38)
        mask = np.array([[True, False, True], [False, True, False]])
        picked = a[mask]
        np.testing.assert_array_equal(picked.numpy(), a.numpy()[mask])
        picked.backward(np.ones(3))
        np.testing.assert_array_equal(a.grad, mask.astype(np.float64))

    def test_getitem_tensor_index_picks_like_its_array(self):
        a = normal((4, 2), 39)
        rows = Tensor(np.array([2, 0, 3]), dtype=np.int64)
        np.testing.assert_array_equal(a[rows].numpy(), a.numpy()[[2, 0, 3]])

    def test_getitem_label_pick_gradient_is_one_hot(self):
        # The cross-entropy loss picks each row's label logit this way.
        a = normal((3, 4), 40)
        labels = np.array([2, 0, 3])
        a[np.arange(3), labels].backward(np.ones(3))
        np.testing.assert_array_equal(a.grad, np.eye(4)[labels])


class TestNumericalGradientHelper:
    def test_numerical_gradient_matches_analytic_for_square(self):
        a = t([1.0, 2.0, 3.0])
        numerical = numerical_gradient(lambda x: x * x, [a], 0)
        assert np.allclose(numerical, [2.0, 4.0, 6.0], atol=1e-4)

    def test_gradcheck_raises_on_wrong_gradient(self):
        from repro.autograd.function import Context, Function

        class BadOp(Function):
            @staticmethod
            def forward(ctx, a):
                return a * 2.0

            @staticmethod
            def backward(ctx, grad_output):
                return (grad_output * 3.0,)  # deliberately wrong

        a = t([1.0, 2.0])
        with pytest.raises(AssertionError):
            gradcheck(lambda x: BadOp.apply(x), [a])
