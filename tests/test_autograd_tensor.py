"""Unit tests for the Tensor core: construction, graph recording, backward."""

import gc
import sys
import weakref

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, is_grad_enabled, zeros


class TestConstruction:
    def test_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype.kind == "f"

    def test_integer_data_promoted_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind == "f"

    def test_explicit_dtype_respected(self):
        t = Tensor(np.array([1, 2, 3]), dtype=np.int64)
        assert t.dtype == np.int64

    def test_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert np.array_equal(a.numpy(), b.numpy())

    def test_helpers(self):
        z = zeros((2, 3))
        assert z.shape == (2, 3) and z.dtype == np.float32
        assert not z.data.any() and not z.requires_grad

    def test_tensor_submodule_is_not_shadowed(self):
        # The package exports no name that rebinds its ``tensor`` submodule.
        import repro.autograd.tensor as m

        assert m is sys.modules["repro.autograd.tensor"]

    def test_item_and_tolist(self):
        t = Tensor([[2.5]])
        assert t.item() == 2.5
        assert Tensor([1.0, 2.0]).tolist() == [1.0, 2.0]

    def test_repr_mentions_requires_grad(self):
        t = Tensor([1.0], requires_grad=True)
        assert "requires_grad=True" in repr(t)

    def test_len_and_size(self):
        t = Tensor(np.zeros((3, 4)))
        assert len(t) == 3
        assert t.size == 12
        assert t.ndim == 2


class TestBackwardBasics:
    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + 1.0
        y.backward()
        assert x.grad == pytest.approx([3.0])

    def test_backward_requires_scalar_without_grad_arg(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_with_explicit_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        y.backward(np.array([1.0, 10.0]))
        assert np.allclose(x.grad, [2.0, 20.0])

    def test_backward_rejects_a_gradient_of_another_shape(self):
        # A (2, 3) seed would broadcast through the ops and double x.grad.
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(3,\)"):
            (x * 2.0).backward(np.ones((2, 3)))
        assert x.grad is None

    def test_backward_without_a_graph_raises(self):
        # A loss computed under no_grad has nothing to train.
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            loss = (x * 2.0).mean()
        with pytest.raises(RuntimeError, match="does not require grad"):
            loss.backward()

    def test_gradient_accumulates_over_multiple_uses(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0 + x * 3.0
        y.backward()
        assert x.grad == pytest.approx([5.0])

    def test_gradient_accumulates_over_multiple_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        (x * 3.0).backward()
        assert x.grad == pytest.approx([5.0])

    def test_zero_grad_clears(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert y.requires_grad is False
        assert y._node is None

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_nested_contexts_restore_correctly(self):
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            # Still inside the outer context.
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_no_grad_interleaved_generators_restore_correctly(self):
        """Generators suspended inside no_grad must not corrupt the state.

        With the old save/restore implementation, two generators entered in
        order A, B but finalised in order A, B would re-enable gradients
        while B was still inside its context (A restored the True it saved
        on entry).  The depth-counted implementation keeps gradients off
        until *every* context has exited, in any order.
        """

        def gen():
            with no_grad():
                yield
                yield

        a, b = gen(), gen()
        next(a)  # A enters no_grad
        next(b)  # B enters no_grad
        a.close()  # A's finally runs first...
        assert not is_grad_enabled()  # ...but B is still inside its context
        b.close()
        assert is_grad_enabled()

    def test_no_grad_abandoned_generator_restores_on_gc(self):
        def gen():
            with no_grad():
                yield

        g = gen()
        next(g)
        assert not is_grad_enabled()
        del g  # finalised by refcounting; the context must still unwind
        assert is_grad_enabled()

    def test_no_grad_as_decorator(self):
        @no_grad()
        def inference(t):
            assert not is_grad_enabled()
            return t * 2.0

        x = Tensor([1.0], requires_grad=True)
        y = inference(x)
        assert y._node is None
        assert is_grad_enabled()

    def test_detach_blocks_gradient(self):
        x = Tensor([1.0], requires_grad=True)
        y = x.detach() * 5.0
        assert y.requires_grad is False

    def test_scalar_leaf_backward_on_self(self):
        x = Tensor(3.0, requires_grad=True)
        x.backward()
        assert x.grad == pytest.approx(1.0)

    def test_diamond_graph(self):
        # x feeds two paths that merge; gradient should sum the path products.
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        y = a * b  # y = 12 x^2, dy/dx = 24 x = 48
        y.backward()
        assert x.grad == pytest.approx([48.0])


class TestGraphHoldsWhatBackwardReads:
    """A graph links the nodes that made its inputs, not the tensors.

    So an intermediate's array dies with the last Python reference to it
    (by reference counting, hence the cycle collector is off), unless an
    op saved it for its backward pass.
    """

    @pytest.fixture(autouse=True)
    def no_cycle_collector(self):
        gc.disable()
        yield
        gc.enable()

    def test_add_does_not_pin_its_operands(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = x + 1.0
        ref = weakref.ref(y.data)
        z = y + 2.0
        loss = z.mean()
        del y
        assert ref() is None
        loss.backward()
        np.testing.assert_array_equal(x.grad, np.full(3, 1 / 3))
        assert z.grad is None and loss.grad is None

    def test_mul_saves_only_the_operand_a_wanted_gradient_reads(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        h = x + 0.0
        ref = weakref.ref(h.data)
        z = h * 0.5
        loss = z.mean()
        del h
        assert ref() is None
        loss.backward()
        np.testing.assert_array_equal(x.grad, np.full(3, 0.5 / 3))
        assert z.grad is None and loss.grad is None


class TestOperatorSemantics:
    def test_radd_rsub_rmul(self):
        x = Tensor([2.0], requires_grad=True)
        assert (1.0 + x).numpy() == pytest.approx([3.0])
        assert (5.0 - x).numpy() == pytest.approx([3.0])
        assert (3.0 * x).numpy() == pytest.approx([6.0])

    def test_reflected_operator_gradients(self):
        x = Tensor([2.0, -1.0], requires_grad=True)
        ((1.0 + x) + (5.0 - x) * 2.0 + 3.0 * x).backward(np.ones(2))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    @pytest.mark.parametrize(
        "expr,grad",
        [
            (lambda x: x + 0.5, 1.0),
            (lambda x: 0.5 + x, 1.0),
            (lambda x: x - np.float64(0.5), 1.0),
            (lambda x: 0.5 - x, -1.0),
            (lambda x: x * np.float64(0.5), 0.5),
            (lambda x: 0.5 * x, 0.5),
        ],
        ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
    )
    def test_scalar_operand_takes_the_tensor_dtype(self, expr, grad):
        # ``mem * beta`` with a Python or float64 beta must not promote a
        # float32 membrane, or the whole network would train in float64.
        x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        out = expr(x)
        assert out.dtype == np.float32
        out.backward(np.ones(2, dtype=np.float32))
        assert x.grad.dtype == np.float32 and x.grad.tolist() == [grad, grad]

    def test_getitem_scatter_gradient(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
        x[0].backward(np.ones(3))
        assert np.allclose(x.grad, [[1, 1, 1], [0, 0, 0]])

    def test_getitem_with_fancy_index(self):
        x = Tensor(np.arange(9, dtype=np.float64).reshape(3, 3), requires_grad=True)
        idx = np.array([0, 2])
        picked = x[idx, idx]
        picked.backward(np.ones(2))
        expected = np.zeros((3, 3))
        expected[0, 0] = 1
        expected[2, 2] = 1
        assert np.allclose(x.grad, expected)

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        idx = np.array([1, 1])
        x[idx].backward(np.ones(2))
        assert np.allclose(x.grad, [0.0, 2.0, 0.0])
