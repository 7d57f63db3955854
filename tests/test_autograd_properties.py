"""Property-based tests (hypothesis) for autograd invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, no_grad
from repro.autograd.function import Node, unbroadcast

small_floats = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(small_floats)
def test_mean_gradient_is_uniform_and_sums_to_one(data):
    x = Tensor(data, requires_grad=True)
    x.mean().backward()
    assert np.allclose(x.grad.sum(), 1.0, atol=1e-8)
    assert np.allclose(x.grad, x.grad.reshape(-1)[0])


@settings(max_examples=40, deadline=None)
@given(small_floats, st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_add_scalar_gradient_identity(data, scalar):
    x = Tensor(data, requires_grad=True)
    (x + scalar).backward(np.ones_like(data))
    assert np.allclose(x.grad, 1.0)


@settings(max_examples=40, deadline=None)
@given(small_floats)
def test_mul_by_two_equals_add_self(data):
    """x * 2 and x + x must produce identical values and gradients."""
    x1 = Tensor(data.copy(), requires_grad=True)
    x2 = Tensor(data.copy(), requires_grad=True)
    (x1 * 2.0).backward(np.ones_like(data))
    (x2 + x2).backward(np.ones_like(data))
    assert np.allclose(x1.grad, x2.grad)


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
        elements=st.floats(min_value=-20, max_value=20, allow_nan=False),
    )
)
def test_logsumexp_bounds(data):
    """max(x) <= logsumexp(x) <= max(x) + log(n)."""
    out = Tensor(data).logsumexp().numpy()
    row_max = data.max(axis=-1)
    assert np.all(out >= row_max - 1e-9)
    assert np.all(out <= row_max + np.log(data.shape[-1]) + 1e-9)


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
        elements=st.floats(min_value=-20, max_value=20, allow_nan=False),
    )
)
def test_logsumexp_gradient_rows_are_distributions(data):
    """The gradient is a softmax: non-negative, each row summing to one."""
    x = Tensor(data, requires_grad=True)
    x.logsumexp().backward(np.ones(data.shape[0]))
    assert np.all(x.grad >= 0)
    assert np.allclose(x.grad.sum(axis=-1), 1.0)


@settings(max_examples=40, deadline=None)
@given(small_floats)
def test_mul_gradient_is_the_other_operand(data):
    x = Tensor(data, requires_grad=True)
    y = Tensor(data[::-1].copy() + 1.0, requires_grad=True)
    (x * y).backward(np.ones_like(data))
    np.testing.assert_array_equal(x.grad, y.data)
    np.testing.assert_array_equal(y.grad, x.data)


@settings(max_examples=40, deadline=None)
@given(small_floats)
def test_sub_gradients_are_opposite(data):
    x = Tensor(data, requires_grad=True)
    y = Tensor(data[..., :1], requires_grad=True)  # broadcast along the last axis
    (x - y).backward(np.ones_like(data))
    np.testing.assert_array_equal(x.grad, np.ones_like(data))
    np.testing.assert_array_equal(y.grad, np.full(y.shape, -float(data.shape[-1])))


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=2, max_dims=4, min_side=1, max_side=4),
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
)
def test_flatten_preserves_values_and_gradient(data):
    x = Tensor(data, requires_grad=True)
    flat = x.flatten()
    assert flat.shape == (data.shape[0], data[0].size)
    np.testing.assert_array_equal(flat.numpy().ravel(), data.ravel())
    seed = np.arange(flat.size, dtype=np.float64).reshape(flat.shape)
    flat.backward(seed)
    np.testing.assert_array_equal(x.grad.ravel(), seed.ravel())


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
)
def test_unbroadcast_restores_shape(data):
    """unbroadcast(broadcast(x)) always returns the original shape."""
    target_shape = (1,) + data.shape[1:]
    broadcast = np.broadcast_to(data[:1], data.shape)
    reduced = unbroadcast(broadcast.copy(), target_shape)
    assert reduced.shape == target_shape


@pytest.fixture
def node_counter(monkeypatch):
    """Count every Node the graph recorder instantiates."""
    created = []
    original_init = Node.__init__

    def counting_init(self, fn, ctx, inputs):
        created.append(fn)
        original_init(self, fn, ctx, inputs)

    monkeypatch.setattr(Node, "__init__", counting_init)
    return created


def test_no_grad_records_no_nodes(node_counter):
    """Ops on requires_grad tensors must not build a graph under no_grad."""
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
    w = Tensor(np.random.default_rng(1).standard_normal((5, 4)), requires_grad=True)
    with no_grad():
        out = (x.linear(w) * 2.0 + 1.0).mean()
    assert out._node is None
    assert not out.requires_grad
    assert node_counter == []


def test_runtime_execution_records_no_nodes(node_counter):
    """The compiled plan must never touch the autograd graph.

    This is the memory/graph leak guard for inference: a full compiled run
    over a network with requires_grad parameters must instantiate zero
    graph nodes, while a dense training forward on the same model must
    instantiate plenty.
    """
    from repro.core.network import SpikingMLP
    from repro.runtime import compile_network

    model = SpikingMLP(in_features=12, hidden_units=6, seed=0)
    model.eval()
    spikes = (np.random.default_rng(2).random((4, 3, 12)) < 0.3).astype(np.float32)

    compile_network(model).run(spikes, collect_spike_trains=True)
    assert node_counter == [], "runtime execution recorded autograd nodes"

    model.train()
    model.reset_spiking_state()
    model(Tensor(spikes))
    assert len(node_counter) > 0, "sanity check: dense training forward should record nodes"


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=3, max_value=6),
)
def test_conv_then_pool_shapes_consistent(n, c, size):
    """conv(pad=1) preserves spatial dims; pooling halves them (floor)."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((n, c, size, size)))
    w = Tensor(rng.standard_normal((2, c, 3, 3)))
    out = x.conv2d(w, None, stride=1, padding=1)
    assert out.shape == (n, 2, size, size)
    pooled = out.max_pool2d(2)
    assert pooled.shape == (n, 2, size // 2, size // 2)
