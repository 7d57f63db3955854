"""Fused LIF training step vs. the composed elementwise implementation.

The fused step (:func:`repro.autograd.ops_spiking.fused_lif_step`) must be a
drop-in replacement for the chain of ``Mul``/``Add``/:class:`SpikeFunction`/
``Sub`` ops in :func:`composed_step` and, for the adaptive-threshold neuron,
in :func:`composed_adaptive_step`, the oracles kept here: identical spikes,
identical membrane (and trace) trajectory, and **bit-for-bit identical
gradients** for every surrogate, ``beta``/``theta`` combination and
adaptation rule — that is what makes it safe to route every training run
(and therefore every cached sweep record) through it.

Both it and the compiled plan's ``NeuronKernel`` run
:func:`repro.autograd.ops_spiking.lif_forward` on raw arrays; the tests at
the end pin that step itself: one worked step of Eq. 1-2 with and without
a leak, ``rint`` after each decay on an integer grid, and the same result
whether it writes fresh arrays (training) or updates its states in place
(the kernel).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.function import Function
from repro.autograd.ops_spiking import (
    _LIFCharge,
    _LIFReset,
    _LIFSpike,
    fused_lif_step,
    lif_forward,
    surrogate_backward,
)
from repro.autograd.tensor import zeros
from repro.core.sweeps import PAPER_SCALE_SWEEP, PAPER_SURROGATES
from repro.neurons.adaptive import AdaptiveLIF
from repro.neurons.lif import LIF
from repro.surrogate.registry import get_surrogate

SURROGATES = ["fast_sigmoid", "arctan"]
#: Layers each comparison runs: (label, adaptation (step, decay) or None for LIF).
#: Step 0 never raises the threshold; decay 1.0 never forgets a spike.
NEURONS = [
    ("lif", None),
    ("adaptive", (0.3, 0.8)),
    ("adaptive-step0", (0.0, 0.8)),
    ("adaptive-decay1", (0.3, 1.0)),
]


class SpikeFunction(Function):
    """Heaviside forward / surrogate backward, as its own graph op.

    ``forward(u, threshold, surrogate)`` returns ``1`` where ``u > threshold``
    else ``0``; ``backward`` multiplies the incoming gradient by the
    surrogate derivative at ``u - threshold``.
    """

    @staticmethod
    def forward(ctx, u: np.ndarray, threshold: float, surrogate) -> np.ndarray:
        centred = u - threshold
        ctx.save_for_backward(centred, surrogate)
        return (centred > 0).astype(u.dtype)

    @staticmethod
    def backward(ctx, grad_output: np.ndarray):
        centred, surrogate = ctx.saved
        return surrogate_backward(grad_output, surrogate, centred), None, None


def spike(membrane: Tensor, threshold: float, surrogate) -> Tensor:
    """Spikes of ``membrane`` at ``threshold`` with ``surrogate``'s gradient."""
    return SpikeFunction.apply(membrane, float(threshold), surrogate)


def composed_step(lif: LIF, synaptic_input: Tensor) -> Tensor:
    """One LIF step built from individual elementwise autograd ops."""
    if lif.state.mem is None or lif.state.mem.shape != synaptic_input.shape:
        lif.state.mem = zeros(synaptic_input.shape, dtype=synaptic_input.dtype)
    mem = lif.state.mem * lif.beta + synaptic_input
    spikes = spike(mem, lif.threshold, lif.surrogate)
    lif.state.mem = mem - spikes.detach() * lif.threshold
    return spikes


def composed_adaptive_step(layer: AdaptiveLIF, synaptic_input: Tensor) -> Tensor:
    """One AdaptiveLIF step built from individual elementwise autograd ops."""
    state = layer.state
    if state.mem is None or state.mem.shape != synaptic_input.shape:
        state.mem = zeros(synaptic_input.shape, dtype=synaptic_input.dtype)
        state.trace = zeros(synaptic_input.shape, dtype=synaptic_input.dtype)
    mem = state.mem * layer.beta + synaptic_input
    theta_eff = state.trace.detach() * layer.adaptation_step + layer.threshold
    # The spike operator takes a scalar threshold; centre the membrane by
    # the adaptive offset so the comparison is against theta_eff.
    centred = mem - (theta_eff - layer.threshold)
    spikes = spike(centred, layer.threshold, layer.surrogate)
    mem = mem - spikes.detach() * theta_eff
    state.trace = state.trace * layer.adaptation_decay + spikes.detach()
    state.mem = mem
    return spikes


def _run_sequence(fused: bool, *, adaptation=None, surrogate: str, scale: float,
                  beta: float, threshold: float, dtype=np.float32, steps: int = 6,
                  read_membrane: bool = False):
    """Drive one LIF (or, given ``adaptation``, AdaptiveLIF) layer over a BPTT
    sequence and return grads + outputs.  With ``read_membrane`` the
    objective also reads every step's membrane."""
    rng = np.random.default_rng(42)
    common = dict(beta=beta, threshold=threshold, surrogate=get_surrogate(surrogate, scale))
    if adaptation is None:
        layer, composed = LIF(**common), composed_step
    else:
        step, decay = adaptation
        layer = AdaptiveLIF(adaptation_step=step, adaptation_decay=decay, **common)
        composed = composed_adaptive_step
    # 128 neurons: enough that a re-associated threshold offset changes some
    # surrogate argument's last bit, which a 12-neuron layer may not.
    inputs = [Tensor(rng.standard_normal((8, 16)).astype(dtype), requires_grad=True) for _ in range(steps)]
    counts = membranes = None
    total_spikes = 0.0
    for frame in inputs:
        spikes = layer.step(frame) if fused else composed(layer, frame)
        total_spikes += float(spikes.data.sum())
        counts = spikes if counts is None else counts + spikes
        if read_membrane:
            membranes = layer.state.mem if membranes is None else layer.state.mem + membranes
    # Non-uniform upstream gradient so the surrogate backward is exercised
    # with something richer than all-ones.
    objective = counts * counts.detach() + counts
    if membranes is not None:
        # Read before the counts, so the backward reaches each membrane from
        # the loss first: a graph whose charged membrane had a third reader
        # would sum its gradients in another order.
        objective = membranes * membranes.detach() + objective
    objective.backward(np.ones_like(objective.data))
    grads = [frame.grad.copy() for frame in inputs]
    trace = None if layer.state.trace is None else layer.state.trace.data.copy()
    return grads, counts.data.copy(), layer.state.mem.data.copy(), trace, total_spikes


def _assert_same_runs(fused, composed, label: str) -> None:
    """Input gradients, counts, membrane, trace and spike total agree bit for bit."""
    (fused_grads, *fused_rest), (comp_grads, *comp_rest) = fused, composed
    for fused_value, comp_value in zip(fused_grads + fused_rest, comp_grads + comp_rest):
        np.testing.assert_array_equal(fused_value, comp_value, err_msg=label)


@pytest.mark.parametrize("surrogate", SURROGATES)
def test_fused_matches_composed_bitwise(surrogate):
    kwargs = dict(surrogate=surrogate, scale=2.0, beta=0.25, threshold=1.0)
    for label, adaptation in NEURONS:
        _assert_same_runs(
            _run_sequence(True, adaptation=adaptation, **kwargs),
            _run_sequence(False, adaptation=adaptation, **kwargs),
            label,
        )


@pytest.mark.parametrize("surrogate", SURROGATES)
def test_fused_matches_composed_bitwise_when_the_loss_reads_the_membrane(surrogate):
    """Each membrane then has two readers, the loss and the next step, in both graphs."""
    kwargs = dict(surrogate=surrogate, scale=2.0, beta=0.25, threshold=1.0, read_membrane=True)
    for label, adaptation in NEURONS:
        _assert_same_runs(
            _run_sequence(True, adaptation=adaptation, **kwargs),
            _run_sequence(False, adaptation=adaptation, **kwargs),
            label,
        )


def test_fused_matches_composed_bitwise_with_a_registered_surrogate(registered_surrogate):
    """A caller's surrogate with bounded support: the gradients it zeroes must match too."""
    kwargs = dict(surrogate=registered_surrogate, scale=2.0, beta=0.25, threshold=1.0)
    for label, adaptation in NEURONS:
        fused = _run_sequence(True, adaptation=adaptation, **kwargs)
        _assert_same_runs(fused, _run_sequence(False, adaptation=adaptation, **kwargs), label)
        grads = np.concatenate(fused[0])
        assert 0 < np.count_nonzero(grads) < grads.size, label


@pytest.mark.parametrize("scale", PAPER_SCALE_SWEEP)
@pytest.mark.parametrize("surrogate", PAPER_SURROGATES)
def test_fused_matches_composed_over_the_figure1_grid(surrogate, scale):
    """Every (surrogate, scale) cell Figure 1 trains, at the paper's beta and theta."""
    kwargs = dict(surrogate=surrogate, scale=scale, beta=0.25, threshold=1.0)
    for label, adaptation in NEURONS:
        _assert_same_runs(
            _run_sequence(True, adaptation=adaptation, **kwargs),
            _run_sequence(False, adaptation=adaptation, **kwargs),
            label,
        )


@pytest.mark.parametrize("threshold", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("surrogate", PAPER_SURROGATES)
def test_fused_matches_composed_without_leak(surrogate, threshold):
    """``beta = 1`` (the integrate-and-fire neuron): the membrane keeps all it does not spend."""
    kwargs = dict(surrogate=surrogate, scale=0.25, beta=1.0, threshold=threshold)
    for label, adaptation in NEURONS:
        _assert_same_runs(
            _run_sequence(True, adaptation=adaptation, **kwargs),
            _run_sequence(False, adaptation=adaptation, **kwargs),
            label,
        )


@pytest.mark.parametrize("beta,threshold", [(0.0, 0.5), (0.25, 1.0), (0.5, 1.5), (0.95, 2.5), (1.0, 1.0)])
def test_fused_matches_composed_over_hyperparameters(beta, threshold):
    kwargs = dict(surrogate="fast_sigmoid", scale=0.25, beta=beta, threshold=threshold, dtype=np.float64)
    for label, adaptation in NEURONS:
        _assert_same_runs(
            _run_sequence(True, adaptation=adaptation, **kwargs),
            _run_sequence(False, adaptation=adaptation, **kwargs),
            label,
        )


def test_fused_step_gradient_is_surrogate_derivative():
    """Single-step analytic check: d(spikes)/d(input) is the surrogate at U - theta."""
    surrogate = get_surrogate("fast_sigmoid", 2.0)
    mem_prev = Tensor(np.zeros((2, 3)), requires_grad=False)
    syn = Tensor(np.linspace(-2.0, 2.0, 6).reshape(2, 3), requires_grad=True)
    spikes, new_mem, _ = fused_lif_step(mem_prev, syn, beta=0.5, threshold=1.0, surrogate=surrogate)
    spikes.backward(np.ones_like(spikes.data))
    centred = syn.data - 1.0  # beta * 0 + syn, centred at theta
    np.testing.assert_allclose(syn.grad, surrogate.derivative(centred))
    np.testing.assert_array_equal(spikes.data, (centred > 0).astype(syn.dtype))
    np.testing.assert_allclose(new_mem.data, syn.data - spikes.data * 1.0)


def test_fused_subtract_reset_keeps_a_wider_membrane_dtype():
    """A float64 membrane driven by float32 input stays float64 through the reset."""
    surrogate = get_surrogate("fast_sigmoid", 2.0)
    mem_prev = Tensor(np.array([[0.1, 0.7, 3.9]]))
    syn = Tensor(np.array([[0.3, 0.45, 0.2]], dtype=np.float32))
    spikes, new_mem, _ = fused_lif_step(mem_prev, syn, beta=0.3, threshold=1.1, surrogate=surrogate)
    mem = mem_prev.data * np.float32(0.3) + syn.data
    expected = mem - spikes.data * np.float32(1.1)
    assert spikes.data.tolist() == [[0.0, 0.0, 1.0]]
    assert new_mem.dtype == np.float64
    assert new_mem.data.tobytes() == expected.tobytes()


def test_fused_membrane_gradient_routes_through_beta():
    """d(new_mem)/d(mem_prev) must include the leak factor once per step."""
    beta = 0.5
    surrogate = get_surrogate("fast_sigmoid", 2.0)
    mem_prev = Tensor(np.full((1, 2), 0.3), requires_grad=True)
    syn = Tensor(np.zeros((1, 2)), requires_grad=False)
    _, new_mem, _ = fused_lif_step(mem_prev, syn, beta=beta, threshold=10.0, surrogate=surrogate)
    new_mem.backward(np.ones_like(new_mem.data))
    # No spikes fire (threshold 10), so the only path is the charge: grad = beta.
    np.testing.assert_allclose(mem_prev.grad, np.full((1, 2), beta))


@pytest.mark.parametrize("adaptive", [False, True], ids=["lif", "adaptive"])
def test_fused_step_records_charge_spike_and_reset_nodes(adaptive):
    """The spike and the reset both read the charge node; the reset's backward is the identity."""
    surrogate = get_surrogate("fast_sigmoid", 2.0)
    mem_prev = Tensor(np.array([[0.5, 1.5]]), requires_grad=True)
    syn = Tensor(np.array([[1.0, 0.25]]), requires_grad=True)
    # A trace of 0 leaves the threshold at 1.0, so both substrates fire alike.
    trace = dict(trace=Tensor(np.zeros((1, 2))), adaptation_step=0.5, adaptation_decay=0.5) if adaptive else {}
    spikes, new_mem, new_trace = fused_lif_step(mem_prev, syn, beta=0.5, threshold=1.0, surrogate=surrogate, **trace)
    assert (new_trace is None) is not adaptive
    assert new_trace is None or new_trace._node is None
    reset = new_mem._node
    assert reset.fn is _LIFReset and len(reset.inputs) == 1
    (charge,) = reset.inputs
    assert charge.fn is _LIFCharge and charge.inputs == (mem_prev, syn)
    assert spikes._node.fn is _LIFSpike and spikes._node.inputs == (charge,)
    assert spikes.data.tolist() == [[1.0, 0.0]]
    new_mem.backward(np.ones_like(new_mem.data))
    np.testing.assert_array_equal(mem_prev.grad, [[0.5, 0.5]])
    np.testing.assert_array_equal(syn.grad, [[1.0, 1.0]])


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_the_membrane_gradient_bypasses_the_reset(beta):
    """The reset's derivative is the identity: ``d u[T] / d x[t] = beta ** (T - t)``, spikes or not."""
    layer = LIF(beta=beta, threshold=0.5, surrogate=get_surrogate("fast_sigmoid", 2.0))
    inputs = [Tensor(np.full((1, 3), 0.75), requires_grad=True) for _ in range(4)]
    fired = sum(float(layer.step(x).data.sum()) for x in inputs)
    assert fired > 0
    layer.membrane.backward(np.ones((1, 3)))
    for t, x in enumerate(inputs):
        np.testing.assert_array_equal(x.grad, np.full((1, 3), beta ** (len(inputs) - 1 - t)))


def test_fused_no_graph_under_no_grad():
    from repro.autograd import no_grad

    for layer in (LIF(), AdaptiveLIF()):
        with no_grad():
            spikes = layer.step(Tensor(np.ones((2, 2)), requires_grad=True))
        assert spikes._node is None
        assert layer.state.mem._node is None
    assert layer.state.trace._node is None and not layer.state.trace.requires_grad


# ---------------------------------------------------------------------- #
# lif_forward: the raw-array step training and the compiled plan share
# ---------------------------------------------------------------------- #
# One step on dyadic values (exact in float64), with beta = 0.5 and
# theta = 1.0.  The charged membrane is [1.125, 1.0, 1.75, 0.0, 2.0]; 1.0 sits
# on theta and does not fire.  The adaptive trace (b = 0.25, rho = 0.5)
# raises element 2's threshold to 2.0, which stops its spike, and element 4's
# to 1.5, which does not.
WORKED_MEM = [0.5, 2.0, 3.0, -1.0, 4.0]
WORKED_INPUT = [0.875, 0.0, 0.25, 0.5, 0.0]
WORKED_TRACE = [0.0, 0.0, 4.0, 1.0, 2.0]
#: Layer -> (spikes, v, membrane after the reset, trace after the step).
WORKED = {
    "lif": (
        [1, 0, 1, 0, 1],
        [1.125, 1.0, 1.75, 0.0, 2.0],
        [0.125, 1.0, 0.75, 0.0, 1.0],
        None,
    ),
    "adaptive": (
        [1, 0, 0, 0, 1],
        [1.125, 1.0, 0.75, -0.25, 1.5],
        [0.125, 1.0, 1.75, 0.0, 0.5],
        [1.0, 0.0, 2.0, 0.5, 2.0],
    ),
}
#: The same step without a leak (beta = 1): the charged membrane is
#: [1.375, 2.0, 3.25, -0.5, 4.0], and only element 3 stays below theta.
WORKED_NO_LEAK = {
    "lif": (
        [1, 1, 1, 0, 1],
        [1.375, 2.0, 3.25, -0.5, 4.0],
        [0.375, 1.0, 2.25, -0.5, 3.0],
        None,
    ),
    "adaptive": (
        [1, 1, 1, 0, 1],
        [1.375, 2.0, 2.25, -0.75, 3.5],
        [0.375, 1.0, 1.25, -0.5, 2.5],
        [1.0, 1.0, 3.0, 0.5, 2.0],
    ),
}
#: Layers the raw-array step runs: (label, adaptation (step, decay) or None).
FORWARD_NEURONS = [("lif", None), ("adaptive", (0.5, 0.75))]


@pytest.mark.parametrize("beta,worked", [(0.5, WORKED), (1.0, WORKED_NO_LEAK)], ids=["leak", "no-leak"])
@pytest.mark.parametrize("label", sorted(WORKED))
def test_lif_forward_worked_example(label, beta, worked):
    spikes_expected, v_expected, mem_expected, trace_expected = worked[label]
    trace = None if trace_expected is None else np.array(WORKED_TRACE)
    spikes, v, mem, new_trace = lif_forward(
        np.array(WORKED_MEM), np.array(WORKED_INPUT), beta, 1.0, trace,
        adaptation_step=0.25, adaptation_decay=0.5,
    )
    assert spikes.tolist() == spikes_expected
    assert v.tolist() == v_expected
    assert mem.tolist() == mem_expected
    if trace_expected is None:
        assert new_trace is None
    else:
        assert new_trace.tolist() == trace_expected


@pytest.mark.parametrize("label,adaptation", FORWARD_NEURONS)
def test_lif_forward_integer_grid_rounds_after_each_decay(label, adaptation):
    """``rint`` (half to even) follows ``beta * u`` and ``rho * a``, before the input and spike add."""
    trace = None if adaptation is None else np.array([1.0, 3.0, 0.0, 0.0])
    spikes, _, mem, trace = lif_forward(
        np.array([3.0, 5.0, -3.0, 7.0]), np.array([1.0, 0.0, 2.0, 0.0]), 0.5, 3.0,
        trace, adaptation_step=1.0, adaptation_decay=0.5, integer=True,
    )
    # rint(0.5 * u) = [2, 2, -2, 4], charged [3, 2, 0, 4]; without the rint it
    # would be [2.5, 2.5, 0.5, 3.5].  The trace lifts element 0's threshold to
    # 4 and element 1's to 6, and element 3 fires either way.
    assert spikes.tolist() == [0, 0, 0, 1]
    assert mem.tolist() == [3, 2, 0, 1]
    if adaptation is not None:
        assert trace.tolist() == [0, 2, 0, 1]  # rint([0.5, 1.5, 0, 0]) + s


@pytest.mark.parametrize("beta", [0.75, 1.0])
@pytest.mark.parametrize("integer", [False, True], ids=["float", "integer"])
@pytest.mark.parametrize("label,adaptation", FORWARD_NEURONS)
def test_lif_forward_in_place_matches_fresh(label, adaptation, integer, beta):
    """Updating states in place (the kernel) and on fresh arrays (training) agree bit for bit.

    The fresh calls must leave their inputs untouched: training saves them
    for the backward pass.  On the integer grid every state stays an exact
    integer.
    """
    step, decay = adaptation or (0.0, 0.0)
    rng = np.random.default_rng(9)
    if integer:
        # theta and b on the grid, as NeuronKernel.prepare rounds them.
        drive = [rng.integers(-3, 6, (4, 32)).astype(np.float64) for _ in range(8)]
        params = dict(beta=beta, theta=4.0, adaptation_step=4.0 * step, adaptation_decay=decay, integer=True)
    else:
        drive = [rng.standard_normal((4, 32)) for _ in range(8)]
        params = dict(beta=beta, theta=1.0, adaptation_step=step, adaptation_decay=decay)
    mem = np.zeros((4, 32))
    trace = None if adaptation is None else np.zeros((4, 32))
    mem_state = mem.copy()
    trace_state = None if trace is None else trace.copy()
    fired = 0.0
    for x in drive:
        inputs = [array for array in (mem, trace, x) if array is not None]
        snapshot = [array.copy() for array in inputs]
        spikes, _, mem, trace = lif_forward(mem, x, trace=trace, **params)
        for array, before in zip(inputs, snapshot):
            np.testing.assert_array_equal(array, before)

        in_place = lif_forward(mem_state, x, trace=trace_state, out=(mem_state, trace_state), **params)
        assert in_place[2] is mem_state and in_place[3] is trace_state
        np.testing.assert_array_equal(in_place[0], spikes)
        np.testing.assert_array_equal(mem_state, mem)
        if trace is not None:
            np.testing.assert_array_equal(trace_state, trace)
        fired += float(spikes.sum())
    assert 0 < fired < spikes.size * len(drive)
    if integer:
        for state in (mem, trace):
            assert state is None or np.array_equal(state, np.rint(state))


@pytest.mark.parametrize("label,adaptation", FORWARD_NEURONS)
def test_lif_forward_buffers_hold_the_mask_spikes_and_reset_product(label, adaptation):
    """The kernel's kept arrays: the fire mask, the returned spikes and ``s * theta`` (``s * theta_eff``)."""
    rng = np.random.default_rng(4)
    mem, x = rng.standard_normal((2, 4, 16))
    step, decay = adaptation or (0.0, 0.0)
    trace = None if adaptation is None else rng.integers(0, 3, (4, 16)).astype(np.float64)
    buffers = (np.empty((4, 16), dtype=bool), np.empty((4, 16)), np.empty((4, 16)))
    spikes, v, new_mem, _ = lif_forward(mem, x, 0.5, 1.0, trace, step, decay, buffers=buffers)
    fired, kept_spikes, product = buffers
    assert spikes is kept_spikes and 0 < fired.sum() < fired.size
    np.testing.assert_array_equal(fired, v > 1.0)
    np.testing.assert_array_equal(spikes, fired.astype(np.float64))
    theta = 1.0 if trace is None else trace * step + 1.0
    np.testing.assert_array_equal(product, spikes * theta)
    np.testing.assert_array_equal(new_mem, (mem * 0.5 + x) - product)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lif_forward_fires_exactly_where_the_surrogate_argument_is_positive(dtype):
    """``v > theta`` and ``v - theta > 0`` agree, at a tie and a few ulps either side.

    The fused step takes its spikes from the first and the surrogate's
    argument from the second.
    """
    theta = dtype(1.1)
    below = theta - dtype(4) * np.spacing(theta)
    near = [below]
    for _ in range(8):
        near.append(np.nextafter(near[-1], dtype(np.inf)))
    x = np.concatenate([np.array(near, dtype=dtype), np.random.default_rng(3).normal(1.1, 0.5, 64).astype(dtype)])
    spikes, v, _, _ = lif_forward(np.zeros_like(x), x, dtype(0.0), theta)
    np.testing.assert_array_equal(v, x)
    np.testing.assert_array_equal(spikes, (v - theta > 0).astype(dtype))
    assert 0 < spikes[: len(near)].sum() < len(near)

