"""Fused LIF training step vs. the composed elementwise implementation.

The fused step (:func:`repro.autograd.ops_spiking.fused_lif_step`) must be a
drop-in replacement for the chain of ``Mul``/``Add``/``Spike``/``Sub`` ops
in :func:`composed_step`, the oracle kept here: identical spikes, identical
membrane trajectory, and **bit-for-bit identical gradients** for every
surrogate, reset mechanism and ``beta``/``theta`` combination — that is what
makes it safe to route every training run (and therefore every cached sweep
record) through it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.ops_spiking import fused_lif_step
from repro.autograd.tensor import zeros
from repro.neurons.lif import LIF
from repro.surrogate.base import spike
from repro.surrogate.registry import get_surrogate

SURROGATES = ["fast_sigmoid", "arctan", "triangular", "piecewise_linear", "sigmoid"]
RESETS = ["subtract", "zero", "none"]


def composed_step(lif: LIF, synaptic_input: Tensor) -> Tensor:
    """One LIF step built from individual elementwise autograd ops."""
    if lif.state.mem is None or lif.state.mem.shape != synaptic_input.shape:
        lif.state.mem = zeros(synaptic_input.shape, dtype=synaptic_input.dtype)
    mem = lif.state.mem * lif.beta + synaptic_input
    spikes = spike(mem, lif.threshold, lif.surrogate)
    if lif.reset_mechanism == "subtract":
        mem = mem - spikes.detach() * lif.threshold
    elif lif.reset_mechanism == "zero":
        mem = mem * (1.0 - spikes.detach())
    # "none": leave the membrane as is.
    lif.state.mem = mem
    return spikes


def _run_sequence(fused: bool, *, reset: str, surrogate: str, scale: float,
                  beta: float, threshold: float, dtype=np.float32, steps: int = 6):
    """Drive one LIF layer over a BPTT sequence and return grads + outputs."""
    rng = np.random.default_rng(42)
    lif = LIF(
        beta=beta,
        threshold=threshold,
        surrogate=get_surrogate(surrogate, scale),
        reset_mechanism=reset,
    )
    inputs = [Tensor(rng.standard_normal((3, 4)).astype(dtype), requires_grad=True) for _ in range(steps)]
    counts = None
    total_spikes = 0.0
    for frame in inputs:
        spikes = lif.step(frame) if fused else composed_step(lif, frame)
        total_spikes += float(spikes.data.sum())
        counts = spikes if counts is None else counts + spikes
    # Non-uniform upstream gradient so the surrogate backward is exercised
    # with something richer than all-ones.
    (counts * counts.detach() + counts).sum().backward()
    grads = [frame.grad.copy() for frame in inputs]
    return grads, counts.data.copy(), lif.state.mem.data.copy(), total_spikes


@pytest.mark.parametrize("surrogate", SURROGATES)
@pytest.mark.parametrize("reset", RESETS)
def test_fused_matches_composed_bitwise(surrogate, reset):
    kwargs = dict(reset=reset, surrogate=surrogate, scale=2.0, beta=0.25, threshold=1.0)
    fused_grads, fused_out, fused_mem, fused_spikes = _run_sequence(True, **kwargs)
    comp_grads, comp_out, comp_mem, comp_spikes = _run_sequence(False, **kwargs)
    np.testing.assert_array_equal(fused_out, comp_out)
    np.testing.assert_array_equal(fused_mem, comp_mem)
    assert fused_spikes == comp_spikes
    for fused_g, comp_g in zip(fused_grads, comp_grads):
        np.testing.assert_array_equal(fused_g, comp_g)


@pytest.mark.parametrize("beta,threshold", [(0.0, 0.5), (0.25, 1.0), (0.5, 1.5), (0.95, 2.5), (1.0, 1.0)])
def test_fused_matches_composed_over_hyperparameters(beta, threshold):
    kwargs = dict(reset="subtract", surrogate="fast_sigmoid", scale=0.25,
                  beta=beta, threshold=threshold, dtype=np.float64)
    fused_grads, fused_out, _, _ = _run_sequence(True, **kwargs)
    comp_grads, comp_out, _, _ = _run_sequence(False, **kwargs)
    np.testing.assert_array_equal(fused_out, comp_out)
    for fused_g, comp_g in zip(fused_grads, comp_grads):
        np.testing.assert_array_equal(fused_g, comp_g)


def test_fused_step_gradient_is_surrogate_derivative():
    """Single-step analytic check: d(spikes)/d(input) is the surrogate at U - theta."""
    surrogate = get_surrogate("fast_sigmoid", 2.0)
    mem_prev = Tensor(np.zeros((2, 3)), requires_grad=False)
    syn = Tensor(np.linspace(-2.0, 2.0, 6).reshape(2, 3), requires_grad=True)
    spikes, new_mem = fused_lif_step(mem_prev, syn, beta=0.5, threshold=1.0,
                                     surrogate=surrogate, reset_mechanism="subtract")
    spikes.sum().backward()
    centred = syn.data - 1.0  # beta * 0 + syn, centred at theta
    np.testing.assert_allclose(syn.grad, surrogate.derivative(centred))
    np.testing.assert_array_equal(spikes.data, (centred > 0).astype(syn.dtype))
    np.testing.assert_allclose(new_mem.data, syn.data - spikes.data * 1.0)


def test_fused_subtract_reset_keeps_a_wider_membrane_dtype():
    """A float64 membrane driven by float32 input stays float64 through the reset."""
    surrogate = get_surrogate("fast_sigmoid", 2.0)
    mem_prev = Tensor(np.array([[0.1, 0.7, 3.9]]))
    syn = Tensor(np.array([[0.3, 0.45, 0.2]], dtype=np.float32))
    spikes, new_mem = fused_lif_step(mem_prev, syn, beta=0.3, threshold=1.1,
                                     surrogate=surrogate, reset_mechanism="subtract")
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
    _, new_mem = fused_lif_step(mem_prev, syn, beta=beta, threshold=10.0,
                                surrogate=surrogate, reset_mechanism="subtract")
    new_mem.sum().backward()
    # No spikes fire (threshold 10), so the only path is the charge: grad = beta.
    np.testing.assert_allclose(mem_prev.grad, np.full((1, 2), beta))


def test_fused_rejects_unknown_reset():
    surrogate = get_surrogate("fast_sigmoid", 2.0)
    zeros = Tensor(np.zeros((1, 1)))
    with pytest.raises(ValueError, match="reset"):
        fused_lif_step(zeros, zeros, 0.5, 1.0, surrogate, "bogus")


def test_fused_no_graph_under_no_grad():
    from repro.autograd import no_grad

    lif = LIF()
    with no_grad():
        spikes = lif.step(Tensor(np.ones((2, 2)), requires_grad=True))
    assert spikes._node is None
    assert lif.state.mem._node is None
