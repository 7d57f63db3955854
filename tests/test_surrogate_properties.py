"""Property-based tests for surrogate gradient invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.surrogate import ArcTan, FastSigmoid, get_surrogate

scales = st.floats(min_value=0.25, max_value=32.0, allow_nan=False)
potentials = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=1, max_size=16
)


@settings(max_examples=50, deadline=None)
@given(scales, potentials)
def test_fast_sigmoid_derivative_bounded_by_one(scale, values):
    """The fast-sigmoid derivative peaks at exactly 1 and never exceeds it."""
    d = FastSigmoid(scale).derivative(np.array(values))
    assert np.all(d > 0)
    assert np.all(d <= 1.0 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(scales, potentials)
def test_arctan_derivative_bounded_by_half_scale(scale, values):
    """The arctangent derivative peaks at alpha/2 (at U = 0)."""
    d = ArcTan(scale).derivative(np.array(values))
    assert np.all(d > 0)
    assert np.all(d <= scale / 2.0 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(scales, st.floats(min_value=0.01, max_value=5.0))
def test_derivatives_are_symmetric_and_decreasing(scale, u):
    """Both paper surrogates are even functions that decay away from threshold."""
    for surrogate in (FastSigmoid(scale), ArcTan(scale)):
        near = surrogate.derivative(np.array([u / 2]))[0]
        far = surrogate.derivative(np.array([u]))[0]
        assert far <= near + 1e-12
        assert surrogate.derivative(np.array([u]))[0] == np.float64(
            surrogate.derivative(np.array([-u]))[0]
        )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["arctan", "fast_sigmoid"]), scales, potentials)
def test_smooth_forward_is_monotone_nondecreasing(name, scale, values):
    """Every smooth approximation of the step is monotone in U."""
    surrogate = get_surrogate(name, scale)
    u = np.sort(np.array(values))
    out = surrogate.forward_smooth(u)
    assert np.all(np.diff(out) >= -1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=3.0, max_value=32.0, allow_nan=False))
def test_arctan_gives_more_gradient_far_from_threshold_at_high_scales(scale):
    """For derivative scales >= 3 the arctangent surrogate delivers strictly
    more gradient one threshold-width away from the firing point than the
    fast sigmoid (quadratic vs inverse-square tails).  Neurons far below
    threshold therefore keep receiving weight updates under arctangent
    training — the mechanism consistent with the paper's observation that
    fast-sigmoid-trained models end up sparser."""
    u = np.array([1.0])
    fast = FastSigmoid(scale).derivative(u)[0]
    arct = ArcTan(scale).derivative(u)[0]
    assert arct > fast


@settings(max_examples=40, deadline=None)
@given(potentials)
def test_spike_forward_is_binary_and_matches_threshold(values):
    from repro.autograd.ops_spiking import lif_forward

    threshold = 1.0
    x = np.array(values, dtype=np.float32)
    spikes, _, _, _ = lif_forward(np.zeros_like(x), x, 0.0, threshold)
    expected = (x > threshold).astype(np.float32)
    assert spikes.dtype == np.float32 and np.array_equal(spikes, expected)
