"""Unit tests for the surrogate gradient library (paper Eq. 3-4)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.ops_spiking import fused_lif_step, surrogate_backward
from repro.surrogate import (
    ArcTan,
    FastSigmoid,
    PiecewiseLinear,
    Sigmoid,
    StraightThrough,
    Triangular,
    available_surrogates,
    get_surrogate,
    register_surrogate,
)
from repro.surrogate.base import HeavisideExact, SurrogateFunction


class TestArcTan:
    def test_derivative_matches_paper_equation(self):
        """dS/dU = (alpha/2) / (1 + (pi U alpha / 2)^2)  (derivative of Eq. 3)."""
        alpha = 2.0
        surrogate = ArcTan(scale=alpha)
        u = np.linspace(-3, 3, 31)
        expected = (alpha / 2.0) / (1.0 + (np.pi * u * alpha / 2.0) ** 2)
        assert np.allclose(surrogate.derivative(u), expected)

    def test_derivative_is_numerical_derivative_of_forward(self):
        surrogate = ArcTan(scale=4.0)
        u = np.linspace(-2, 2, 41)
        eps = 1e-6
        numerical = (surrogate.forward_smooth(u + eps) - surrogate.forward_smooth(u - eps)) / (2 * eps)
        assert np.allclose(surrogate.derivative(u), numerical, atol=1e-5)

    def test_peak_at_zero_scales_with_alpha(self):
        assert ArcTan(scale=8.0).derivative(np.array([0.0]))[0] == pytest.approx(4.0)

    def test_larger_scale_narrows_support(self):
        narrow = ArcTan(scale=16.0).derivative(np.array([1.0]))[0]
        wide = ArcTan(scale=0.5).derivative(np.array([1.0]))[0]
        # Relative to its own peak, the high-scale surrogate decays much faster.
        assert narrow / 8.0 < wide / 0.25


class TestFastSigmoid:
    def test_derivative_matches_paper_equation(self):
        """dS/dU = 1 / (1 + k|U|)^2 (derivative of Eq. 4)."""
        k = 25.0
        surrogate = FastSigmoid(scale=k)
        u = np.linspace(-2, 2, 21)
        expected = 1.0 / (1.0 + k * np.abs(u)) ** 2
        assert np.allclose(surrogate.derivative(u), expected)

    def test_derivative_is_numerical_derivative_of_forward(self):
        surrogate = FastSigmoid(scale=3.0)
        u = np.concatenate([np.linspace(-2, -0.1, 10), np.linspace(0.1, 2, 10)])
        eps = 1e-7
        numerical = (surrogate.forward_smooth(u + eps) - surrogate.forward_smooth(u - eps)) / (2 * eps)
        assert np.allclose(surrogate.derivative(u), numerical, atol=1e-4)

    def test_peak_is_one_regardless_of_scale(self):
        for k in (0.25, 1.0, 25.0):
            assert FastSigmoid(scale=k).derivative(np.array([0.0]))[0] == pytest.approx(1.0)

    def test_symmetric_in_u(self):
        surrogate = FastSigmoid(scale=5.0)
        u = np.linspace(0.1, 3, 10)
        assert np.allclose(surrogate.derivative(u), surrogate.derivative(-u))


class TestOtherSurrogates:
    def test_sigmoid_derivative_positive_and_peaked_at_zero(self):
        surrogate = Sigmoid(scale=10.0)
        u = np.linspace(-1, 1, 21)
        d = surrogate.derivative(u)
        assert (d > 0).all()
        assert d.argmax() == 10  # centre of the grid

    def test_triangular_support_is_bounded(self):
        surrogate = Triangular(scale=2.0)
        assert surrogate.derivative(np.array([0.6]))[0] == pytest.approx(0.0)
        assert surrogate.derivative(np.array([0.0]))[0] == pytest.approx(2.0)

    def test_piecewise_linear_is_boxcar(self):
        surrogate = PiecewiseLinear(scale=2.0)
        d = surrogate.derivative(np.array([0.0, 0.4, 0.6]))
        assert d[0] == pytest.approx(1.0)
        assert d[1] == pytest.approx(1.0)
        assert d[2] == pytest.approx(0.0)

    def test_straight_through_passes_gradient(self):
        surrogate = StraightThrough()
        assert np.allclose(surrogate.derivative(np.array([-5.0, 0.0, 5.0])), 1.0)

    def test_heaviside_exact_has_zero_gradient(self):
        surrogate = HeavisideExact()
        assert np.allclose(surrogate.derivative(np.array([-1.0, 0.0, 1.0])), 0.0)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            FastSigmoid(scale=0.0)
        with pytest.raises(ValueError):
            ArcTan(scale=-1.0)


def _arctan(s, u):
    inner = np.pi * u * s.scale / 2.0
    return (s.scale / 2.0) / (1.0 + inner * inner)


def _fast_sigmoid(s, u):
    denom = 1.0 + s.scale * np.abs(u)
    return 1.0 / (denom * denom)


def _sigmoid(s, u):
    sig = 1.0 / (1.0 + np.exp(-s.scale * np.clip(u, -60.0 / s.scale, 60.0 / s.scale)))
    return s.scale * sig * (1.0 - sig)


#: Each registered surrogate's derivative as a plain expression: the
#: reference its implementation must reproduce byte for byte.
REFERENCE_DERIVATIVES = {
    "arctan": _arctan,
    "fast_sigmoid": _fast_sigmoid,
    "heaviside": lambda s, u: np.zeros_like(u),
    "piecewise_linear": lambda s, u: 0.5 * s.scale * (np.abs(u) < 1.0 / s.scale).astype(u.dtype),
    "sigmoid": _sigmoid,
    "straight_through": lambda s, u: np.full_like(np.asarray(u, dtype=np.float64), s.scale),
    "triangular": lambda s, u: s.scale * np.maximum(0.0, 1.0 - np.abs(u) * s.scale),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", available_surrogates())
def test_derivative_keeps_its_bits_in_a_fresh_array(name, dtype):
    rng = np.random.default_rng(7)
    edges = [0.0, -0.0, 1e-30, -1e-30, 0.04, -0.04, 0.5, -0.5, 1.0, -1.0, 4.0, -4.0, 60.0, -60.0, 1e6, -1e6,
             np.inf, -np.inf]
    u = np.concatenate([rng.standard_normal(500) * 2.0, edges]).astype(dtype).reshape(2, -1)
    before = u.copy()
    for scale in (0.25, 2.0, 25.0):
        surrogate = get_surrogate(name, scale)
        got = surrogate.derivative(u)
        want = REFERENCE_DERIVATIVES[name](surrogate, u)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert u.tobytes() == before.tobytes()
        again = surrogate.derivative(u)
        assert got is not u and got.flags.writeable
        assert not np.shares_memory(got, u) and not np.shares_memory(got, again)
        for point in (u[0, 3], np.array(u[0, 3])):  # a NumPy scalar and a 0-d array
            got, want = surrogate.derivative(point), REFERENCE_DERIVATIVES[name](surrogate, point)
            assert np.asarray(got).dtype == np.asarray(want).dtype
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class _Returning(SurrogateFunction):
    """A user surrogate whose derivative is ``fn(u)``, which may not be a fresh array."""

    name = "returning"

    def __init__(self, fn) -> None:
        super().__init__(1.0)
        self.fn = fn

    def derivative(self, u):
        return self.fn(u)


class TestRegistry:
    def test_all_paper_surrogates_registered(self):
        names = available_surrogates()
        assert "arctan" in names
        assert "fast_sigmoid" in names

    def test_get_surrogate_with_scale(self):
        s = get_surrogate("fast_sigmoid", 0.25)
        assert isinstance(s, FastSigmoid)
        assert s.scale == 0.25

    def test_get_surrogate_normalises_name(self):
        assert isinstance(get_surrogate("Fast-Sigmoid"), FastSigmoid)
        assert isinstance(get_surrogate("ARCTAN"), ArcTan)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_surrogate("does_not_exist")

    def test_register_custom_surrogate(self):
        @register_surrogate
        class ConstantHalf(SurrogateFunction):
            name = "constant_half_test"

            def forward_smooth(self, u):
                return 0.5 * u

            def derivative(self, u):
                return np.full_like(np.asarray(u, dtype=np.float64), 0.5)

        assert isinstance(get_surrogate("constant_half_test"), ConstantHalf)

    def test_register_requires_name(self):
        class Unnamed(SurrogateFunction):
            name = ""

        with pytest.raises(ValueError):
            register_surrogate(Unnamed)

    def test_equality_and_hash(self):
        assert FastSigmoid(2.0) == FastSigmoid(2.0)
        assert FastSigmoid(2.0) != FastSigmoid(3.0)
        assert hash(FastSigmoid(2.0)) == hash(FastSigmoid(2.0))


def _spike(values, threshold, surrogate):
    """One LIF step from rest with ``beta = 0``: ``(input, spikes)``.

    The charged membrane is the input itself, so the spikes are
    ``input > threshold`` and the input's gradient is the surrogate
    derivative at ``input - threshold``.
    """
    x = Tensor(values, requires_grad=True)
    spikes, _, _ = fused_lif_step(Tensor(np.zeros_like(x.data)), x, 0.0, threshold, surrogate)
    return x, spikes


class TestSpikeFunction:
    """The fused LIF step's spike function: Heaviside forward, surrogate backward."""

    def test_forward_is_heaviside_of_centred_potential(self):
        _, spikes = _spike([0.5, 1.0, 1.5], 1.0, FastSigmoid(25.0))
        # Strict inequality: u > theta.
        assert spikes.tolist() == [0.0, 0.0, 1.0]

    def test_backward_uses_surrogate_derivative(self):
        surrogate = FastSigmoid(scale=2.0)
        x, spikes = _spike([0.0, 1.0, 2.0], 1.0, surrogate)
        spikes.backward(np.ones(3))
        expected = surrogate.derivative(np.array([0.0, 1.0, 2.0]) - 1.0)
        np.testing.assert_array_equal(x.grad, expected)

    @pytest.mark.parametrize("name", available_surrogates())
    def test_every_registered_surrogate_scales_the_input_gradient(self, name):
        surrogate = get_surrogate(name, 2.0)
        values = np.array([[-0.5, 0.2, 0.9, 1.0, 1.1, 2.4]])
        x, spikes = _spike(values, 1.0, surrogate)
        np.testing.assert_array_equal(spikes.numpy(), (values > 1.0).astype(np.float64))
        go = np.linspace(0.5, 3.0, 6).reshape(1, 6)
        spikes.backward(go)
        np.testing.assert_array_equal(x.grad, go * surrogate.derivative(values - 1.0))

    def test_backward_with_arctan(self):
        surrogate = ArcTan(scale=2.0)
        x, spikes = _spike([0.3, 1.3], 1.0, surrogate)
        spikes.backward(np.ones(2))
        expected = surrogate.derivative(np.array([0.3, 1.3]) - 1.0)
        np.testing.assert_array_equal(x.grad, expected)

    @pytest.mark.parametrize(
        "surrogate",
        [
            FastSigmoid(2.0),
            ArcTan(2.0),
            StraightThrough(),
            _Returning(lambda u: np.broadcast_to(np.float32(0.5), u.shape)),
            _Returning(lambda u: u),
            _Returning(lambda u: u[:, ::-1]),
            _Returning(lambda u: 0.5),
        ],
        ids=["fast_sigmoid", "arctan", "straight_through", "read-only", "input", "input-view", "scalar"],
    )
    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
    def test_backward_product_goes_only_into_a_derivative_it_owns(self, surrogate, grad_dtype):
        # The fused LIF's charge and reset nodes pass their incoming gradient
        # on unchanged as another input's gradient, and the saved potential
        # belongs to the node, so the product may reuse only a fresh
        # derivative array of the product's dtype.
        centred = np.array([[-0.8, 0.0, 0.7]], dtype=np.float32)
        saved = centred.copy()
        go = np.array([[0.5, -2.0, 3.0]], dtype=grad_dtype)
        seed = go.copy()
        grad = surrogate_backward(go, surrogate, centred)
        want = seed * surrogate.derivative(saved)
        assert grad.dtype == want.dtype and grad.tobytes() == want.tobytes()
        assert go.tobytes() == seed.tobytes() and centred.tobytes() == saved.tobytes()

    def test_output_is_binary(self):
        rng = np.random.default_rng(0)
        _, spikes = _spike(rng.standard_normal((4, 5)), 0.0, FastSigmoid())
        assert set(np.unique(spikes.numpy())).issubset({0.0, 1.0})
