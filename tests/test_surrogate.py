"""Unit tests for the surrogate gradient library (paper Eq. 3-4)."""

import numpy as np
import pytest
from conftest import TriangleSurrogate

from repro.autograd import Tensor
from repro.autograd.ops_spiking import fused_lif_step, surrogate_backward
from repro.core.sweeps import PAPER_SCALE_SWEEP, PAPER_SURROGATES
from repro.surrogate import (
    ArcTan,
    FastSigmoid,
    SurrogateFunction,
    available_surrogates,
    get_surrogate,
    register_surrogate,
)


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


def test_invalid_scale_rejected():
    with pytest.raises(ValueError):
        FastSigmoid(scale=0.0)
    with pytest.raises(ValueError):
        ArcTan(scale=-1.0)


@pytest.mark.parametrize("name", PAPER_SURROGATES)
def test_nan_scale_rejected(name):
    """A NaN scale would make every surrogate gradient NaN."""
    with pytest.raises(ValueError, match="scale must be positive, got nan"):
        get_surrogate(name, float("nan"))


@pytest.mark.parametrize("scale", [min(PAPER_SCALE_SWEEP), max(PAPER_SCALE_SWEEP)])
@pytest.mark.parametrize("name", PAPER_SURROGATES)
def test_derivative_is_the_smooth_slope_at_the_figure1_scale_ends(name, scale):
    """Figure 1 trains each paper surrogate from its smallest to its largest scale."""
    surrogate = get_surrogate(name, scale)
    # Off zero: the fast sigmoid's smooth step has a kink there.
    u = np.concatenate([np.linspace(-2.0, -0.01, 25), np.linspace(0.01, 2.0, 25)])
    eps = 1e-7
    numerical = (surrogate.forward_smooth(u + eps) - surrogate.forward_smooth(u - eps)) / (2 * eps)
    np.testing.assert_allclose(surrogate.derivative(u), numerical, rtol=1e-5, atol=1e-7)


def _arctan(s, u):
    inner = np.pi * u * s.scale / 2.0
    return (s.scale / 2.0) / (1.0 + inner * inner)


def _fast_sigmoid(s, u):
    denom = 1.0 + s.scale * np.abs(u)
    return 1.0 / (denom * denom)


#: Each registered surrogate's derivative as a plain expression: the
#: reference its implementation must reproduce byte for byte.
REFERENCE_DERIVATIVES = {
    "arctan": _arctan,
    "fast_sigmoid": _fast_sigmoid,
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
    def test_only_the_paper_surrogates_are_built_in(self):
        # Figure 1 sweeps PAPER_SURROGATES, and no figure, example or
        # benchmark trains any other built-in shape: a surrogate comes back
        # only together with a sweep that trains it.
        assert available_surrogates() == sorted(PAPER_SURROGATES) == ["arctan", "fast_sigmoid"]

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

    def test_unknown_name_lists_the_available_surrogates(self):
        # A checkpoint that names a surrogate this code lacks fails to load
        # with this message, so it must say what the caller can use instead.
        with pytest.raises(KeyError) as excinfo:
            get_surrogate("Triangular")
        assert excinfo.value.args[0] == "unknown surrogate 'Triangular'; available: ['arctan', 'fast_sigmoid']"

    @pytest.mark.parametrize("name,cls,scale", [("arctan", ArcTan, 2.0), ("fast_sigmoid", FastSigmoid, 25.0)])
    def test_default_scale(self, name, cls, scale):
        """Without a scale the registry builds the class's own default (snnTorch's alpha = 2, k = 25)."""
        surrogate = get_surrogate(name)
        assert type(surrogate) is cls and surrogate.scale == scale
        assert surrogate == cls()

    def test_register_custom_surrogate(self, surrogate_registry):
        @register_surrogate
        class ConstantHalf(SurrogateFunction):
            name = "constant_half_test"

            def forward_smooth(self, u):
                return 0.5 * u

            def derivative(self, u):
                return np.full_like(np.asarray(u, dtype=np.float64), 0.5)

        assert isinstance(get_surrogate("constant_half_test"), ConstantHalf)
        assert available_surrogates() == ["arctan", "constant_half_test", "fast_sigmoid"]

    def test_register_requires_name(self):
        class Unnamed(SurrogateFunction):
            name = ""

        with pytest.raises(ValueError):
            register_surrogate(Unnamed)

    def test_equality_and_hash(self):
        assert FastSigmoid(2.0) == FastSigmoid(2.0)
        assert FastSigmoid(2.0) != FastSigmoid(3.0)
        assert hash(FastSigmoid(2.0)) == hash(FastSigmoid(2.0))

    def test_surrogates_of_different_shapes_are_unequal_at_one_scale(self):
        assert ArcTan(2.0) != FastSigmoid(2.0)
        assert TriangleSurrogate(2.0) != FastSigmoid(2.0)
        assert len({ArcTan(2.0), FastSigmoid(2.0), TriangleSurrogate(2.0)}) == 3


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

    def test_a_registered_surrogate_scales_the_input_gradient(self, registered_surrogate):
        """A caller's surrogate drives the backward, including where its derivative is zero."""
        surrogate = get_surrogate(registered_surrogate, 2.0)
        values = np.array([[-0.5, 0.2, 0.9, 1.0, 1.1, 2.4]])
        x, spikes = _spike(values, 1.0, surrogate)
        np.testing.assert_array_equal(spikes.numpy(), (values > 1.0).astype(np.float64))
        go = np.linspace(0.5, 3.0, 6).reshape(1, 6)
        spikes.backward(go)
        np.testing.assert_array_equal(x.grad, go * surrogate.derivative(values - 1.0))
        # Support |u| < 1/2: only the three inputs near threshold get a gradient.
        assert (x.grad != 0).tolist() == [[False, False, True, True, True, False]]

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
            _Returning(lambda u: np.ones(u.shape)),
            _Returning(lambda u: np.broadcast_to(np.float32(0.5), u.shape)),
            _Returning(lambda u: u),
            _Returning(lambda u: u[:, ::-1]),
            _Returning(lambda u: 0.5),
        ],
        ids=["fast_sigmoid", "arctan", "fresh-float64", "read-only", "input", "input-view", "scalar"],
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
