"""Unit tests for the spiking neuron models (paper Eq. 1-2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor
from repro.neurons import NEURON_TYPES, LIF, AdaptiveLIF, build_neuron
from repro.surrogate import FastSigmoid


class TestLIFDynamics:
    def test_membrane_integrates_input(self):
        lif = LIF(beta=0.5, threshold=10.0)  # high threshold: no spikes
        lif.step(Tensor([[1.0]]))
        assert lif.membrane.numpy()[0, 0] == pytest.approx(1.0)
        lif.step(Tensor([[1.0]]))
        # u = 0.5 * 1.0 + 1.0
        assert lif.membrane.numpy()[0, 0] == pytest.approx(1.5)

    def test_beta_controls_decay(self):
        """Higher beta retains more membrane potential (paper Sec. II-A)."""
        low = LIF(beta=0.1, threshold=100.0)
        high = LIF(beta=0.9, threshold=100.0)
        for _ in range(5):
            low.step(Tensor([[1.0]]))
            high.step(Tensor([[1.0]]))
        assert high.membrane.numpy()[0, 0] > low.membrane.numpy()[0, 0]

    def test_spike_emitted_above_threshold(self):
        lif = LIF(beta=0.5, threshold=1.0)
        spikes = lif.step(Tensor([[2.0]]))
        assert spikes.numpy()[0, 0] == 1.0

    def test_no_spike_at_or_below_threshold(self):
        lif = LIF(beta=0.5, threshold=1.0)
        assert lif.step(Tensor([[1.0]])).numpy()[0, 0] == 0.0  # strict inequality in Eq. 2
        lif.reset_state()
        assert lif.step(Tensor([[0.5]])).numpy()[0, 0] == 0.0

    def test_subtract_reset_follows_equation_1(self):
        """After a spike the membrane is reduced by exactly theta (Eq. 1)."""
        lif = LIF(beta=0.5, threshold=1.0)
        lif.step(Tensor([[2.5]]))
        assert lif.membrane.numpy()[0, 0] == pytest.approx(1.5)

    def test_beta_one_integrates_without_leak(self):
        neuron = LIF(beta=1.0, threshold=5.0)
        for _ in range(4):
            neuron.step(Tensor([[1.0]]))
        assert neuron.membrane.numpy()[0, 0] == pytest.approx(4.0)

    @pytest.mark.parametrize("adaptive", [False, True], ids=["lif", "adaptive"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_without_leak_the_membrane_keeps_every_unspent_input(self, adaptive, seed):
        """At ``beta = 1`` the subtract reset conserves charge: the inputs equal the membrane plus the thresholds spent.

        Inputs, threshold and adaptation step are multiples of 1/8 in float64,
        so every sum is exact.
        """
        drive = np.random.default_rng(seed).integers(-4, 16, (10, 2, 6)) / 8.0
        if adaptive:
            neuron = AdaptiveLIF(beta=1.0, threshold=1.0, adaptation_step=0.25, adaptation_decay=0.5)
        else:
            neuron = LIF(beta=1.0, threshold=1.0)
        spent = np.zeros(drive.shape[1:])
        for frame in drive:
            theta = 1.0 if neuron.state.trace is None else neuron.effective_threshold().numpy()
            spent += neuron.step(Tensor(frame)).numpy() * theta
        np.testing.assert_array_equal(drive.sum(axis=0), neuron.state.mem.numpy() + spent)

    def test_lower_threshold_increases_firing(self):
        """Paper Sec. II-A: lower theta increases firing frequency."""
        rng = np.random.default_rng(0)
        drive = rng.random((8, 16)).astype(np.float32)
        low = LIF(beta=0.5, threshold=0.5)
        high = LIF(beta=0.5, threshold=2.0)
        low_spikes = high_spikes = 0.0
        for _ in range(10):
            low_spikes += float(low.step(Tensor(drive)).data.sum())
            high_spikes += float(high.step(Tensor(drive)).data.sum())
        assert low_spikes > high_spikes

    @pytest.mark.parametrize("leaky_beta,retentive_beta", [(0.1, 0.95), (0.3, 1.0), (0.95, 1.0)])
    def test_higher_beta_increases_firing(self, leaky_beta, retentive_beta):
        """Paper Sec. II-A: higher beta makes firing more likely; no leak (beta = 1) fires most."""
        rng = np.random.default_rng(1)
        drive = rng.random((8, 16)).astype(np.float32) * 0.4
        leaky = LIF(beta=leaky_beta, threshold=1.0)
        retentive = LIF(beta=retentive_beta, threshold=1.0)
        leaky_spikes = retentive_spikes = 0.0
        for _ in range(20):
            leaky_spikes += float(leaky.step(Tensor(drive)).data.sum())
            retentive_spikes += float(retentive.step(Tensor(drive)).data.sum())
        assert retentive_spikes > leaky_spikes

    def test_state_reset_clears_everything(self):
        lif = LIF(beta=0.5, threshold=0.5)
        assert lif.step(Tensor([[1.0, 1.0]])).data.sum() > 0
        lif.reset_state()
        assert lif.membrane is None

    def test_state_reallocates_on_shape_change(self):
        lif = LIF(beta=0.5, threshold=1.0)
        lif.step(Tensor(np.zeros((2, 3))))
        out = lif.step(Tensor(np.zeros((4, 3))))
        assert out.shape == (4, 3)

    def test_the_retired_if_substrate_is_not_built(self):
        """``if`` was LIF at ``beta = 1``; the factory names the substrates it has."""
        assert NEURON_TYPES == ("lif", "adaptive")
        with pytest.raises(ValueError, match="unknown neuron type 'if'"):
            build_neuron("if")
        assert type(build_neuron("lif", beta=1.0)) is LIF

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            LIF(beta=1.5)
        with pytest.raises(ValueError):
            LIF(threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            LIF(threshold=float("nan"))
        with pytest.raises(ValueError):
            LIF(beta=float("nan"))


class TestLIFGradients:
    def test_gradient_flows_through_time(self):
        """BPTT: the loss at the last step must produce gradients on early inputs."""
        lif = LIF(beta=0.9, threshold=1.0, surrogate=FastSigmoid(0.5))
        inputs = [Tensor(np.full((1, 4), 0.4), requires_grad=True) for _ in range(5)]
        total = None
        for x in inputs:
            s = lif.step(x)
            total = s if total is None else total + s
        total.backward(np.ones_like(total.data))
        assert inputs[0].grad is not None
        assert np.abs(inputs[0].grad).max() > 0

    def test_firing_rate_normalisation(self):
        lif = LIF(beta=0.5, threshold=0.1)
        spikes = [lif.step(Tensor(np.ones((2, 10)))).data for _ in range(4)]
        # Every neuron fires every step -> rate 1.0
        assert np.mean(spikes) == pytest.approx(1.0)


class TestAdaptiveLIFDynamics:
    """One-step arithmetic of the adaptive threshold (theta_eff = theta + b * a)."""

    @staticmethod
    def _neuron():
        return AdaptiveLIF(beta=0.5, threshold=1.0, adaptation_step=0.5, adaptation_decay=0.5)

    def test_spike_raises_effective_threshold(self):
        neuron = self._neuron()
        assert neuron.step(Tensor([[2.0]])).numpy()[0, 0] == 1.0
        assert neuron.adaptation.numpy()[0, 0] == 1.0
        assert neuron.effective_threshold().numpy()[0, 0] == 1.5

    def test_subtract_reset_removes_the_effective_threshold(self):
        neuron = self._neuron()
        neuron.step(Tensor([[2.0]]))  # fires at theta: u = 2.0 - 1.0, a = 1
        assert neuron.step(Tensor([[2.0]])).numpy()[0, 0] == 1.0
        # u = 0.5 * 1.0 + 2.0 - 1.5: the reset takes theta_eff, not theta.
        assert neuron.state.mem.numpy()[0, 0] == 1.0
        assert neuron.adaptation.numpy()[0, 0] == 1.5

    def test_adapted_threshold_holds_back_a_spike_lif_fires(self):
        adaptive, plain = self._neuron(), LIF(beta=0.5, threshold=1.0)
        for drive, fired in ((2.0, 1.0), (0.75, 0.0)):
            # Second step: u = 1.25 lies between theta = 1.0 and theta_eff = 1.5.
            assert adaptive.step(Tensor([[drive]])).numpy()[0, 0] == fired
            assert plain.step(Tensor([[drive]])).numpy()[0, 0] == 1.0
        assert adaptive.state.mem.numpy()[0, 0] == 1.25
        assert adaptive.adaptation.numpy()[0, 0] == 0.5

    def test_adaptation_trace_carries_no_gradient(self):
        neuron = self._neuron()
        inputs = [Tensor([[2.0, 0.5]], requires_grad=True) for _ in range(3)]
        total = None
        for x in inputs:
            s = neuron.step(x)
            total = s if total is None else total + s
        assert not neuron.adaptation.requires_grad and neuron.adaptation._node is None
        assert neuron.state.mem.requires_grad
        total.backward(np.ones_like(total.data))
        assert all(np.all(np.isfinite(x.grad)) for x in inputs)

    def test_state_reset_clears_trace(self):
        neuron = self._neuron()
        neuron.step(Tensor([[2.0]]))
        neuron.reset_state()
        assert neuron.adaptation is None and neuron.effective_threshold() is None
        # A fresh sequence starts from theta again.
        assert neuron.step(Tensor([[1.25]])).numpy()[0, 0] == 1.0


# ---------------------------------------------------------------------- #
# Property-based dynamics of the runtime-compilable substrates
# ---------------------------------------------------------------------- #
def _drive_sequence(seed: int, steps: int = 8, shape=(2, 6)) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((steps,) + shape).astype(np.float32)


def _spike_train(neuron, drive: np.ndarray) -> np.ndarray:
    neuron.reset_state()
    return np.stack([neuron.step(Tensor(frame)).numpy() for frame in drive])


class TestAdaptiveLIFProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        decay=st.floats(min_value=0.0, max_value=0.99),
        step=st.floats(min_value=0.01, max_value=1.0),
        beta=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_threshold_trace_decays_monotonically_absent_spikes(self, decay, step, beta):
        """With silent input after a spike, the adaptation trace only decays."""
        neuron = AdaptiveLIF(beta=beta, threshold=0.5, adaptation_step=step, adaptation_decay=decay)
        # One spike charges the trace; the reset leaves 0.25, below theta for good.
        neuron.step(Tensor([[0.75]]))
        assert neuron.adaptation.numpy()[0, 0] == pytest.approx(1.0)
        previous = neuron.adaptation.numpy()[0, 0]
        for _ in range(6):
            spikes = neuron.step(Tensor([[0.0]]))
            assert spikes.numpy()[0, 0] == 0.0
            current = neuron.adaptation.numpy()[0, 0]
            assert current <= previous
            assert current == pytest.approx(previous * decay)
            previous = current

    @settings(max_examples=30, deadline=None)
    @given(
        beta=st.floats(min_value=0.0, max_value=1.0),
        decay=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_zero_adaptation_step_reduces_exactly_to_lif(self, beta, decay, seed):
        """step = 0 is dynamically LIF: spike trains must match bitwise."""
        drive = _drive_sequence(seed)
        adaptive = AdaptiveLIF(beta=beta, threshold=1.0, adaptation_step=0.0, adaptation_decay=decay)
        plain = LIF(beta=beta, threshold=1.0)
        np.testing.assert_array_equal(_spike_train(adaptive, drive), _spike_train(plain, drive))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_adaptation_throttles_firing(self, seed):
        """A strong adaptation step can only reduce total spike output."""
        drive = _drive_sequence(seed, steps=12)
        adaptive = AdaptiveLIF(beta=0.5, threshold=0.5, adaptation_step=1.0, adaptation_decay=0.95)
        plain = LIF(beta=0.5, threshold=0.5)
        assert _spike_train(adaptive, drive).sum() <= _spike_train(plain, drive).sum()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveLIF(adaptation_step=-0.1)
        with pytest.raises(ValueError, match="adaptation_step"):
            AdaptiveLIF(adaptation_step=float("nan"))
        with pytest.raises(ValueError):
            AdaptiveLIF(adaptation_decay=1.5)


class TestSurrogateGradientsFinite:
    @settings(max_examples=25, deadline=None)
    @given(
        beta=st.floats(min_value=0.05, max_value=0.95),
        scale=st.floats(min_value=0.1, max_value=25.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_lif_gradients_finite_across_sweep_grid(self, beta, scale, seed):
        neuron = LIF(beta=beta, threshold=1.0, surrogate=FastSigmoid(scale))
        drive = _drive_sequence(seed, steps=5, shape=(1, 4))
        inputs = [Tensor(frame, requires_grad=True) for frame in drive]
        total = None
        for x in inputs:
            s = neuron.step(x)
            total = s if total is None else total + s
        total.backward(np.ones_like(total.data))
        for x in inputs:
            assert x.grad is not None
            assert np.all(np.isfinite(x.grad))

    @settings(max_examples=25, deadline=None)
    @given(
        beta=st.floats(min_value=0.05, max_value=0.95),
        scale=st.floats(min_value=0.1, max_value=25.0),
        step=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_adaptive_gradients_finite_across_sweep_grid(self, beta, scale, step, seed):
        neuron = AdaptiveLIF(
            beta=beta, threshold=1.0, surrogate=FastSigmoid(scale),
            adaptation_step=step, adaptation_decay=0.9,
        )
        drive = _drive_sequence(seed, steps=5, shape=(1, 4))
        inputs = [Tensor(frame, requires_grad=True) for frame in drive]
        total = None
        for x in inputs:
            s = neuron.step(x)
            total = s if total is None else total + s
        total.backward(np.ones_like(total.data))
        for x in inputs:
            assert x.grad is not None
            assert np.all(np.isfinite(x.grad))
