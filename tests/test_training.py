"""Unit tests for losses, optimizers, schedulers, metrics and callbacks."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Linear, Parameter
from repro.training import (
    Adam,
    CosineAnnealingLR,
    CrossEntropySpikeCount,
    HistoryRecorder,
    MSESpikeCount,
    accuracy,
    cross_entropy_logits,
)


class TestLosses:
    def test_cross_entropy_matches_reference(self):
        logits = np.array([[2.0, 1.0, 0.1], [0.5, 2.5, 0.0]])
        targets = np.array([0, 1])
        loss = cross_entropy_logits(Tensor(logits, requires_grad=True), targets)
        # Reference computation with scipy-style logsumexp.
        ref = np.mean(np.log(np.exp(logits).sum(axis=1)) - logits[np.arange(2), targets])
        assert loss.item() == pytest.approx(ref, rel=1e-5)

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        targets = np.array([2])
        cross_entropy_logits(logits, targets).backward()
        softmax = np.exp([1.0, 2.0, 3.0]) / np.exp([1.0, 2.0, 3.0]).sum()
        expected = softmax - np.array([0.0, 0.0, 1.0])
        assert np.allclose(logits.grad, expected, atol=1e-5)

    def test_cross_entropy_uniform_logits_is_log_num_classes(self):
        counts = Tensor(np.zeros((4, 10)), requires_grad=True)
        loss = CrossEntropySpikeCount()(counts, np.zeros(4, dtype=np.int64))
        assert loss.item() == pytest.approx(np.log(10), rel=1e-5)

    def test_cross_entropy_shape_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy_logits(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))

    def test_mse_count_loss_zero_at_target_rates(self):
        loss_fn = MSESpikeCount(correct_rate=0.8, incorrect_rate=0.1, num_steps=10)
        counts = np.full((2, 3), 1.0)
        counts[0, 1] = 8.0
        counts[1, 2] = 8.0
        loss = loss_fn(Tensor(counts, requires_grad=True), np.array([1, 2]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_mse_count_loss_penalises_wrong_counts(self):
        loss_fn = MSESpikeCount(num_steps=10)
        good = loss_fn(Tensor(np.array([[0.5, 8.0]])), np.array([1])).item()
        bad = loss_fn(Tensor(np.array([[8.0, 0.5]])), np.array([1])).item()
        assert bad > good

    def test_mse_invalid_rates(self):
        with pytest.raises(ValueError):
            MSESpikeCount(correct_rate=0.1, incorrect_rate=0.5)


class TestOptimizers:
    def _quadratic_params(self):
        # Minimise f(w) = ||w - 3||^2 from w = 0.
        return Parameter(np.zeros(4))

    def test_adam_converges_on_quadratic(self):
        w = self._quadratic_params()
        opt = Adam([w], lr=0.1)
        for _ in range(300):
            w.zero_grad()
            w.grad = 2 * (w.data - 3.0)
            opt.step()
        assert np.allclose(w.data, 3.0, atol=1e-2)

    def test_adam_skips_parameters_without_grad(self):
        w = Parameter(np.ones(2))
        opt = Adam([w], lr=0.1)
        opt.step()  # no grad set; must not touch the data
        assert np.allclose(w.data, 1.0)

    def test_zero_grad(self):
        w = Parameter(np.ones(2))
        w.grad = np.ones(2)
        Adam([w], lr=0.1).zero_grad()
        assert w.grad is None

    def test_invalid_hyperparameters(self):
        w = Parameter(np.ones(1))
        with pytest.raises(ValueError):
            Adam([w], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([w], lr=0.1, betas=(1.5, 0.9))
        with pytest.raises(ValueError):
            Adam([w], lr=0.1, betas=(0.9, 1.0))
        with pytest.raises(ValueError):
            Adam([w], lr=0.1, eps=0.0)
        with pytest.raises(ValueError):
            Adam([w], lr=0.1, eps=-1e-8)
        with pytest.raises(ValueError):
            Adam([w], lr=0.1, weight_decay=-0.1)
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_initial_lr_must_be_positive(self):
        """Only set_lr may reach zero (the end of a cosine schedule); Adam cannot start there."""
        with pytest.raises(ValueError, match="learning rate must be positive, got 0.0"):
            Adam([Parameter(np.ones(1))], lr=0.0)

    @pytest.mark.parametrize("hyperparameter", ["lr", "eps", "weight_decay"])
    def test_nan_hyperparameters_rejected(self, hyperparameter):
        """A NaN rate or eps would make every weight NaN after the first step."""
        kwargs = {"lr": 0.1, hyperparameter: float("nan")}
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], **kwargs)

    def test_set_lr_rejects_nan(self):
        opt = Adam([Parameter(np.ones(1))], lr=0.1)
        with pytest.raises(ValueError, match="got nan"):
            opt.set_lr(float("nan"))
        assert opt.lr == 0.1

    def test_set_lr_accepts_zero_rejects_negative(self):
        opt = Adam([Parameter(np.ones(1))], lr=0.1)
        opt.set_lr(0.0)
        assert opt.lr == 0.0
        with pytest.raises(ValueError):
            opt.set_lr(-0.1)

    def test_adam_at_lr_zero_leaves_parameters_unchanged(self):
        """Cosine annealing ends at lr 0; a step there must not move a weight."""
        w = Parameter(np.linspace(-1.0, 1.0, 5))
        before = w.data.copy()
        opt = Adam([w], lr=0.1)
        opt.set_lr(0.0)
        for _ in range(3):
            w.grad = 2 * (w.data - 3.0)
            opt.step()
        np.testing.assert_array_equal(w.data, before)


class TestSchedulers:
    def _optimizer(self, lr=1.0):
        return Adam([Parameter(np.ones(1))], lr=lr)

    def test_cosine_annealing_endpoints(self):
        opt = self._optimizer(lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=10, eta_min=0.0)
        assert sched.current_lr == pytest.approx(1.0)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(0.0, abs=1e-9)

    def test_cosine_annealing_ends_at_eta_min(self):
        opt = self._optimizer(lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=10, eta_min=0.1)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(0.1)
        sched.step()  # past t_max the schedule holds its floor
        assert opt.lr == pytest.approx(0.1)

    def test_cosine_annealing_halfway_is_half(self):
        opt = self._optimizer(lr=2.0)
        sched = CosineAnnealingLR(opt, t_max=10)
        for _ in range(5):
            sched.step()
        assert opt.lr == pytest.approx(1.0)

    def test_cosine_annealing_monotone_decreasing(self):
        opt = self._optimizer(lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=25)
        values = [sched.step() for _ in range(25)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_cosine_invalid_params(self):
        with pytest.raises(ValueError):
            CosineAnnealingLR(self._optimizer(), t_max=0)
        with pytest.raises(ValueError):
            CosineAnnealingLR(self._optimizer(lr=0.1), eta_min=1.0)


class TestMetrics:
    def test_accuracy_from_indices(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_from_scores(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert accuracy(scores, np.array([0, 1])) == 1.0

    def test_accuracy_of_an_empty_batch_is_zero(self):
        assert accuracy(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)) == 0.0
        assert accuracy(np.zeros((0, 10)), np.zeros(0, dtype=np.int64)) == 0.0

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0, 1]), np.array([0, 1, 2]))


class TestCallbacks:
    def test_history_recorder_accumulates(self):
        rec = HistoryRecorder()
        rec.on_epoch_end(0, {"loss": 1.0})
        rec.on_epoch_end(1, {"loss": 0.5})
        assert rec.history["loss"] == [1.0, 0.5]
        assert rec.last("loss") == 0.5
        assert rec.last("missing") is None
