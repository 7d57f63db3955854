"""Integration tests for the paper's sweep harnesses (Figures 1-2, comparison).

These run at smoke scale with tiny grids: the goal is to exercise the sweep
mechanics and reporting end to end, not to reproduce the published numbers
(the benchmarks in ``benchmarks/`` do that at a larger scale).
"""

import numpy as np
import pytest

from repro.core.comparison import format_comparison_table, run_prior_work_comparison
from repro.core.config import PAPER_COMPARISON_POINT, PAPER_DEFAULT, ExperimentConfig, SCALE_PRESETS
from repro.core.sweeps import (
    PAPER_BETA_GRID,
    PAPER_SCALE_SWEEP,
    PAPER_THETA_GRID,
    Sweep,
    at_scale,
    efficiency_advantage,
    format_encoding_ablation,
    format_figure1,
    format_figure2,
    run_beta_theta_sweep,
    run_encoding_ablation,
    run_surrogate_sweep,
)


@pytest.fixture(scope="module")
def smoke_base():
    return ExperimentConfig(scale=SCALE_PRESETS["smoke"], seed=0)


@pytest.fixture(scope="module")
def figure1_result(smoke_base):
    return run_surrogate_sweep(
        scales=[0.5, 8.0],
        surrogates=["arctan", "fast_sigmoid"],
        base_config=smoke_base,
    )


@pytest.fixture(scope="module")
def figure2_result(smoke_base):
    return run_beta_theta_sweep(
        betas=[0.25, 0.7],
        thetas=[1.0, 1.5],
        base_config=smoke_base.with_overrides(surrogate="fast_sigmoid", surrogate_scale=0.25),
    )


class TestPaperSweepDefinitions:
    def test_paper_scale_range_matches_text(self):
        assert PAPER_SCALE_SWEEP[0] == 0.5
        assert PAPER_SCALE_SWEEP[-1] == 32.0

    def test_paper_beta_theta_grids_cover_published_points(self):
        assert 0.25 in PAPER_BETA_GRID and 0.5 in PAPER_BETA_GRID and 0.7 in PAPER_BETA_GRID
        assert 1.0 in PAPER_THETA_GRID and 1.5 in PAPER_THETA_GRID


class TestScaleRule:
    """``at_scale``: a given config keeps its scale unless a preset is named."""

    @pytest.mark.parametrize(
        "config, preset, expected",
        [
            (ExperimentConfig(scale=SCALE_PRESETS["smoke"], beta=0.7), None, ("smoke", 0.7)),
            (ExperimentConfig(scale=SCALE_PRESETS["smoke"], beta=0.7), "full", ("full", 0.7)),
            (None, None, ("full", 0.25)),
        ],
    )
    def test_at_scale(self, config, preset, expected, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        resolved = at_scale(config, preset)
        assert (resolved.scale.name, resolved.beta) == expected


class TestSurrogateSweep:
    def test_result_structure(self, figure1_result):
        assert isinstance(figure1_result, Sweep)
        assert figure1_result.axes == {"surrogate": ["arctan", "fast_sigmoid"], "surrogate_scale": [0.5, 8.0]}
        assert list(figure1_result.records) == [
            ("arctan", 0.5), ("arctan", 8.0), ("fast_sigmoid", 0.5), ("fast_sigmoid", 8.0)
        ]

    def test_series_accessors(self, figure1_result):
        for surrogate in ("arctan", "fast_sigmoid"):
            accuracy = figure1_result.metric("accuracy", surrogate=surrogate)
            efficiency = figure1_result.metric("fps_per_watt", surrogate=surrogate)
            assert len(accuracy) == 2
            assert len(efficiency) == 2
            assert all(v > 0 for v in efficiency)
            assert all(0 <= v <= 1 for v in accuracy)

    def test_rows_cover_full_grid(self, figure1_result):
        rows = figure1_result.rows()
        assert len(rows) == 4
        assert {(r["surrogate"], r["surrogate_scale"]) for r in rows} == {
            ("arctan", 0.5), ("arctan", 8.0), ("fast_sigmoid", 0.5), ("fast_sigmoid", 8.0)
        }

    def test_efficiency_advantage_is_positive(self, figure1_result):
        assert efficiency_advantage(figure1_result) > 0

    def test_format_figure1_mentions_both_plots_and_prior_work(self, figure1_result):
        text = format_figure1(figure1_result)
        assert "Figure 1a" in text and "Figure 1b" in text
        assert "prior work" in text
        assert "fast sigmoid vs arctangent" in text

    def test_each_cell_used_the_requested_hyperparameters(self, figure1_result):
        record = figure1_result.records[("arctan", 8.0)]
        assert record.config.surrogate == "arctan"
        assert record.config.surrogate_scale == 8.0
        # Figure 1 keeps beta/theta at the defaults.
        assert record.config.beta == 0.25
        assert record.config.threshold == 1.0


class TestBetaThetaSweep:
    def test_result_structure(self, figure2_result):
        assert isinstance(figure2_result, Sweep)
        assert set(figure2_result.records) == {(0.25, 1.0), (0.25, 1.5), (0.7, 1.0), (0.7, 1.5)}

    def test_grids_have_correct_shape(self, figure2_result):
        assert figure2_result.grid("accuracy").shape == (2, 2)
        assert figure2_result.grid("latency_ms").shape == (2, 2)
        assert (figure2_result.grid("latency_ms") > 0).all()

    def test_selection_rules(self, figure2_result):
        best_acc = figure2_result.best()
        best_lat = min(figure2_result.records, key=lambda key: figure2_result.records[key].hardware.latency_ms)
        assert best_acc in figure2_result.records
        assert best_lat in figure2_result.records
        optimal = figure2_result.tradeoff(max_accuracy_loss=1.0)
        # With an unlimited accuracy budget the choice is the latency optimum.
        assert optimal == best_lat

    def test_tradeoff_metrics_consistent(self, figure2_result):
        optimal = figure2_result.tradeoff(max_accuracy_loss=1.0)
        reduction = figure2_result.latency_reduction(optimal)
        assert reduction <= 1.0
        loss = figure2_result.accuracy_loss(optimal)
        assert loss >= -1e-9 or abs(loss) <= 1.0

    def test_latency_reduction_vs_reference_cell(self, figure2_result):
        optimal = figure2_result.tradeoff(max_accuracy_loss=1.0)
        # Relative to itself the reduction is exactly zero.
        assert figure2_result.latency_reduction(optimal, optimal) == pytest.approx(0.0)
        reduction = figure2_result.latency_reduction(optimal, (0.25, 1.0))
        assert reduction <= 1.0
        with pytest.raises(KeyError):
            figure2_result.latency_reduction(optimal, (0.99, 9.9))

    def test_zero_budget_falls_back_to_best_accuracy(self, figure2_result):
        optimal = figure2_result.tradeoff(max_accuracy_loss=0.0)
        best = figure2_result.best()
        assert figure2_result.records[optimal].hardware.latency_ms <= figure2_result.records[best].hardware.latency_ms + 1e-12

    def test_fixed_surrogate_is_fast_sigmoid_at_low_slope(self, figure2_result):
        record = next(iter(figure2_result.records.values()))
        assert record.config.surrogate == "fast_sigmoid"
        assert record.config.surrogate_scale == 0.25

    def test_format_figure2_contains_grids_and_summary(self, figure2_result):
        text = format_figure2(figure2_result)
        assert "Figure 2a" in text and "Figure 2b" in text
        assert "latency reduction" in text
        assert "paper: 48%" in text

    def test_rows_flat_export(self, figure2_result):
        rows = figure2_result.rows()
        assert len(rows) == 4
        assert all({"beta", "threshold", "accuracy", "latency_ms"} <= set(r) for r in rows)

    def test_cells_are_labelled_by_their_axis_values(self, figure2_result):
        labels = [record.config.label for record in figure2_result.records.values()]
        assert labels == [
            "beta=0.25, threshold=1", "beta=0.25, threshold=1.5", "beta=0.7, threshold=1", "beta=0.7, threshold=1.5"
        ]


class TestPriorWorkComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return run_prior_work_comparison(scale_preset="smoke")

    def test_efficiency_gain_positive(self, comparison):
        assert comparison.efficiency_gain > 0
        assert np.isfinite(comparison.efficiency_gain)

    def test_tuned_platform_beats_prior_dense_accelerator(self, comparison):
        assert comparison.tuned.hardware.fps_per_watt > comparison.prior_hardware.fps_per_watt

    def test_configurations_match_paper_points(self, comparison):
        assert comparison.tuned.config.beta == 0.7
        assert comparison.tuned.config.threshold == 1.5
        assert comparison.default.config.beta == 0.25
        assert comparison.default.config.threshold == 1.0

    def test_format_table(self, comparison):
        text = format_comparison_table(comparison)
        assert "prior work" in text
        assert "fine-tuned" in text
        assert "paper: 1.72x" in text

    def test_given_configs_keep_their_scale(self, monkeypatch):
        """Without ``scale_preset`` each config trains at its own scale, as in every grid front-end."""
        from repro.exec import executor as executor_mod

        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        trained_at = []
        train = executor_mod.run_experiment

        def spy(config, **kwargs):
            trained_at.append(config.scale.name)
            return train(config, **kwargs)

        monkeypatch.setattr(executor_mod, "run_experiment", spy)
        smoke = SCALE_PRESETS["smoke"]
        run_prior_work_comparison(
            tuned_config=PAPER_COMPARISON_POINT.with_overrides(scale=smoke),
            default_config=PAPER_DEFAULT.with_overrides(scale=smoke),
        )
        assert trained_at == ["smoke", "smoke"]


class TestEncodingAblation:
    def test_ablation_runs_all_encoders(self, smoke_base):
        result = run_encoding_ablation(encoders=["rate", "direct"], base_config=smoke_base)
        assert set(result.records) == {("rate",), ("direct",)}
        rows = result.rows()
        assert len(rows) == 2
        assert all(r["fps_per_watt"] > 0 for r in rows)
        text = format_encoding_ablation(result)
        assert "Encoding ablation" in text
        assert "rate" in text and "direct" in text
