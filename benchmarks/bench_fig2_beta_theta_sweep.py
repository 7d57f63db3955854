"""Benchmark E2 — Figure 2: beta x theta cross-sweep.

Reproduces the paper's Figure 2: with the fast-sigmoid surrogate fixed at
slope 0.25, cross-sweep the membrane leak ``beta`` and the firing threshold
``theta`` and report accuracy and hardware latency over the grid.  The paper
selects ``beta = 0.5, theta = 1.5`` as the balance point: 48% lower inference
latency for a 2.88% accuracy loss versus the best-accuracy configuration.
"""

from __future__ import annotations

from repro.core.config import ExperimentConfig
from repro.core.sweeps import format_figure2, run_beta_theta_sweep

from .conftest import run_once

#: Grid used at bench scale (covers every (beta, theta) point the paper
#: names explicitly: the 0.25/1.0 default, the 0.5/1.5 optimum and the
#: 0.7/1.5 comparison point).
BENCH_BETAS = (0.25, 0.5, 0.7)
BENCH_THETAS = (1.0, 1.5, 2.5)

#: Accuracy budget used by the paper when selecting the trade-off point.
PAPER_ACCURACY_BUDGET = 0.05


def test_figure2_beta_theta_cross_sweep(benchmark, repro_scale, results_store):
    base_config = ExperimentConfig(
        surrogate="fast_sigmoid", surrogate_scale=0.25, scale=repro_scale
    )

    def run():
        return run_beta_theta_sweep(betas=BENCH_BETAS, thetas=BENCH_THETAS, base_config=base_config)

    sweep = run_once(benchmark, run)

    print()
    print(f"[figure2] repro scale: {repro_scale.name}")
    print(format_figure2(sweep, max_accuracy_loss=PAPER_ACCURACY_BUDGET))

    optimal = sweep.tradeoff(max_accuracy_loss=PAPER_ACCURACY_BUDGET)
    best_acc = sweep.best()
    default_cell = (0.25, 1.0)
    metrics = {
        "best_accuracy_beta": best_acc[0],
        "best_accuracy_theta": best_acc[1],
        "best_accuracy": sweep.records[best_acc].accuracy,
        "selected_beta": optimal[0],
        "selected_theta": optimal[1],
        "latency_reduction_vs_best_accuracy": sweep.latency_reduction(optimal),
        "accuracy_loss_vs_best_accuracy": sweep.accuracy_loss(optimal),
    }
    if default_cell in sweep.records:
        metrics["latency_reduction_vs_default"] = sweep.latency_reduction(optimal, default_cell)
        metrics["selected_accuracy"] = sweep.records[optimal].accuracy
        metrics["default_accuracy"] = sweep.records[default_cell].accuracy
    results_store.add("figure2", f"scale={repro_scale.name}", metrics)

    # Shape checks: the selected point must actually trade accuracy for latency.
    assert sweep.latency_reduction(optimal) >= 0.0
    assert sweep.accuracy_loss(optimal) <= PAPER_ACCURACY_BUDGET + 1e-9
    # Latency must respond to the hyperparameters somewhere on the grid.
    latencies = sweep.grid("latency_ms")
    assert latencies.max() > latencies.min()
