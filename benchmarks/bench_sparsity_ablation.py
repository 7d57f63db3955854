"""Benchmark E4 — sparsity-aware vs sparsity-oblivious hardware ablation.

The paper's introduction motivates its platform with prior results showing
that exploiting sparsity in hardware yields large efficiency gains
([1]: 5.58x training energy, [2]: 2.1x inference efficiency).  This ablation
quantifies the same effect inside the reproduction: the identical trained
model is mapped onto the sparsity-aware accelerator and onto a dense
(sparsity-oblivious) configuration of the same platform.

The adaptive-threshold Pareto benchmark extends the ablation along the
neuron-substrate axis: :func:`repro.core.run_adaptive_threshold_sweep`
trains the same network on the :class:`~repro.neurons.AdaptiveLIF`
substrate (adaptation step 0 = the exact LIF baseline) and records how the
measured firing-rate shift (:func:`repro.core.firing_rate_shift`) moves the
sparsity/cost Pareto points.
"""

from __future__ import annotations

from repro.core.config import ExperimentConfig
from repro.core.experiment import run_experiment
from repro.core.sweeps import firing_rate_shift, format_adaptive_sweep, run_adaptive_threshold_sweep
from repro.hardware import DenseBaselineAccelerator, SparsityAwareAccelerator, evaluate_on_hardware, format_comparison

from .conftest import run_once


def test_sparsity_aware_vs_dense_hardware(benchmark, repro_scale, results_store):
    config = ExperimentConfig(scale=repro_scale, label="default hyperparameters")

    def run():
        record = run_experiment(config, accelerator=SparsityAwareAccelerator())
        workload = record.hardware.run.workload
        dense_report = evaluate_on_hardware(workload, DenseBaselineAccelerator(), record.accuracy)
        return record, dense_report

    record, dense_report = run_once(benchmark, run)

    print()
    print(f"[sparsity ablation] repro scale: {repro_scale.name}")
    print(
        format_comparison(
            {"dense (sparsity-oblivious)": dense_report, "sparsity-aware (paper)": record.hardware},
            baseline_key="dense (sparsity-oblivious)",
            title="Sparsity-aware vs dense execution of the same trained model",
        )
    )

    gain = record.hardware.fps_per_watt / dense_report.fps_per_watt
    results_store.add(
        "sparsity_ablation",
        f"scale={repro_scale.name}",
        {
            "sparsity": record.hardware.sparsity,
            "sparse_fps_per_watt": record.hardware.fps_per_watt,
            "dense_fps_per_watt": dense_report.fps_per_watt,
            "efficiency_gain_from_sparsity": gain,
            "latency_gain_from_sparsity": dense_report.latency_ms / record.hardware.latency_ms,
        },
    )

    # The whole premise of the paper: exploiting sparsity must pay off.
    assert gain > 1.0
    assert record.hardware.latency_ms < dense_report.latency_ms


def test_adaptive_threshold_pareto(benchmark, repro_scale, bench_smoke, results_store):
    """Adaptation strength must move the measured firing rate off the LIF baseline.

    Runs the adaptive sweep's strongest cell against its step-0 (exact LIF)
    baseline column and records the resulting Pareto points.  The assertion
    is non-directional on purpose — which way the rate moves depends on how
    training redistributes activity at a given scale — but a measurable
    shift must exist, otherwise the substrate adds no new Pareto points.
    """
    steps = (0.0, 0.5) if bench_smoke else (0.0, 0.2, 0.5)
    betas = (0.25,) if bench_smoke else (0.25, 0.5)

    def run():
        return run_adaptive_threshold_sweep(
            adaptation_steps=steps,
            betas=betas,
            base_config=ExperimentConfig(scale=repro_scale),
        )

    sweep = run_once(benchmark, run)

    print()
    print(f"[adaptive threshold pareto] repro scale: {repro_scale.name}")
    print(format_adaptive_sweep(sweep))

    shifts = {
        f"step={step:g},beta={beta:g}": firing_rate_shift(sweep, step, beta)
        for step, beta in sweep.records
        if step > 0.0
    }
    pareto_points = [
        dict(row, firing_rate_shift=firing_rate_shift(sweep, row["adaptation_step"], row["beta"]))
        for row in sweep.rows()
    ]
    results_store.add(
        "adaptive_threshold_pareto",
        f"scale={repro_scale.name}",
        {
            "adaptation_steps": sweep.axes["adaptation_step"],
            "betas": sweep.axes["beta"],
            "firing_rate_shifts": shifts,
            "pareto_points": pareto_points,
        },
    )

    # The strongest adaptation cell must land measurably away from the LIF
    # baseline (>2% relative firing-rate change) for at least one beta.
    max_shift = max(abs(shift) for shift in shifts.values())
    assert max_shift > 0.02, f"adaptation produced no measurable firing-rate shift: {shifts}"
