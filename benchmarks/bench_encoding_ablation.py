"""Benchmark E5 — input-encoding ablation (extension experiment).

The paper's introduction identifies the input coding scheme as the primary
driver of SNN sparsity and frames hyperparameter tuning as a complementary
knob.  This extension experiment trains the same configuration under
different input encoders and maps each trained model to the hardware model,
quantifying how much of the firing-rate budget the encoder choice controls.
"""

from __future__ import annotations

from repro.core.config import ExperimentConfig
from repro.core.sweeps import format_encoding_ablation, run_encoding_ablation

from .conftest import run_once

BENCH_ENCODERS = ("rate", "latency", "direct")


def test_encoding_ablation(benchmark, repro_scale, results_store):
    base_config = ExperimentConfig(scale=repro_scale)

    def run():
        return run_encoding_ablation(encoders=BENCH_ENCODERS, base_config=base_config)

    sweep = run_once(benchmark, run)

    print()
    print(f"[encoding ablation] repro scale: {repro_scale.name}")
    print(format_encoding_ablation(sweep))

    metrics = {}
    for (encoder,), record in sweep.records.items():
        metrics[f"{encoder}_accuracy"] = record.accuracy
        metrics[f"{encoder}_firing_rate"] = record.hardware.firing_rate
        metrics[f"{encoder}_fps_per_watt"] = record.hardware.fps_per_watt
    results_store.add("encoding_ablation", f"scale={repro_scale.name}", metrics)

    rows = sweep.rows()
    assert len(rows) == len(BENCH_ENCODERS)
    # Latency (single-spike) coding must produce the sparsest input-driven
    # activity of the compared encoders.
    firing = {r["encoder"]: r["firing_rate"] for r in rows}
    assert firing["latency"] <= max(firing.values())
