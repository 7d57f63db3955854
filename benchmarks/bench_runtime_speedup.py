"""Benchmark E7 — dense forward vs compiled plan.

Times the identical trained network on the identical spike sequence through
both execution paths: the dense autograd forward (what training uses) and
the compiled plan (:mod:`repro.runtime`).  Correctness is
asserted before timing — both paths must produce identical output spike
counts — so the speedup is a pure execution-strategy comparison.

Runs in smoke mode by default (< 10 s under pytest); set
``REPRO_BENCH_FULL=1`` for larger batches and more timing repetitions.
"""

from __future__ import annotations

import numpy as np
import pytest

from .conftest import run_once
from repro.runtime.bench import make_reduced_cnn, make_spike_sequence, measure_speedup

#: Input spike densities measured; the paper's operating points live well
#: below 10% activity.
DENSITIES = (0.02, 0.05, 0.10, 0.30)

#: Speedup the compiled plan must deliver at <= 10% input density on
#: the reduced CNN.  Recalibrated from 2.0 after the MaxPool2d argmax
#: rewrite made the *dense baseline* ~2.4x faster at the pooling op (the
#: runtime's absolute time is unchanged — the denominator of this ratio
#: improved); measured ~2x on an idle machine since.
TARGET_SPEEDUP_AT_SPARSE = 1.5


def _format_table(results) -> str:
    lines = [
        f"  {'density':>8} {'dense_ms':>10} {'runtime_ms':>11} {'speedup':>8} {'equal':>6}",
    ]
    for r in results:
        row = r.row()
        lines.append(
            f"  {row['density']:>8.3f} {row['dense_ms']:>10.3f} {row['runtime_ms']:>11.3f} "
            f"{row['speedup']:>7.2f}x {str(r.equivalent):>6}"
        )
    return "\n".join(lines)


def test_runtime_speedup_over_dense(benchmark, bench_smoke, results_store):
    if bench_smoke:
        num_steps, batch_size, repeats = 8, 8, 3
    else:
        num_steps, batch_size, repeats = 16, 32, 10
    model = make_reduced_cnn(seed=0)

    def run():
        results = []
        for density in DENSITIES:
            spikes = make_spike_sequence(
                (batch_size, model.in_channels, model.image_size, model.image_size),
                density,
                num_steps,
                seed=17,
            )
            results.append(
                measure_speedup(
                    model,
                    spikes=spikes,
                    repeats=repeats,
                    label=f"density={density:g}",
                )
            )
        return results

    results = run_once(benchmark, run)

    mode = "smoke" if bench_smoke else "full"
    print()
    print(f"[runtime-speedup] reduced CNN, T={num_steps}, N={batch_size}, mode={mode}")
    print(_format_table(results))

    results_store.add(
        "runtime_speedup",
        f"reduced_cnn_{mode}",
        {f"speedup_at_{r.density:.3f}": r.speedup for r in results},
    )

    # Correctness first: identical output spike counts at every density.
    assert all(r.equivalent for r in results)

    sparse = [r for r in results if r.density <= 0.10]
    assert sparse, "no sparse operating point measured"
    best_sparse = max(r.speedup for r in sparse)
    if bench_smoke:
        # Smoke runs on shared CI boxes: require a real win, not the full bar.
        assert best_sparse >= 1.2
    else:
        assert best_sparse >= TARGET_SPEEDUP_AT_SPARSE
