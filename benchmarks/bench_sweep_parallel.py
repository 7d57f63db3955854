"""Benchmark E8 — sweep executor: serial vs parallel vs warm cache.

Measures two things on a reduced Figure 2 (beta x theta) grid:

1. **Parallel speedup** — the same grid trained serially and through the
   sweep process pool.  Parallelism only helps with spare cores; the
   assertion (>= 2x at 4 workers) therefore only arms on full mode
   (``REPRO_BENCH_FULL=1``) on a machine with at least 4 CPUs, but the
   measured numbers are always recorded.
2. **Warm-cache re-run** — the whole grid re-run against the populated
   experiment cache must perform *zero* trainings (hard assertion, every
   mode) and return in a fraction of the cold time.

Results are printed and recorded both in ``benchmarks/results/measured.json``
(headline numbers) and as a standalone ``benchmarks/results/BENCH_sweep.json``
artifact with the full measurement detail.
"""

from __future__ import annotations

import os
import time

from .conftest import RESULTS_DIR, run_once
from repro.analysis.io import save_json
from repro.core.config import ExperimentConfig, SCALE_PRESETS
from repro.core.sweeps import run_beta_theta_sweep
from repro.exec import ExperimentCache

#: Workers used for the parallel leg (the acceptance bar is quoted at 4).
PARALLEL_WORKERS = 4

#: Reduced Figure 2 grids: four cells in smoke mode, the full bench grid
#: (every (beta, theta) point the paper names explicitly) in full mode.
SMOKE_GRID = ((0.25, 0.5), (1.0, 1.5))
FULL_GRID = ((0.25, 0.5, 0.7), (1.0, 1.5, 2.5))


def _records_equal(a, b) -> bool:
    return (
        a.accuracy == b.accuracy
        and a.hardware.as_dict() == b.hardware.as_dict()
        and a.training.history["train_loss"] == b.training.history["train_loss"]
    )


def test_sweep_parallel_and_cache(benchmark, bench_smoke, repro_scale, results_store, tmp_path):
    if bench_smoke:
        betas, thetas = SMOKE_GRID
        scale = SCALE_PRESETS["smoke"]
    else:
        betas, thetas = FULL_GRID
        scale = repro_scale
    base = ExperimentConfig(surrogate="fast_sigmoid", surrogate_scale=0.25, scale=scale)
    grid = dict(betas=betas, thetas=thetas, base_config=base)
    cells = len(betas) * len(thetas)
    cache = ExperimentCache(tmp_path / "sweep-cache")

    def run():
        t0 = time.perf_counter()
        serial = run_beta_theta_sweep(workers=1, **grid)
        serial_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        parallel = run_beta_theta_sweep(workers=PARALLEL_WORKERS, cache=cache, **grid)
        parallel_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm = run_beta_theta_sweep(workers=PARALLEL_WORKERS, cache=cache, **grid)
        warm_s = time.perf_counter() - t0
        return serial, parallel, warm, serial_s, parallel_s, warm_s

    serial, parallel, warm, serial_s, parallel_s, warm_s = run_once(benchmark, run)

    # Correctness gates: parallel must reproduce serial bit-for-bit, and the
    # warm re-run must be pure cache (zero trainings).
    assert set(serial.records) == set(parallel.records)
    for cell in serial.records:
        assert _records_equal(serial.records[cell], parallel.records[cell]), cell
        assert _records_equal(parallel.records[cell], warm.records[cell]), cell
    assert cache.stores == cells, "cold run must train every cell exactly once"
    assert cache.hits == cells, "warm re-run must serve every cell from cache"

    speedup = serial_s / parallel_s if parallel_s > 0 else float("nan")
    warm_speedup = serial_s / warm_s if warm_s > 0 else float("nan")

    mode = "smoke" if bench_smoke else "full"
    cpus = os.cpu_count() or 1
    print()
    print(
        f"[sweep-parallel] {cells}-cell beta x theta grid at scale={scale.name}, "
        f"{PARALLEL_WORKERS} workers, {cpus} CPUs, mode={mode}"
    )
    print(f"  serial          {serial_s:>8.2f}s")
    print(f"  parallel        {parallel_s:>8.2f}s   ({speedup:.2f}x)")
    print(f"  warm cache      {warm_s:>8.2f}s   ({warm_speedup:.1f}x, 0 trainings)")

    metrics = {
        "cells": cells,
        "workers": PARALLEL_WORKERS,
        "cpus": cpus,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "parallel_speedup": speedup,
        "warm_cache_seconds": warm_s,
        "warm_cache_trainings": cache.stores - cells,  # 0 by the assertion above
    }
    results_store.add("sweep_parallel", f"scale={scale.name}_{mode}", metrics)
    save_json(
        {"experiment": "sweep_parallel", "mode": mode, "scale": scale.name, **metrics},
        RESULTS_DIR / "BENCH_sweep.json",
    )

    # The >=2x acceptance bar needs real spare cores and full-size cells;
    # smoke cells are so short that pool startup dominates.
    if not bench_smoke and cpus >= PARALLEL_WORKERS:
        assert speedup >= 2.0, f"expected >=2x parallel speedup at {PARALLEL_WORKERS} workers, got {speedup:.2f}x"
    # Warm cache must beat training anywhere.
    assert warm_s < serial_s

