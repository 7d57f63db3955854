"""Tests of the benchmark itself, on stages shrunk to run in a few seconds.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import stages  # noqa: E402
from hostspeed import REFERENCE_S, SpeedProbe  # noqa: E402
from repro.core.config import ExperimentConfig, ReproScale  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: A remainder may read this far below zero (float rounding) before it counts as double counting.
TOLERANCE = 1e-6

MICRO = ExperimentConfig(
    scale=ReproScale(
        name="micro", image_size=8, conv_channels=(2, 2), hidden_units=8, num_steps=2,
        train_samples=16, test_samples=8, epochs=1, batch_size=8,
    )
)


def tiny_stages(workdir: Path, trace: bool) -> dict:
    """The stages of one run at a size that runs in about a second, same code paths."""
    built = {
        "sweep_cell": stages.SweepStage(workdir, config=MICRO),
        "infer_batch": stages.InferStage(num_steps=2, batch=4, distinct=2, min_units=2),
    }
    if trace:
        built["serve_open_loop"] = stages.ServeStage(
            workdir, config=MICRO, rates={"low": 100.0, "high": 100.0, "over": 100.0},
            phase_s={"low": 0.3, "high": 0.3, "over": 0.6}, pool=8,
        )
        built["serve_open_loop"].min_units = 1
    return built


def tiny_measure(tmp_path: Path, seed: int, trace: bool) -> dict:
    built = tiny_stages(tmp_path / f"seed-{seed}-{int(trace)}", trace)
    try:
        metrics, runs = run.measure(built, "sweep_cell", seed, 0.0, trace, SpeedProbe(), setup_repeats=1)
    finally:
        if trace:
            built["serve_open_loop"].close()
    assert sum(r.failed for r in runs) == 0, [e for r in runs for e in r.errors]
    return metrics


def test_names_match_the_contract():
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert tuple(workloads) == run.WORKLOADS
    names = workloads + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert [n for n in names if not NAME.match(n)] == []


def test_seed_changes_inputs_but_not_metric_set(tmp_path):
    one = stages.make_schedule(1, stages.RATES_RPS, stages.PHASE_S, 256)
    two = stages.make_schedule(2, stages.RATES_RPS, stages.PHASE_S, 256)
    assert not np.array_equal(one.due["low"][:100], two.due["low"][:100])
    infer = stages.InferStage(num_steps=2, batch=4, distinct=1)
    infer.setup(1)
    first = infer.batches[0]
    infer.setup(2)
    assert not np.array_equal(first, infer.batches[0])

    declared = {m["name"] for m in SPEC["end_to_end"]}
    assert set(tiny_measure(tmp_path, 1, trace=False)) == declared
    assert set(tiny_measure(tmp_path, 2, trace=False)) == declared


def test_open_loop_latency_is_timed_from_the_due_time():
    """A 50 ms stall on request 0 is charged to request 1, due 10 ms after it."""

    def submit(i: int) -> Future:
        if i == 0:
            time.sleep(0.05)
        future: Future = Future()
        future.set_result(None)
        return future

    log = stages.drive(submit, np.array([0.0, 0.01, 0.2]))
    latency, lag = log.latency_ms(), log.lag_ms()
    assert lag[1] >= 35.0
    assert latency[1] >= lag[1]
    assert latency[2] < 35.0
    assert log.outcome == ["served"] * 3


def test_missing_trace_target_is_noted_not_fatal():
    recorder = spans.SpanRecorder()
    targets = [("repro.runtime", "NoSuchKernel.run", "runtime.gone", True), ("json", "dumps", "json.dumps", True)]
    with spans.patched(recorder, targets):
        json.dumps({})
    assert json.dumps.__module__ == "json"
    assert recorder.calls == {"json.dumps": 1}
    assert recorder.missing and "NoSuchKernel.run" in recorder.missing[0]


def test_traced_rows_sum_to_their_traced_total(tmp_path):
    """Rows plus ``unattributed`` make up each traced total, and no row is counted twice.

    ``unattributed`` is defined as the total minus the rows, so what can fail
    is its sign (a span counted twice drives it negative), a row that reads
    0 although its target ran, and the cell's rows against the executor's
    own timing of that cell, which the spans cannot exceed.
    """
    rows = tiny_measure(tmp_path, 3, trace=True)
    assert set(rows) == {m["name"] for m in SPEC["per_layer"]}

    def no_double_counting(parts, unattributed, total):
        assert unattributed >= -TOLERANCE * total
        assert sum(parts) <= total * (1 + TOLERANCE)

    sweep = {row: rows[f"{row}_s"] for row in stages.SWEEP_TIMED_ROWS}
    assert [row for row, value in sweep.items() if value <= 0.0] == []
    no_double_counting(sweep.values(), rows["sweep_cell.unattributed_s"], rows["sweep_cell.traced_cell_s"])
    inside_cell = sum(value for row, value in sweep.items() if row != "exec.cache_store")
    assert inside_cell <= rows["sweep_cell.executor_cell_s"] <= rows["sweep_cell.traced_cell_s"]
    for precision in stages.PRECISIONS:
        kernels = [v for k, v in rows.items() if re.fullmatch(rf"runtime\.{precision}\.\w+_s", k)
                   and k not in (f"runtime.{precision}.batch_s", f"runtime.{precision}.unattributed_s")]
        no_double_counting(kernels, rows[f"runtime.{precision}.unattributed_s"], rows[f"runtime.{precision}.batch_s"])
    serve = [rows["serve.mean.lag_ms"], rows["serve.mean.queue_ms"], rows["serve.mean.service_ms"]]
    no_double_counting(serve, rows["serve.unattributed_ms"], rows["serve.traced_latency_ms"])


def test_speed_probe_scales_by_the_samples_around_a_measurement():
    probe = SpeedProbe()
    probe.stamps, probe.seconds = [0.0, 1.0, 2.0, 10.0, 11.0], [1.0, 1.0, 1.0, 4.0, 4.0]
    assert probe.factor(0.5, 1.5, at_least=1) == pytest.approx(REFERENCE_S)
    assert probe.factor(10.0, 11.0, at_least=2) == pytest.approx(REFERENCE_S / 4.0)
    assert probe.factor(12.0, 13.0, at_least=2) == pytest.approx(REFERENCE_S / 4.0)

