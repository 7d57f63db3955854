"""Sweep executor: parallel == serial, caching skips training, progress events."""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.config import ExperimentConfig
from repro.surrogate import SurrogateFunction, register_surrogate
from repro.exec import (
    ExperimentCache,
    ProgressEvent,
    resolve_cache,
    resolve_start_method,
    resolve_workers,
    run_experiments,
)
from repro.exec import executor as executor_mod

# Tests that monkeypatch executor internals and then run a pool must pin
# fork (REPRO_SWEEP_START_METHOD=fork): spawn workers re-import the module
# tree and do not inherit patches.
needs_fork = pytest.mark.skipif(
    not executor_mod.fork_available(), reason="test relies on fork inheriting monkeypatches"
)


class BoxcarSurrogate(SurrogateFunction):
    """A caller's surrogate that ``repro`` does not register: ``dS/dU = k`` where ``|U| < 1 / (2k)``.

    Defined at module level, so a spawned worker can unpickle it by reference.
    """

    name = "boxcar_exec"

    def __init__(self, scale: float = 1.0) -> None:
        super().__init__(scale)

    def forward_smooth(self, u: np.ndarray) -> np.ndarray:
        return np.clip(self.scale * np.asarray(u) + 0.5, 0.0, 1.0)

    def derivative(self, u: np.ndarray) -> np.ndarray:
        return np.where(np.abs(u) < 0.5 / self.scale, self.scale, 0.0)


@pytest.fixture
def pin_fork(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_START_METHOD", "fork")


@pytest.fixture
def micro_configs(micro_scale):
    """Three distinct sweep cells at the sub-smoke scale."""
    return [
        ExperimentConfig(scale=micro_scale, seed=0, beta=0.25),
        ExperimentConfig(scale=micro_scale, seed=1, beta=0.5),
        ExperimentConfig(scale=micro_scale, seed=2, threshold=1.5),
    ]


def _assert_records_identical(a, b):
    """Bit-for-bit comparison of two experiment records (modulo wall-clock)."""
    assert a.config == b.config
    assert a.accuracy == b.accuracy
    for key, series in a.training.history.items():
        if key.endswith("seconds"):  # wall-clock measurements are not deterministic
            continue
        assert series == b.training.history[key], key
    assert a.hardware.as_dict() == b.hardware.as_dict()
    assert a.sparsity_profile.layer_events_per_step == b.sparsity_profile.layer_events_per_step


class TestParallelMatchesSerial:
    def test_two_workers_bitwise_identical_to_serial(self, micro_configs):
        serial = run_experiments(micro_configs, workers=1)
        parallel = run_experiments(micro_configs, workers=2)
        assert len(serial) == len(parallel) == len(micro_configs)
        for a, b in zip(serial, parallel):
            _assert_records_identical(a, b)

    def test_results_follow_submission_order(self, micro_configs):
        records = run_experiments(micro_configs, workers=2)
        for config, record in zip(micro_configs, records):
            assert record.config == config

    def test_spawn_pool_bitwise_identical_to_serial(self, micro_configs, monkeypatch):
        # spawn is the fallback on platforms without fork; workers re-import
        # and reseed per config, so records must still match serial exactly.
        serial = run_experiments(micro_configs[:2], workers=1)
        monkeypatch.setenv("REPRO_SWEEP_START_METHOD", "spawn")
        spawned = run_experiments(micro_configs[:2], workers=2)
        for a, b in zip(serial, spawned):
            _assert_records_identical(a, b)

    def test_spawned_workers_train_a_surrogate_the_caller_registered(
        self, micro_configs, monkeypatch, surrogate_registry
    ):
        # A spawned worker imports repro afresh; the cell brings its
        # surrogate class along and registers it before it trains.
        register_surrogate(BoxcarSurrogate)
        configs = [config.with_overrides(surrogate=BoxcarSurrogate.name) for config in micro_configs[:2]]
        serial = run_experiments(configs, workers=1)
        monkeypatch.setenv("REPRO_SWEEP_START_METHOD", "spawn")
        spawned = run_experiments(configs, workers=2)
        for a, b in zip(serial, spawned):
            _assert_records_identical(a, b)

    def test_a_surrogate_a_pool_cannot_receive_fails_before_any_data_is_rendered(
        self, micro_configs, monkeypatch, surrogate_registry
    ):
        from repro.core import experiment

        class LocalBoxcar(BoxcarSurrogate):
            name = "local_boxcar"

        register_surrogate(LocalBoxcar)
        rendered = []
        original = experiment.make_dataset
        monkeypatch.setattr(experiment, "make_dataset", lambda config: rendered.append(config) or original(config))
        configs = [config.with_overrides(surrogate=LocalBoxcar.name) for config in micro_configs[:2]]
        events = []
        with pytest.raises(pickle.PicklingError, match="surrogate 'local_boxcar'.*define it at module level"):
            run_experiments(configs, workers=2, progress=events.append)
        assert rendered == [] and events == []
        # One process needs no pickling: the same cells train serially.
        assert len(run_experiments(configs[:1], workers=1)) == 1


class TestStartMethodResolution:
    def test_default_prefers_fork_else_spawn(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_START_METHOD", raising=False)
        expected = "fork" if executor_mod.fork_available() else "spawn"
        assert resolve_start_method() == expected

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_START_METHOD", "spawn")
        assert resolve_start_method() == "spawn"

    @pytest.mark.parametrize("malformed", ["", "4", "forkserver-maybe"])
    def test_malformed_env_falls_back_to_platform_default(self, monkeypatch, malformed):
        monkeypatch.setenv("REPRO_SWEEP_START_METHOD", malformed)
        expected = "fork" if executor_mod.fork_available() else "spawn"
        assert resolve_start_method() == expected


class TestCachingBehaviour:
    def test_warm_rerun_performs_zero_trainings(self, micro_configs, tmp_path, monkeypatch):
        cache = ExperimentCache(tmp_path)
        cold = run_experiments(micro_configs, workers=1, cache=cache)
        assert cache.misses == len(micro_configs)
        assert cache.stores == len(micro_configs)

        # Any attempt to train on the warm re-run is a hard failure.
        def _no_training(*args, **kwargs):
            raise AssertionError("warm cache re-run must not train")

        monkeypatch.setattr(executor_mod, "run_experiment", _no_training)
        warm = run_experiments(micro_configs, workers=2, cache=cache)
        assert cache.hits == len(micro_configs)
        for a, b in zip(cold, warm):
            _assert_records_identical(a, b)

    def test_extending_a_sweep_trains_only_new_cells(self, micro_configs, tmp_path, micro_scale):
        cache = ExperimentCache(tmp_path)
        run_experiments(micro_configs[:2], workers=1, cache=cache)
        assert cache.stores == 2

        extended = micro_configs + [ExperimentConfig(scale=micro_scale, seed=9)]
        run_experiments(extended, workers=1, cache=cache)
        # Two hits (already trained), two fresh trainings (seed=2 cell + new one).
        assert cache.hits == 2
        assert cache.stores == 4

    def test_hit_from_another_sweeps_label_is_served_relabelled(
        self, micro_scale, tmp_path, monkeypatch
    ):
        """Label-insensitive keys reuse trainings across sweeps, under the caller's label."""
        cache = ExperimentCache(tmp_path)
        trained = ExperimentConfig(scale=micro_scale, beta=0.7, label="beta=0.7 (figure 2 cell)")
        run_experiments([trained], workers=1, cache=cache)

        def _no_training(*args, **kwargs):
            raise AssertionError("identical hyperparameters must hit the cache")

        monkeypatch.setattr(executor_mod, "run_experiment", _no_training)
        asked = trained.with_overrides(label="beta=0.7 (vs prior work)")
        (record,) = run_experiments([asked], workers=1, cache=cache)
        assert cache.hits == 1
        assert record.config == asked
        assert record.config.label == "beta=0.7 (vs prior work)"

    def test_cache_true_uses_default_location(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-loc"))
        resolved = resolve_cache(True)
        assert resolved.root == tmp_path / "default-loc"

    def test_cache_path_accepted_directly(self, tmp_path):
        resolved = resolve_cache(tmp_path / "direct")
        assert isinstance(resolved, ExperimentCache)
        assert resolved.root == tmp_path / "direct"

    def test_cache_disabled_by_default(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None


class TestProgressAndWorkers:
    def test_progress_events_cover_every_cell(self, micro_configs, tmp_path):
        events = []
        cache = ExperimentCache(tmp_path)
        run_experiments(micro_configs, workers=1, cache=cache, progress=events.append)
        kinds = [e.kind for e in events]
        assert kinds.count("start") == len(micro_configs)
        assert kinds.count("done") == len(micro_configs)
        assert all(isinstance(e, ProgressEvent) and e.total == len(micro_configs) for e in events)

        events.clear()
        run_experiments(micro_configs, workers=1, cache=cache, progress=events.append)
        assert [e.kind for e in events] == ["cached"] * len(micro_configs)
        assert {e.index for e in events} == {0, 1, 2}

    def test_serial_run_preserves_callers_global_rng_stream(self, micro_configs):
        np.random.seed(1234)
        expected = np.random.standard_normal(4)
        np.random.seed(1234)
        run_experiments(micro_configs[:1], workers=1)
        np.testing.assert_array_equal(np.random.standard_normal(4), expected)

    def test_worker_resolution(self, monkeypatch):
        assert resolve_workers(4) == 4
        assert resolve_workers(0) == 1
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert resolve_workers(None) == 3
        monkeypatch.delenv("REPRO_SWEEP_WORKERS")
        assert resolve_workers(None) == 1

    @pytest.mark.parametrize("malformed", ["", "auto", "4.5"])
    def test_malformed_workers_env_falls_back_to_serial(self, monkeypatch, malformed):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", malformed)
        assert resolve_workers(None) == 1

    @pytest.mark.parametrize(
        "knob, value",
        [("retries", 1), ("retry_backoff_s", 0.0), ("on_error", "collect"), ("start_method", "spawn")],
    )
    def test_removed_knobs_are_rejected(self, micro_configs, knob, value):
        with pytest.raises(TypeError, match=knob):
            run_experiments(micro_configs[:1], workers=1, **{knob: value})

    def test_failures_propagate(self, micro_configs, monkeypatch):
        def _boom(*args, **kwargs):
            raise RuntimeError("cell exploded")

        monkeypatch.setattr(executor_mod, "run_experiment", _boom)
        events = []
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_experiments(micro_configs[:1], workers=1, progress=events.append)
        assert events[-1].kind == "error"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unregistered_surrogate_fails_before_any_data_is_rendered(self, micro_configs, monkeypatch, workers):
        """Every cell's surrogate is looked up before the first cell renders its dataset."""
        from repro.core import experiment

        rendered = []
        original = experiment.make_dataset
        monkeypatch.setattr(experiment, "make_dataset", lambda config: rendered.append(config) or original(config))
        configs = [micro_configs[0], micro_configs[1].with_overrides(surrogate="triangular")]
        events = []
        with pytest.raises(KeyError, match="unknown surrogate 'triangular'; available"):
            run_experiments(configs, workers=workers, progress=events.append)
        assert len(rendered) == 0 and events == []

    def test_a_registered_surrogate_passes_the_check_and_a_cached_cell_needs_none(
        self, micro_configs, tmp_path, registered_surrogate
    ):
        """The check reads the live registry, and only for the cells it will train."""
        from repro.surrogate.registry import _REGISTRY

        config = micro_configs[0].with_overrides(surrogate=registered_surrogate)
        (trained,) = run_experiments([config], workers=1, cache=tmp_path)
        del _REGISTRY[registered_surrogate]
        events = []
        (cached,) = run_experiments([config], workers=1, cache=tmp_path, progress=events.append)
        assert [event.kind for event in events] == ["cached"]
        _assert_records_identical(cached, trained)

    @needs_fork
    def test_pool_failure_reports_the_failing_cell(self, micro_configs, monkeypatch, pin_fork):
        failing = micro_configs[1]

        def _selective_boom(config, **kwargs):
            raise RuntimeError(f"exploded on {config.describe()}")

        monkeypatch.setattr(executor_mod, "run_experiment", _selective_boom)
        events = []
        with pytest.raises(RuntimeError, match="exploded"):
            run_experiments(micro_configs, workers=2, progress=events.append)
        errors = [e for e in events if e.kind == "error"]
        assert errors, "pool failure must emit an error event"
        # The event must name the cell that actually failed and carry the
        # worker's traceback (lost from the exception at the process boundary).
        assert errors[0].label == micro_configs[errors[0].index].describe()
        assert f"on {micro_configs[errors[0].index].describe()}" in errors[0].error
        assert "Traceback" in errors[0].error


class TestVerboseProgress:
    """``verbose=True`` installs a printer with one line per event kind."""

    @pytest.mark.parametrize(
        "kind, line",
        [
            ("start", "[sweep 1/1] training {label}"),
            ("done", "[sweep 1/1] finished {label} in "),
            ("cached", "[sweep 1/1] cache hit for {label}"),
            ("error", "[sweep 1/1] FAILED {label}: Traceback"),
        ],
    )
    def test_each_event_kind_prints_its_line(self, micro_configs, tmp_path, monkeypatch, capsys, kind, line):
        from types import SimpleNamespace

        def _cell(config, **kwargs):
            if kind == "error":
                raise RuntimeError("cell exploded")
            return SimpleNamespace(config=config)

        monkeypatch.setattr(executor_mod, "run_experiment", _cell)
        config = micro_configs[0]
        cache = ExperimentCache(tmp_path)
        if kind == "cached":
            run_experiments([config], workers=1, cache=cache)
            capsys.readouterr()
        if kind == "error":
            with pytest.raises(RuntimeError, match="cell exploded"):
                run_experiments([config], workers=1, cache=cache, verbose=True)
        else:
            run_experiments([config], workers=1, cache=cache, verbose=True)
        assert line.format(label=config.describe()) in capsys.readouterr().out


class TestSweepFrontEnds:
    """The sweep front-ends route through the executor."""

    def test_beta_theta_sweep_parallel_equals_serial(self, micro_scale):
        from repro.core import run_beta_theta_sweep

        base = ExperimentConfig(scale=micro_scale, surrogate="fast_sigmoid", surrogate_scale=0.25)
        grid = dict(betas=(0.25, 0.5), thetas=(1.0,), base_config=base)
        serial = run_beta_theta_sweep(workers=1, **grid)
        parallel = run_beta_theta_sweep(workers=2, **grid)
        assert set(serial.records) == set(parallel.records)
        for cell in serial.records:
            _assert_records_identical(serial.records[cell], parallel.records[cell])

    def test_surrogate_sweep_groups_records_correctly(self, micro_scale, tmp_path):
        from repro.core import run_surrogate_sweep

        base = ExperimentConfig(scale=micro_scale)
        result = run_surrogate_sweep(
            scales=(0.5, 2.0), surrogates=("arctan", "fast_sigmoid"),
            base_config=base, cache=ExperimentCache(tmp_path),
        )
        assert list(result.records) == [
            ("arctan", 0.5), ("arctan", 2.0), ("fast_sigmoid", 0.5), ("fast_sigmoid", 2.0)
        ]
        for (surrogate, scale), record in result.records.items():
            assert record.config.surrogate == surrogate
            assert record.config.surrogate_scale == scale

    def test_encoding_ablation_routes_through_executor(self, micro_scale, tmp_path, monkeypatch):
        from repro.core import run_encoding_ablation

        base = ExperimentConfig(scale=micro_scale)
        cache = ExperimentCache(tmp_path)
        first = run_encoding_ablation(encoders=("direct", "rate"), base_config=base, cache=cache)
        assert list(first.records) == [("direct",), ("rate",)]

        def _no_training(*args, **kwargs):
            raise AssertionError("should be served from cache")

        monkeypatch.setattr(executor_mod, "run_experiment", _no_training)
        again = run_encoding_ablation(encoders=("direct", "rate"), base_config=base, cache=cache)
        for cell in first.records:
            _assert_records_identical(first.records[cell], again.records[cell])


# Run in a child process so that a pool that hangs on a dead worker fails
# the test by its timeout instead of hanging the suite.
_DEAD_WORKER_SWEEP = textwrap.dedent(
    """
    import json, os, sys
    from types import SimpleNamespace

    from repro.core.config import ExperimentConfig
    from repro.exec import CellExecutionError, run_experiments
    from repro.exec import executor as executor_mod

    def _cell(config, **kwargs):
        if config.seed == 0:
            os._exit(1)  # the worker dies mid-cell, as an OOM kill would end it
        return SimpleNamespace(config=config)

    executor_mod.run_experiment = _cell
    configs = [ExperimentConfig(seed=i, label=f"cell-{i}") for i in range(3)]
    events = []
    try:
        run_experiments(configs, workers=2, progress=events.append)
    except CellExecutionError as error:
        done = [event.label for event in events if event.kind == "done"]
        errors = [event.label for event in events if event.kind == "error"]
        print(json.dumps({"lost": error.label.split("; "), "done": done, "errors": errors}))
    else:
        sys.exit("the sweep returned although a worker died")
    """
)


class TestPoolFailures:
    """A failing cell or a dead worker aborts the sweep promptly."""

    @needs_fork
    def test_dead_worker_raises_naming_unfinished_cells(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, REPRO_SWEEP_START_METHOD="fork")
        child = subprocess.Popen(
            [sys.executable, "-c", _DEAD_WORKER_SWEEP],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)  # the sweep and its pool workers
            child.communicate()
            pytest.fail("run_experiments did not return after a pool worker died")
        assert child.returncode == 0, err
        result = json.loads(out.splitlines()[-1])
        assert "cell-0" in result["lost"]
        assert result["errors"] == result["lost"]  # one error event per unfinished cell
        # Every other cell either finished or is named as unfinished.
        assert sorted(result["lost"] + result["done"]) == ["cell-0", "cell-1", "cell-2"]

    @needs_fork
    def test_raising_cell_terminates_running_siblings(self, micro_configs, monkeypatch, pin_fork):
        from repro.exec import CellExecutionError

        def _cell(config, **kwargs):
            if config.seed == 0:
                time.sleep(30)
            raise RuntimeError("cell exploded")

        monkeypatch.setattr(executor_mod, "run_experiment", _cell)
        start = time.perf_counter()
        with pytest.raises(CellExecutionError, match="cell exploded"):
            run_experiments(micro_configs[:2], workers=2)
        assert time.perf_counter() - start < 10
        assert multiprocessing.active_children() == []


class TestFailureTransport:
    """Failures travel as traceback text, never as live exception objects."""

    def test_failure_raises_cell_execution_error_with_label(self, micro_configs, monkeypatch):
        from repro.exec import CellExecutionError

        def _boom(*args, **kwargs):
            raise ValueError("bad hyperparameters")

        monkeypatch.setattr(executor_mod, "run_experiment", _boom)
        with pytest.raises(CellExecutionError) as excinfo:
            run_experiments(micro_configs[:1], workers=1)
        assert excinfo.value.label == micro_configs[0].describe()
        assert "ValueError: bad hyperparameters" in excinfo.value.traceback
        assert "Traceback" in str(excinfo.value)

    @needs_fork
    def test_unpicklable_exception_is_attributed_not_opaque(
        self, micro_configs, monkeypatch, pin_fork
    ):
        """An exception holding unpicklable state must not fail the result's
        transport opaquely: only its traceback crosses."""
        from repro.exec import CellExecutionError

        class Unpicklable(RuntimeError):
            def __init__(self, message):
                super().__init__(message)
                self.callback = lambda: None  # lambdas never pickle

        def _boom(config, **kwargs):
            raise Unpicklable(f"exploded on {config.describe()}")

        monkeypatch.setattr(executor_mod, "run_experiment", _boom)
        events = []
        with pytest.raises(CellExecutionError) as excinfo:
            run_experiments(micro_configs[:2], workers=2, progress=events.append)
        assert "Unpicklable" in excinfo.value.traceback
        errors = [e for e in events if e.kind == "error"]
        assert errors and errors[0].label == micro_configs[errors[0].index].describe()
        assert "Traceback" in errors[0].error
