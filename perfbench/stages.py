"""The benchmark's three stages: sweep cell, offline inference, open-loop serving.

Every stage has the same shape:

* ``warm_up()`` pays one-time costs (lazy imports, first-touch allocations)
  once per process, untimed;
* ``setup(seed)`` builds the stage's fixtures and its seeded inputs (timed
  as ``setup_s`` when the stage is the run's workload);
* ``run(budget_s, probe, recorder)`` repeats measured units until
  ``budget_s`` is spent, and at least ``min_units`` of them, checking the
  program's outputs as it goes (a failed check is a failed operation).
  Timing metrics are scaled to reference host speed with ``probe`` (see
  :mod:`hostspeed`).  With a :class:`~spans.SpanRecorder` the stage's span
  wrappers are installed for the measured units and the returned ``rows``
  hold the per-layer breakdown, in raw seconds.

``run`` returns a :class:`StageRun` holding the end-to-end metrics, their
raw (unscaled) values, per-layer rows, operation counts and ``basis``, the
number the traced run divides by its untraced twin to report tracing
overhead.
"""

from __future__ import annotations

import gc
import pickle
import shutil
import time
from concurrent.futures import Future, wait
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

import repro.core.experiment as experiment
from repro.autograd.tensor import Tensor, no_grad
from repro.core.config import SCALE_PRESETS, ExperimentConfig
from repro.data.synth_svhn import SynthSVHN, SynthSVHNConfig
from repro.exec import run_experiments
from repro.exec.cache import ExperimentCache
from repro.obs import RuntimeProfiler
from repro.runtime import (
    CompiledNetwork,
    compile_network,
    evaluate_with_runtime,
    make_reduced_cnn,
    make_spike_sequence,
)
from repro.serve import ModelRegistry, RequestTimedOut, ServeGateway, ServerOverloaded
from repro.training.trainer import Trainer

from hostspeed import SpeedProbe
from spans import SpanRecorder, Target, patched


@dataclass
class StageRun:
    """What one stage measured in one run."""

    metrics: Dict[str, float] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)
    rows: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    basis: float = 0.0

    def check(self, ok: bool, what: str) -> None:
        """Record one output check; a failed check is a failed operation."""
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _repeat(budget_s: float, min_units: int) -> Iterator[int]:
    """Unit indices until ``budget_s`` is spent and ``min_units`` have run."""
    start = time.perf_counter()
    index = 0
    while index < min_units or time.perf_counter() - start < budget_s:
        yield index
        index += 1


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


# ---------------------------------------------------------------------- #
# sweep_cell
# ---------------------------------------------------------------------- #
#: Training-side layers, timed during the cold cell.  Validation, runtime
#: evaluation, compile, cache store and the hardware report are inclusive:
#: their forward passes and encodes stay in their own row.
SWEEP_TARGETS: Sequence[Target] = (
    ("repro.core.experiment", "make_dataset", "data.make_dataset", True),
    ("repro.encoding.base", "Encoder.__call__", "encoding.encode", True),
    ("repro.core.network", "SpikingCNN.forward", "training.forward", False),
    ("repro.autograd.tensor", "Tensor.backward", "training.backward", False),
    ("repro.training.optim", "Adam.step", "training.optimizer", True),
    ("repro.training.trainer", "Trainer.evaluate", "training.val", True),
    ("repro.autograd.ops_conv", "Conv2d.forward", "autograd.conv2d.fwd", True),
    ("repro.autograd.ops_conv", "Conv2d.backward", "autograd.conv2d.bwd", True),
    ("repro.autograd.ops_conv", "MaxPool2d.forward", "autograd.maxpool2d.fwd", True),
    ("repro.autograd.ops_conv", "MaxPool2d.backward", "autograd.maxpool2d.bwd", True),
    ("repro.autograd.ops_matmul", "Linear.forward", "autograd.linear.fwd", True),
    ("repro.autograd.ops_matmul", "Linear.backward", "autograd.linear.bwd", True),
    # The fused LIF step computes charge, threshold and reset in one pass,
    # so the Heaviside forward is inside autograd.lif.fwd; the surrogate
    # derivative has its own backward node.
    ("repro.neurons.lif", "fused_lif_step", "autograd.lif.fwd", True),
    ("repro.autograd.ops_spiking", "_LIFCharge.backward", "autograd.lif.bwd", True),
    ("repro.autograd.ops_spiking", "_LIFReset.backward", "autograd.lif.bwd", True),
    ("repro.autograd.ops_spiking", "_LIFSpike.backward", "autograd.spike.bwd", True),
    ("repro.exec.cache", "ExperimentCache.store", "exec.cache_store", True),
    ("repro.runtime", "compile_network", "runtime.compile", True),
    ("repro.runtime", "evaluate_with_runtime", "runtime.eval", True),
    ("repro.core.experiment", "build_workload", "hardware.report", True),
    ("repro.core.experiment", "evaluate_on_hardware", "hardware.report", True),
)
SWEEP_TIMED_ROWS = tuple(dict.fromkeys(row for _, _, row, _ in SWEEP_TARGETS))
SWEEP_COUNTED_ROWS = tuple(row for row in SWEEP_TIMED_ROWS if row.startswith("autograd."))
WARM_TARGETS: Sequence[Target] = (("repro.exec.cache", "ExperimentCache.load", "exec.cache_hit", True),)


@contextmanager
def _capture_trained(sink: List[tuple]) -> Iterator[None]:
    """Keep ``(model, encoder, test_loader)`` of every cell evaluated inside the body."""
    original = experiment.evaluate_trained_model

    def capture(model, encoder, test_loader, *args, **kwargs):
        sink.append((model, encoder, test_loader))
        return original(model, encoder, test_loader, *args, **kwargs)

    experiment.evaluate_trained_model = capture
    try:
        yield
    finally:
        experiment.evaluate_trained_model = original


@contextmanager
def _probe_each_step(probe: SpeedProbe) -> Iterator[List[float]]:
    """Run the speed probe after every training step; yields ``[seconds it took]``."""
    original = Trainer.train_batch
    spent = [0.0]

    def train_batch(self, *args, **kwargs):
        try:
            return original(self, *args, **kwargs)
        finally:
            spent[0] += probe.sample()

    Trainer.train_batch = train_batch
    try:
        yield spent
    finally:
        Trainer.train_batch = original


class SweepStage:
    """``sweep_cell``: the default cell through ``run_experiments``, cold then warm.

    The cell is the paper's default configuration at its fixed seed: at
    bench scale its accuracy swings from 0.18 to 0.66 across init seeds, so
    the workload seed never reseeds it and ``val_accuracy`` repeats exactly
    from run to run.  The speed probe runs after every training step and its
    time is taken out of ``cell_s``, the median over at least two cells.
    """

    min_units = 2

    def __init__(self, workdir: Path, config: Optional[ExperimentConfig] = None) -> None:
        self.workdir = Path(workdir)
        self.config = config if config is not None else ExperimentConfig()
        self.warmed = False

    def warm_up(self) -> None:
        if not self.warmed:
            run_experiments([ExperimentConfig(scale=SCALE_PRESETS["smoke"])], workers=1)
            self.warmed = True

    def setup(self, seed: int) -> None:
        self.root = self.workdir / "sweep"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)

    def run(self, budget_s: float, probe: SpeedProbe, recorder: Optional[SpanRecorder] = None) -> StageRun:
        out = StageRun()
        warm_recorder = SpanRecorder() if recorder is not None else None
        raw_s: List[float] = []
        cell_s: List[float] = []
        executor_s: List[float] = []
        accuracy = 0.0
        for index in _repeat(budget_s, self.min_units):
            cache = ExperimentCache(self.root / f"cell-{index}")
            trained: List[tuple] = []
            events: list = []
            spans = patched(recorder, SWEEP_TARGETS) if recorder is not None else nullcontext()
            with _capture_trained(trained), _probe_each_step(probe) as spent, spans:
                start = time.perf_counter()
                cold = run_experiments([self.config], workers=1, cache=cache, progress=events.append)[0]
                end = time.perf_counter()
            raw_s.append(end - start - spent[0])
            cell_s.append(raw_s[-1] * probe.factor(start, end))
            executor_s.append(sum(event.seconds for event in events if event.kind == "done") - spent[0])
            events = []
            with patched(warm_recorder, WARM_TARGETS) if warm_recorder is not None else nullcontext():
                warm = run_experiments([self.config], workers=1, cache=cache, progress=events.append)[0]
            accuracy = cold.training.final_val_accuracy

            model, encoder, test_loader = trained[-1]
            compiled_accuracy, _ = evaluate_with_runtime(model, encoder, test_loader)
            out.check(
                compiled_accuracy == accuracy,
                f"sweep_cell: compiled-plan accuracy {compiled_accuracy} != trainer val_accuracy {accuracy}",
            )
            out.check(
                [event.kind for event in events] == ["cached"]
                and pickle.dumps(warm, protocol=pickle.HIGHEST_PROTOCOL)
                == pickle.dumps(cold, protocol=pickle.HIGHEST_PROTOCOL),
                f"sweep_cell: warm re-run trained or changed the record (events {[e.kind for e in events]})",
            )
            shutil.rmtree(cache.root, ignore_errors=True)
            out.attempted += 2

        out.metrics = {"cell_s": _median(cell_s), "val_accuracy": accuracy}
        out.raw = {"cell_s": _median(raw_s)}
        out.basis = _median(cell_s)
        if recorder is not None:
            cells = len(raw_s)
            out.rows = {f"{row}_s": recorder.self_s.get(row, 0.0) / cells for row in SWEEP_TIMED_ROWS}
            out.rows.update({f"{row}.calls": recorder.calls.get(row, 0) / cells for row in SWEEP_COUNTED_ROWS})
            out.rows["sweep_cell.traced_cell_s"] = sum(raw_s) / cells
            out.rows["sweep_cell.executor_cell_s"] = sum(executor_s) / cells
            out.rows["sweep_cell.unattributed_s"] = (sum(raw_s) - recorder.total_self_s()) / cells
            out.rows["exec.cache_hit_s"] = warm_recorder.self_s.get("exec.cache_hit", 0.0) / cells
            out.notes = recorder.missing + warm_recorder.missing
        return out


# ---------------------------------------------------------------------- #
# infer_batch
# ---------------------------------------------------------------------- #
PRECISIONS = ("fp32", "int8")


class InferStage:
    """``infer_batch``: closed-loop compiled inference, fp32 and int8 plans on the same batches.

    Two speed-probe samples follow every fp32/int8 pair; each pair is scaled
    by the probes nearest to it.
    """

    def __init__(
        self, num_steps: int = 16, batch: int = 64, density: float = 0.1, distinct: int = 16, min_units: int = 48
    ) -> None:
        self.num_steps = num_steps
        self.batch = batch
        self.density = density
        self.distinct = distinct
        self.min_units = min_units

    def warm_up(self) -> None:
        pass

    def setup(self, seed: int) -> None:
        self.model = make_reduced_cnn(seed=0)
        self.model.eval()
        self.plans: Dict[str, CompiledNetwork] = {p: compile_network(self.model, precision=p) for p in PRECISIONS}
        shape = (self.batch, self.model.in_channels, self.model.image_size, self.model.image_size)
        self.batches = [
            make_spike_sequence(shape, self.density, self.num_steps, seed=[seed, i]) for i in range(self.distinct)
        ]
        # Each plan's first run prepares its kernels; that belongs to set-up.
        for plan in self.plans.values():
            plan.run(self.batches[0][:, :1], record_activity=False)

    def run(self, budget_s: float, probe: SpeedProbe, recorder: Optional[SpanRecorder] = None) -> StageRun:
        out = StageRun()
        traced = recorder is not None
        profilers = {p: RuntimeProfiler() for p in PRECISIONS}
        seconds: Dict[str, List[float]] = {p: [] for p in PRECISIONS}
        windows: Dict[str, List[tuple]] = {p: [] for p in PRECISIONS}
        fired: Dict[str, float] = {}
        slots: Dict[str, float] = {}
        agree = 0
        for index in _repeat(budget_s, self.min_units):
            spikes = self.batches[index % self.distinct]
            predictions = {}
            for precision in PRECISIONS:
                plan = self.plans[precision]
                start = time.perf_counter()
                result = plan.run(spikes, profiler=profilers[precision] if traced else None)
                end = time.perf_counter()
                seconds[precision].append(end - start)
                windows[precision].append((start, end))
                predictions[precision] = result.predictions()
                if index == 0 and precision == "fp32":
                    out.check(
                        np.array_equal(self._dense_counts(spikes), result.counts),
                        "infer_batch: fp32 plan counts differ from the dense forward",
                    )
                if traced and precision == "fp32":
                    activity = result.activity
                    for layer, count in activity.layer_output_events.items():
                        fired[layer] = fired.get(layer, 0.0) + count
                        slots[layer] = slots.get(layer, 0.0) + (
                            activity.layer_neuron_counts[layer] * activity.num_steps * activity.samples
                        )
            probe.sample(2)
            agree += int(np.count_nonzero(predictions["fp32"] == predictions["int8"]))
            out.attempted += 1

        runs = len(seconds["fp32"])
        scaled = {
            p: [s * probe.factor(*window) for s, window in zip(seconds[p], windows[p])] for p in PRECISIONS
        }
        out.metrics = {f"infer_{p}_samples_per_s": self.batch / _median(scaled[p]) for p in PRECISIONS}
        out.metrics["infer_int8_agreement"] = agree / (runs * self.batch)
        out.raw = {f"infer_{p}_samples_per_s": self.batch / _median(seconds[p]) for p in PRECISIONS}
        out.basis = _median(scaled["fp32"])
        if traced:
            out.rows = self._rows(profilers, seconds, runs)
            out.rows.update({f"runtime.fp32.density.{layer}": fired[layer] / slots[layer] for layer in fired})
        return out

    def _dense_counts(self, spikes: np.ndarray) -> np.ndarray:
        self.model.reset_spiking_state()
        with no_grad():
            return self.model(Tensor(spikes)).data

    def _rows(self, profilers, seconds, runs) -> Dict[str, float]:
        rows: Dict[str, float] = {}
        # One batch's measured activity, priced by the accelerator model.
        plan = self.plans["fp32"]
        profiler = RuntimeProfiler()
        result = plan.run(self.batches[0], profiler=profiler)
        layers = result.activity.to_workload(plan.layer_specs).layers
        for layer in profiler.report(result.activity, plan.layer_specs).layers:
            rows[f"hardware.measured_over_modeled.{layer['layer']}"] = layer["ratio"]
        for precision in PRECISIONS:
            kernel_s = profilers[precision].kernel_seconds()
            for kernel, total in kernel_s.items():
                rows[f"runtime.{precision}.{kernel}_s"] = total / runs
            rows[f"runtime.{precision}.batch_s"] = sum(seconds[precision]) / runs
            rows[f"runtime.{precision}.unattributed_s"] = (sum(seconds[precision]) - sum(kernel_s.values())) / runs
            for layer in layers:
                # Dense MACs of one batch, computed from the layer shapes.
                rows[f"runtime.{precision}.{layer.name}.macs"] = float(
                    layer.dense_macs_per_step * self.num_steps * self.batch
                )
        return rows


# ---------------------------------------------------------------------- #
# serve_open_loop
# ---------------------------------------------------------------------- #
PHASES = ("low", "high", "over")
#: Absolute Poisson arrival rates (requests/s), fixed so that a faster
#: program meets the same load, not a heavier one.  On a 2-CPU x86 host the
#: gateway below serves about 1800 req/s from a pre-queued burst but only
#: 450-1000 req/s open-loop, following the host's speed spells, because
#: the generator shares the interpreter with the gateway's threads; that
#: open-loop figure is the capacity the phases are set against.  ``low``
#: and ``high`` stay below it even in a slow spell, so their tails measure
#: batching and queueing rather than saturation; ``over`` is as much as the
#: generator can still send on time, which overloads the gateway in all
#: but its fastest spells.
RATES_RPS = {"low": 100.0, "high": 250.0, "over": 1000.0}
#: Phase lengths (s) of one pass.
PHASE_S = {"low": 1.5, "high": 1.0, "over": 2.0}
#: Per-request deadline: past it the server times the request out instead
#: of serving it late, so overload fails requests rather than growing a backlog.
DEADLINE_MS = 75.0
#: The latency limit (the SLO) that ``serve.goodput_rps.over`` counts against.
LIMIT_MS = 2 * DEADLINE_MS
#: ``serve.goodput_rps.over`` is a median over this many windows of ``over`` in every pass.
GOODPUT_WINDOWS = 4
#: Shed-mode admission cap on the gateway's waiting queue.
MAX_QUEUE = 64
#: A phase is invalid when the generator's median lateness exceeds this:
#: then the offered load was not delivered.  Isolated stalls (the server's
#: threads holding the interpreter) show in p99 lag and are charged to the
#: delayed requests, since latency is timed from the due time.
LAG_LIMIT_MS = 1.0
MODEL_NAME = "bench"
SERVE_TARGETS: Sequence[Target] = (
    ("repro.serve.gateway", "ServeGateway.submit", "serve.submit", True),
    ("repro.runtime.engine", "CompiledNetwork.run", "runtime.plan_run", True),
)


@dataclass
class Schedule:
    """Open-loop arrivals: due offsets (s) from the phase start and image index, per phase."""

    due: Dict[str, np.ndarray]
    image: Dict[str, np.ndarray]


def make_schedule(seed: int, rates: Dict[str, float], phase_s: Dict[str, float], pool: int) -> Schedule:
    """Poisson arrivals for each phase, drawn from the workload seed."""
    rng = np.random.default_rng([seed, 2])
    due: Dict[str, np.ndarray] = {}
    image: Dict[str, np.ndarray] = {}
    for name in PHASES:
        gaps = rng.exponential(1.0 / rates[name], int(rates[name] * phase_s[name] * 2) + 16)
        times = np.cumsum(gaps)
        due[name] = times[times < phase_s[name]]
        image[name] = rng.integers(0, pool, len(due[name]))
    return Schedule(due, image)


@dataclass
class OpenLoopLog:
    """Per-request timestamps (absolute ``perf_counter`` seconds) and outcomes."""

    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    outcome: List[str]
    results: list

    def latency_ms(self) -> np.ndarray:
        """Latency of every request, timed from when it was *due* to be sent."""
        return (self.done - self.due) * 1000.0

    def lag_ms(self) -> np.ndarray:
        """How late the generator sent each request."""
        return (self.sent - self.due) * 1000.0


def drive(
    submit: Callable[[int], Future], due: np.ndarray, lead_s: float = 0.01, drain_s: float = 60.0
) -> OpenLoopLog:
    """Send request ``i`` at ``due[i]`` seconds after the start, whatever the server is doing.

    ``submit(i)`` returns a future; a synchronous ``ServerOverloaded`` is a
    shed.  Completion is stamped by a done-callback, and every latency is
    timed from the due time, so a stall in the generator or the server is
    charged to every request it delayed.
    """
    n = len(due)
    start = time.perf_counter() + lead_s
    due_abs = start + np.asarray(due, dtype=np.float64)
    sent = np.zeros(n)
    done = np.full(n, np.nan)
    outcome = ["pending"] * n
    results: list = [None] * n
    futures = []

    def finished(i: int, future: Future) -> None:
        done[i] = time.perf_counter()
        error = future.exception()
        if error is None:
            outcome[i] = "served"
            results[i] = future.result()
        elif isinstance(error, RequestTimedOut):
            outcome[i] = "timed_out"
        elif isinstance(error, ServerOverloaded):
            outcome[i] = "shed"
        else:
            outcome[i] = "failed"

    for i in range(n):
        delay = due_abs[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent[i] = time.perf_counter()
        try:
            future = submit(i)
        except ServerOverloaded:
            outcome[i] = "shed"
            continue
        futures.append(future)
        future.add_done_callback(partial(finished, i))
    wait(futures, timeout=drain_s)
    for i, state in enumerate(outcome):
        if state == "pending":
            outcome[i] = "failed"
    return OpenLoopLog(due_abs, sent, done, outcome, results)


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


class ServeStage:
    """``serve_open_loop``: Poisson arrivals in three fixed-rate phases into one gateway.

    One pass drives the phases in turn; every served micro-batch is replayed
    offline after its phase.  The stage runs in the traced run only and
    reports per-layer rows: on a shared 2-vCPU host its latency tails,
    goodput and failure ratio spread 15-70% from run to run, because the
    gateway's capacity follows the host's speed spells and the generator and
    the gateway's threads contend for the interpreter lock.  The speed probe
    tracks single-core speed and did not steady them, so they are not scaled.
    """

    min_units = 3

    def __init__(
        self,
        workdir: Path,
        config: Optional[ExperimentConfig] = None,
        rates: Optional[Dict[str, float]] = None,
        phase_s: Optional[Dict[str, float]] = None,
        pool: int = 256,
    ) -> None:
        self.workdir = Path(workdir)
        self.config = config if config is not None else ExperimentConfig()
        self.rates = dict(rates or RATES_RPS)
        self.phase_s = dict(phase_s or PHASE_S)
        self.pool = pool
        self.gateway: Optional[ServeGateway] = None

    def warm_up(self) -> None:
        pass

    def setup(self, seed: int) -> None:
        self.close()
        self.model = experiment.make_model(self.config)
        self.encoder = experiment.make_encoder(self.config)
        registry = ModelRegistry(self.workdir / "registry")
        registry.save(MODEL_NAME, self.model, self.encoder)
        size = self.config.scale.image_size
        self.images = SynthSVHN(self.pool, seed=seed, config=SynthSVHNConfig.easy(image_size=size)).images
        self.schedule = make_schedule(seed, self.rates, self.phase_s, self.pool)
        self.gateway = ServeGateway(registry, max_queue=MAX_QUEUE)
        # Activation (checkpoint load, plan compile, first batches of every
        # size) belongs to set-up.
        self.gateway.submit(MODEL_NAME, self.images[0]).result()
        wait([self.gateway.submit(MODEL_NAME, image) for image in self.images[:32]])

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None

    def run(self, budget_s: float, probe: SpeedProbe, recorder: Optional[SpanRecorder] = None) -> StageRun:
        out = StageRun()
        logs: Dict[str, List[OpenLoopLog]] = {name: [] for name in PHASES}
        for _ in _repeat(budget_s, self.min_units):
            gc.collect()
            for name in PHASES:
                images = self.images[self.schedule.image[name]]

                def submit(i: int, images=images) -> Future:
                    return self.gateway.submit(MODEL_NAME, images[i], deadline_ms=DEADLINE_MS)

                with patched(recorder, SERVE_TARGETS) if recorder is not None else nullcontext():
                    logs[name].append(drive(submit, self.schedule.due[name]))
                self._replay(logs[name][-1], images, out)

        outcome = {name: np.concatenate([np.asarray(log.outcome) for log in logs[name]]) for name in PHASES}
        latency = {name: np.concatenate([log.latency_ms() for log in logs[name]]) for name in PHASES}
        lag = {name: np.concatenate([log.lag_ms() for log in logs[name]]) for name in PHASES}
        everything = np.concatenate([outcome[name] for name in PHASES])
        out.attempted += len(everything)
        out.failed += int(np.count_nonzero(everything == "failed"))
        if np.any(everything == "failed"):
            out.errors.append(f"serve_open_loop: {int(np.count_nonzero(everything == 'failed'))} requests failed")
        for name in PHASES:
            late = _percentile(lag[name], 50)
            if late > LAG_LIMIT_MS:
                out.notes.append(f"serve_open_loop: phase {name} invalid, generator median lateness {late:.2f} ms")
        if recorder is not None:
            out.rows = self._rows(recorder, logs, outcome, latency, lag)
            out.notes += recorder.missing
        return out

    def _goodput(self, log: OpenLoopLog) -> List[float]:
        """Requests/s served within ``LIMIT_MS`` in each window of one ``over`` phase.

        ``over`` is cut into ``GOODPUT_WINDOWS + 1`` equal windows by due
        time and the first is left out: while the backlog builds, the
        gateway still batches well and serves more than it can sustain, and
        how long that lasts varies from run to run.
        """
        width = self.phase_s["over"] / (GOODPUT_WINDOWS + 1)
        due = self.schedule.due["over"]
        good = (np.asarray(log.outcome) == "served") & (log.latency_ms() <= LIMIT_MS)
        rates = []
        for window in range(1, GOODPUT_WINDOWS + 1):
            inside = (due >= window * width) & (due < (window + 1) * width)
            rates.append(np.count_nonzero(good & inside) / width)
        return rates

    def _replay(self, log: OpenLoopLog, images: np.ndarray, out: StageRun) -> None:
        """Re-run every served micro-batch offline through a fresh fp32 plan.

        With one worker, batches are dispatched FIFO, so the members of one
        batch are consecutive among the served requests in admission order.
        """
        plan = compile_network(self.model)
        served = sorted(
            (result.sequence, i) for i, result in enumerate(log.results) if result is not None
        )
        position = 0
        while position < len(served):
            size = log.results[served[position][1]].batch_size
            members = [i for _, i in served[position : position + size]]
            position += size
            spikes = np.concatenate([self.encoder(images[i][None]) for i in members], axis=1)
            counts = plan.run(spikes, record_activity=False).counts
            same = len(members) == size and all(log.results[i].batch_size == size for i in members)
            same = same and all(np.array_equal(counts[k], log.results[i].counts) for k, i in enumerate(members))
            sequence = log.results[members[0]].sequence
            out.check(same, f"serve_open_loop: replayed batch at sequence {sequence} differs")

    def _rows(self, recorder, logs, outcome, latency, lag) -> Dict[str, float]:
        rows: Dict[str, float] = {}
        queue: Dict[str, np.ndarray] = {}
        server: Dict[str, np.ndarray] = {}
        for name in PHASES:
            results = [r for log in logs[name] for r in log.results]
            queue[name] = np.asarray([r.queue_ms if r is not None else np.nan for r in results])
            server[name] = np.asarray([r.latency_ms if r is not None else np.nan for r in results])
            batch = np.asarray([r.batch_size if r is not None else np.nan for r in results])
            done = outcome[name] == "served"
            rows[f"serve.sent.{name}"] = float(len(outcome[name]))
            for state in ("shed", "failed", "timed_out"):
                rows[f"serve.{state}.{name}"] = float(np.count_nonzero(outcome[name] == state))
            rows[f"serve.queue_ms.p50.{name}"] = _percentile(queue[name][done], 50)
            rows[f"serve.queue_ms.p99.{name}"] = _percentile(queue[name][done], 99)
            rows[f"serve.service_ms.p50.{name}"] = _percentile((server[name] - queue[name])[done], 50)
            rows[f"serve.batch_size_mean.{name}"] = float(np.mean(batch[done])) if np.any(done) else float("nan")
            rows[f"serve.gen_lag_ms.p50.{name}"] = _percentile(lag[name], 50)
            rows[f"serve.gen_lag_ms.p99.{name}"] = _percentile(lag[name], 99)
            rows[f"serve.phase_valid.{name}"] = float(rows[f"serve.gen_lag_ms.p50.{name}"] <= LAG_LIMIT_MS)
            for q in (50, 95, 99):
                rows[f"serve.latency_ms.p{q}.{name}"] = _percentile(latency[name][done], q)
        every_outcome = np.concatenate([outcome[name] for name in PHASES])
        rows["serve.fail_ratio"] = np.count_nonzero(every_outcome != "served") / len(every_outcome)
        rows["serve.goodput_rps.over"] = _median([rate for log in logs["over"] for rate in self._goodput(log)])
        submits = max(recorder.calls.get("serve.submit", 0), 1)
        plan_runs = max(recorder.calls.get("runtime.plan_run", 0), 1)
        rows["serve.submit_ms"] = recorder.self_s.get("serve.submit", 0.0) * 1000.0 / submits
        rows["runtime.plan_run_ms"] = recorder.self_s.get("runtime.plan_run", 0.0) * 1000.0 / plan_runs
        rows["runtime.plan_run.calls"] = float(recorder.calls.get("runtime.plan_run", 0))
        # Mean latency of a served request, from its due time, split into
        # generator lateness, server queue (from submit to batch start),
        # service (batch start to reply) and the unattributed remainder
        # (gateway routing before the server stamps the request, callback).
        served = np.concatenate([outcome[name] == "served" for name in PHASES])
        every = {
            "latency": np.concatenate([latency[name] for name in PHASES])[served],
            "lag": np.concatenate([lag[name] for name in PHASES])[served],
            "queue": np.concatenate([queue[name] for name in PHASES])[served],
            "service": np.concatenate([server[name] - queue[name] for name in PHASES])[served],
        }
        rows["serve.traced_latency_ms"] = float(np.mean(every["latency"]))
        rows["serve.mean.lag_ms"] = float(np.mean(every["lag"]))
        rows["serve.mean.queue_ms"] = float(np.mean(every["queue"]))
        rows["serve.mean.service_ms"] = float(np.mean(every["service"]))
        parts = ("serve.mean.lag_ms", "serve.mean.queue_ms", "serve.mean.service_ms")
        rows["serve.unattributed_ms"] = rows["serve.traced_latency_ms"] - sum(rows[part] for part in parts)
        return rows
