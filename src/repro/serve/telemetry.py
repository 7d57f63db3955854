"""Live serving telemetry: latency percentiles, achieved fps, spike activity.

The scheduler reports one :class:`RequestStat` per completed request plus
the batch's measured :class:`~repro.runtime.activity.RuntimeActivity`.
:class:`ServeTelemetry` aggregates both — request stats into a bounded
window (percentiles are over the most recent ``window`` requests), activity
into a running total — which is exactly the input the hardware cost models
consume, so the telemetry can put *measured* serving throughput side by
side with the accelerator model's *predicted* fps for the same traffic
(:meth:`ServeTelemetry.hardware_comparison`).

Counter state lives in :mod:`repro.obs.metrics` instruments: every
telemetry instance owns a private
:class:`~repro.obs.metrics.MetricsRegistry` (labelled with the model name
when one is given), and the ``total_*`` properties read those instruments.
The gateway attaches each model's registry to the process-wide default
registry, which is what ``python -m repro.obs serve`` scrapes.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.obs.metrics import BATCH_SIZE_BUCKETS, LATENCY_BUCKETS_MS, MetricsRegistry
from repro.runtime.activity import RuntimeActivity


@dataclass(frozen=True)
class RequestStat:
    """Timing and activity footprint of one served request.

    Attributes
    ----------
    latency_ms:
        Submit-to-completion wall time (queueing + batching + compute).
    queue_ms:
        Time spent waiting before the batch started executing.
    batch_size:
        Size of the micro-batch the request was coalesced into.
    input_density:
        Fraction of non-zero elements in the request's encoded spike train.
    """

    latency_ms: float
    queue_ms: float
    batch_size: int
    input_density: float


class ServeTelemetry:
    """Thread-safe aggregate of serving measurements over metric instruments.

    Parameters
    ----------
    window:
        Number of most-recent requests the latency percentiles cover.
        Totals (request/batch counters, admission counters, spike activity,
        fps) are unbounded.
    model:
        Optional served-model name; when given, every instrument in this
        telemetry's registry carries a ``model="..."`` label so several
        models' metrics coexist in one scrape.

    Besides completion stats, the scheduler reports every *admission
    decision* here: :meth:`record_admission` when a request enters the
    queue (tracking the queue-depth high-water mark), :meth:`record_shed`
    when admission control rejects one and :meth:`record_timeout` when a
    queued request misses its deadline — so overload behaviour is visible
    in the same summary as latency and throughput.
    """

    def __init__(self, window: int = 4096, model: str = "") -> None:
        if window < 1:
            raise ValueError(f"window must be positive, got {window}")
        self.window = int(window)
        #: Name of the served model these metrics describe ("" = unnamed).
        self.model = str(model)
        #: The instrument registry backing every counter below; the gateway
        #: attaches it to ``repro.obs.default_registry()`` for scraping.
        self.metrics = MetricsRegistry(labels={"model": self.model} if self.model else None)
        self._lock = threading.Lock()
        self._stats: Deque[RequestStat] = deque(maxlen=self.window)

        reg = self.metrics
        self._c_requests = reg.counter("repro_serve_requests_total", help="Requests completed successfully.")
        self._c_batches = reg.counter("repro_serve_batches_total", help="Micro-batches executed.")
        self._c_deadline = reg.counter(
            "repro_serve_deadline_dispatches_total",
            help="Batches dispatched early to protect a request deadline.",
        )
        self._c_admitted = reg.counter("repro_serve_admitted_total", help="Requests admitted to the queue.")
        self._c_shed = reg.counter(
            "repro_serve_shed_total", help="Requests rejected by admission control (queue full)."
        )
        self._c_timed_out = reg.counter(
            "repro_serve_timed_out_total", help="Requests that missed their deadline."
        )
        self._c_failed = reg.counter("repro_serve_failed_total", help="Requests whose batch failed.")
        self._c_reload_failures = reg.counter(
            "repro_serve_reload_failures_total", help="Hot reloads that failed (old weights kept serving)."
        )
        self._g_queue_high_water = reg.gauge(
            "repro_serve_queue_depth_high_water", help="Deepest queue observed at admission."
        )
        self._g_weight_bits = reg.gauge(
            "repro_serve_weight_bits", help="Weight precision in bits (0 = full-precision float)."
        )
        self._h_latency = reg.histogram(
            "repro_serve_request_latency_ms",
            buckets=LATENCY_BUCKETS_MS,
            help="Submit-to-completion latency per request (ms).",
        )
        self._h_queue = reg.histogram(
            "repro_serve_queue_wait_ms",
            buckets=LATENCY_BUCKETS_MS,
            help="Queue wait before batch execution per request (ms).",
        )
        self._h_batch_size = reg.histogram(
            "repro_serve_batch_size",
            buckets=BATCH_SIZE_BUCKETS,
            help="Micro-batch size distribution.",
        )

        #: Human-readable description of the most recent failure (batch
        #: error or reload failure); ``None`` until one occurs.
        self.last_error: Optional[str] = None
        #: Execution precision of the served plans (``"fp32"`` until a
        #: server attaches and reports its pool's precision).
        self.precision = "fp32"
        #: Weight bits for quantized serving (``None`` = full precision).
        self.weight_bits: Optional[int] = None
        self.activity: Optional[RuntimeActivity] = None
        self._first_submit: Optional[float] = None
        self._last_done: Optional[float] = None

    # -- instrument views ------------------------------------------------ #
    @property
    def total_requests(self) -> int:
        """Requests completed successfully."""
        return int(self._c_requests.value)

    @property
    def total_batches(self) -> int:
        """Micro-batches executed."""
        return int(self._c_batches.value)

    @property
    def total_admitted(self) -> int:
        """Requests admitted to the queue."""
        return int(self._c_admitted.value)

    @property
    def total_shed(self) -> int:
        """Requests rejected by admission control (queue full)."""
        return int(self._c_shed.value)

    @property
    def total_deadline_dispatches(self) -> int:
        """Batches dispatched early to protect a request deadline."""
        return int(self._c_deadline.value)

    @property
    def total_failed(self) -> int:
        """Requests whose batch failed."""
        return int(self._c_failed.value)

    @property
    def total_timed_out(self) -> int:
        """Requests that missed their deadline."""
        return int(self._c_timed_out.value)

    @property
    def total_reload_failures(self) -> int:
        """Hot reloads that failed (old weights kept serving)."""
        return int(self._c_reload_failures.value)

    @property
    def queue_depth_high_water(self) -> int:
        """Deepest queue observed at admission."""
        return int(self._g_queue_high_water.value)

    # ------------------------------------------------------------------ #
    def record_admission(self, queue_depth: int) -> None:
        """Count one admitted request and fold in the observed queue depth."""
        self._c_admitted.inc()
        self._g_queue_high_water.set_max(float(queue_depth))

    def record_shed(self) -> None:
        """Count one request rejected by admission control."""
        self._c_shed.inc()

    def record_deadline_dispatch(self) -> None:
        """Count one batch dispatched early to protect a request's deadline."""
        self._c_deadline.inc()

    def record_failure(self, error: str, count: int = 1) -> None:
        """Count ``count`` requests whose batch failed, remembering the error.

        Called once per failed micro-batch with the batch size, so the
        ``failed`` counter is in requests (comparable with ``requests`` /
        ``shed``), while ``last_error`` keeps the most recent cause for the
        rendered report.
        """
        with self._lock:
            self._c_failed.inc(int(count))
            self.last_error = str(error)

    def record_timeout(self) -> None:
        """Count one request that missed its deadline."""
        self._c_timed_out.inc()

    def set_precision(self, precision: str, weight_bits: Optional[int] = None) -> None:
        """Record the execution precision of the plans now being served.

        Called when a server attaches to a compiled-plan pool (and again
        after a hot-reload that replaces the pool), so a telemetry snapshot
        always names the precision its numbers were measured at.
        """
        with self._lock:
            self.precision = str(precision)
            self.weight_bits = int(weight_bits) if weight_bits is not None else None
            self._g_weight_bits.set(float(self.weight_bits or 0))

    def record_reload_failure(self, error: str) -> None:
        """Count one hot-reload that failed (old weights keep serving)."""
        with self._lock:
            self._c_reload_failures.inc()
            self.last_error = str(error)

    def reset_activity(self) -> None:
        """Drop the accumulated spike activity; keep every other counter.

        Called when the *served model* changes under a continuing telemetry
        stream (e.g. a gateway hot-reload that replaces the network):
        request/admission counters and latency percentiles remain
        comparable across the swap, but per-layer spike activity from the
        old network must not be merged with the new one's — the layer sets
        (and possibly ``num_steps``) no longer match.
        """
        with self._lock:
            self.activity = None

    def record_batch(
        self,
        stats: Sequence[RequestStat],
        activity: Optional[RuntimeActivity],
        first_submit: float,
        done: float,
    ) -> None:
        """Fold one completed micro-batch into the aggregate.

        Spike activity accumulates per timestep regime: a batch whose
        ``num_steps`` differs from the accumulated activity (the served
        model was hot-swapped to a different timestep count) restarts the
        activity aggregate rather than failing the batch — request
        counters and latency stats continue uninterrupted.
        """
        with self._lock:
            self._stats.extend(stats)
            self._c_requests.inc(len(stats))
            self._c_batches.inc()
            for stat in stats:
                self._h_latency.observe(stat.latency_ms)
                self._h_queue.observe(stat.queue_ms)
            if stats:
                self._h_batch_size.observe(float(len(stats)))
            if activity is not None:
                if self.activity is None or self.activity.num_steps != activity.num_steps:
                    self.activity = RuntimeActivity(num_steps=activity.num_steps)
                self.activity.merge(activity)
            if self._first_submit is None or first_submit < self._first_submit:
                self._first_submit = first_submit
            if self._last_done is None or done > self._last_done:
                self._last_done = done

    # ------------------------------------------------------------------ #
    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 latency (ms) over the current window (NaN when empty)."""
        with self._lock:
            stats = list(self._stats)
        if not stats:
            return {"p50_ms": float("nan"), "p95_ms": float("nan"), "p99_ms": float("nan")}
        latencies = np.asarray([stat.latency_ms for stat in stats])
        p50, p95, p99 = np.percentile(latencies, [50.0, 95.0, 99.0])
        return {"p50_ms": float(p50), "p95_ms": float(p95), "p99_ms": float(p99)}

    def achieved_fps(self) -> float:
        """Completed requests per second of wall time since the first submit."""
        with self._lock:
            total = int(self._c_requests.value)
            if self._first_submit is None or self._last_done is None or total == 0:
                return 0.0
            elapsed = self._last_done - self._first_submit
            if elapsed <= 0:
                return float("inf")
            return total / elapsed

    def mean_batch_size(self) -> float:
        """Average micro-batch size over the window (0 when nothing served)."""
        with self._lock:
            if not self._stats:
                return 0.0
            return float(np.mean([stat.batch_size for stat in self._stats]))

    def mean_input_density(self) -> float:
        """Average encoded-input density over the window (measured, per request)."""
        with self._lock:
            if not self._stats:
                return 0.0
            return float(np.mean([stat.input_density for stat in self._stats]))

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, float]:
        """Flat snapshot of every headline serving metric."""
        out: Dict[str, float] = {
            "requests": float(self.total_requests),
            "batches": float(self.total_batches),
            "admitted": float(self.total_admitted),
            "shed": float(self.total_shed),
            "queue_high_water": float(self.queue_depth_high_water),
            "deadline_dispatches": float(self.total_deadline_dispatches),
            "failed": float(self.total_failed),
            "timed_out": float(self.total_timed_out),
            "reload_failures": float(self.total_reload_failures),
            # 0.0 = full-precision float serving; the precision *name* is
            # on the telemetry object itself (summary values stay floats).
            "weight_bits": float(self.weight_bits or 0),
            "achieved_fps": self.achieved_fps(),
            "mean_batch_size": self.mean_batch_size(),
            "mean_input_density": self.mean_input_density(),
        }
        out.update(self.latency_percentiles())
        return out

    def hardware_comparison(
        self,
        layer_specs: Sequence[Mapping],
        accelerator: Optional[Any] = None,
        modeled: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """Measured serving numbers next to the accelerator model's prediction.

        The modeled side comes either from ``modeled`` (a stored
        :meth:`~repro.hardware.efficiency.HardwareReport.as_dict` mapping,
        e.g. the one the registry publishes with each model) or — preferred
        when traffic has been served — from running ``accelerator`` on the
        workload built from the *measured* serving activity, so prediction
        and measurement describe exactly the same spike traffic.

        Returns a flat dict with ``measured_fps`` / ``modeled_fps`` /
        ``fps_ratio`` (measured over modeled) plus measured latency
        percentiles and the modeled per-inference latency.
        """
        with self._lock:
            activity = self.activity
        modeled_fps = float("nan")
        modeled_latency_ms = float("nan")
        if activity is not None and activity.samples > 0 and layer_specs:
            from repro.hardware.accelerator import SparsityAwareAccelerator

            accel = accelerator if accelerator is not None else SparsityAwareAccelerator()
            run = accel.run(activity.to_workload(layer_specs))
            modeled_fps = float(run.fps)
            modeled_latency_ms = float(run.latency_ms)
        elif modeled is not None:
            modeled_fps = float(modeled.get("fps", float("nan")))
            modeled_latency_ms = float(modeled.get("latency_ms", float("nan")))

        measured_fps = self.achieved_fps()
        comparison = {
            "measured_fps": measured_fps,
            "modeled_fps": modeled_fps,
            "fps_ratio": measured_fps / modeled_fps if modeled_fps and modeled_fps == modeled_fps else float("nan"),
            "modeled_latency_ms": modeled_latency_ms,
        }
        comparison.update(self.latency_percentiles())
        return comparison


def format_telemetry(
    summary: Mapping[str, float],
    title: str = "Serving telemetry",
    last_error: Optional[str] = None,
) -> str:
    """Render a :meth:`ServeTelemetry.summary` dict as an aligned text block.

    ``last_error`` (typically :attr:`ServeTelemetry.last_error`) appends a
    most-recent-failure line when the summary shows any failures.
    """
    weight_bits = summary.get("weight_bits", 0)
    rows: List[tuple] = [
        ("precision", f"int{weight_bits:.0f} weights" if weight_bits else "full (float)"),
        ("requests", f"{summary.get('requests', 0):.0f}"),
        ("batches", f"{summary.get('batches', 0):.0f}"),
        ("shed", f"{summary.get('shed', 0):.0f}"),
        (
            "failed / timed out",
            f"{summary.get('failed', 0):.0f} / {summary.get('timed_out', 0):.0f}",
        ),
        ("queue high-water", f"{summary.get('queue_high_water', 0):.0f}"),
        ("mean batch size", f"{summary.get('mean_batch_size', 0):.2f}"),
        ("achieved fps", f"{summary.get('achieved_fps', 0):.1f}"),
        ("latency p50", f"{summary.get('p50_ms', float('nan')):.3f} ms"),
        ("latency p95", f"{summary.get('p95_ms', float('nan')):.3f} ms"),
        ("latency p99", f"{summary.get('p99_ms', float('nan')):.3f} ms"),
        ("input density", f"{summary.get('mean_input_density', 0) * 100:.2f} %"),
    ]
    width = max(len(name) for name, _ in rows)
    lines = [title, "-" * len(title)]
    lines.extend(f"  {name.ljust(width)} : {value}" for name, value in rows)
    if last_error:
        lines.append(f"  {'last error'.ljust(width)} : {last_error}")
    return "\n".join(lines)
