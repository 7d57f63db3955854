"""Live serving telemetry: latency percentiles, achieved fps, spike activity.

The scheduler reports one :class:`RequestStat` per completed request plus
the batch's measured :class:`~repro.runtime.activity.RuntimeActivity`.
:class:`ServeTelemetry` aggregates both — request stats into a bounded
window (percentiles are over the most recent ``window`` requests), activity
into a running total — which is exactly the input the hardware cost models
consume, so the telemetry can put *measured* serving throughput side by
side with the accelerator model's *predicted* fps for the same traffic
(:meth:`ServeTelemetry.hardware_comparison`).

Each count is stored once, here: the ``total_*`` counts and
``queue_depth_high_water`` are plain attributes, the :class:`RequestStat`
window is the only latency store, and every update happens under one
lock that nothing else is taken inside.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence

import numpy as np

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
    """Thread-safe aggregate of serving measurements.

    Parameters
    ----------
    window:
        Number of most-recent requests the latency percentiles cover.
        Totals (request/batch counts, admission counts, spike activity,
        fps) are unbounded.

    Besides completion stats, the scheduler reports every *admission
    decision* here: :meth:`record_admission` when a request enters the
    queue (tracking the queue-depth high-water mark), :meth:`record_shed`
    when admission control rejects one and :meth:`record_timeout` when a
    queued request misses its deadline — so overload behaviour is visible
    in the same summary as latency and throughput.
    """

    def __init__(self, window: int = 4096) -> None:
        if window < 1:
            raise ValueError(f"window must be positive, got {window}")
        self.window = int(window)
        # A leaf lock: no other lock is ever taken while it is held.
        self._lock = threading.Lock()
        self._stats: Deque[RequestStat] = deque(maxlen=self.window)
        #: Requests completed successfully.
        self.total_requests = 0
        #: Micro-batches executed.
        self.total_batches = 0
        #: Requests admitted to the queue.
        self.total_admitted = 0
        #: Requests rejected by admission control (queue full).
        self.total_shed = 0
        #: Batches dispatched early to protect a request deadline.
        self.total_deadline_dispatches = 0
        #: Requests whose batch failed.
        self.total_failed = 0
        #: Requests that missed their deadline.
        self.total_timed_out = 0
        #: Hot reloads that failed (old weights kept serving).
        self.total_reload_failures = 0
        #: Deepest queue observed at admission.
        self.queue_depth_high_water = 0

        #: Human-readable description of the most recent failure (batch
        #: error or reload failure); ``None`` until one occurs.
        self.last_error: Optional[str] = None
        self.activity: Optional[RuntimeActivity] = None
        self._busy_s = 0.0

    # ------------------------------------------------------------------ #
    def record_admission(self, queue_depth: int) -> None:
        """Count one admitted request and fold in the observed queue depth."""
        with self._lock:
            self.total_admitted += 1
            self.queue_depth_high_water = max(self.queue_depth_high_water, int(queue_depth))

    def record_shed(self) -> None:
        """Count one request rejected by admission control."""
        with self._lock:
            self.total_shed += 1

    def record_deadline_dispatch(self) -> None:
        """Count one batch dispatched early to protect a request's deadline."""
        with self._lock:
            self.total_deadline_dispatches += 1

    def record_failure(self, error: str, count: int = 1) -> None:
        """Count ``count`` requests whose batch failed, remembering the error.

        Called once per failed micro-batch with the batch size, so the
        ``failed`` count is in requests (comparable with ``requests`` /
        ``shed``), while ``last_error`` keeps the most recent cause for the
        rendered report.
        """
        with self._lock:
            self.total_failed += int(count)
            self.last_error = str(error)

    def record_timeout(self) -> None:
        """Count one request that missed its deadline."""
        with self._lock:
            self.total_timed_out += 1

    def record_reload_failure(self, error: str) -> None:
        """Count one hot-reload that failed (old weights keep serving)."""
        with self._lock:
            self.total_reload_failures += 1
            self.last_error = str(error)

    def reset_activity(self) -> None:
        """Drop the accumulated spike activity; keep every other count.

        Called when the *served model* changes under a continuing telemetry
        stream (e.g. a gateway hot-reload that replaces the network):
        request/admission counts and latency percentiles remain
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
        started: float,
        done: float,
    ) -> None:
        """Fold one completed micro-batch, busy from ``started`` to ``done``.

        Spike activity accumulates per timestep regime: a batch whose
        ``num_steps`` differs from the accumulated activity (the served
        model was hot-swapped to a different timestep count) restarts the
        activity aggregate rather than failing the batch — request
        counts and latency stats continue uninterrupted.
        """
        with self._lock:
            self._stats.extend(stats)
            self.total_requests += len(stats)
            self.total_batches += 1
            self._busy_s += done - started
            if activity is not None:
                if self.activity is None or self.activity.num_steps != activity.num_steps:
                    self.activity = RuntimeActivity(num_steps=activity.num_steps)
                self.activity.merge(activity)

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
        """Completed requests per second of busy time.

        Busy time sums, over batches, the time from a worker taking the
        batch to its plan finishing, so time the server sat idle does not
        count.  When workers run batches at once their times add up, so
        the figure is one worker's rate, not the server's.
        """
        with self._lock:
            if self.total_requests == 0:
                return 0.0
            if self._busy_s <= 0:
                return float("inf")
            return self.total_requests / self._busy_s

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
    rows: List[tuple] = [
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
