"""Process-wide observability: tracing, metrics, profiling.

Three pillars, all stdlib-only at import time:

* :mod:`repro.obs.trace` — request-scoped spans on the monotonic clock,
  minted at the serving gateway and threaded through every pipeline stage;
  exportable as JSON or a Chrome ``trace_event`` file.  Zero-cost unless
  enabled (``REPRO_OBS_TRACE=1`` or an explicit :class:`Tracer`).
* :mod:`repro.obs.metrics` — counter/gauge/histogram instruments in a
  :class:`MetricsRegistry` with Prometheus text exposition and JSON
  snapshots; ``ServeTelemetry`` and the sweep executor register here.
* :mod:`repro.obs.profile` — opt-in per-kernel timing and spike-density
  capture for compiled plans, reconciled against the hardware latency
  model in a :class:`ProfileReport`.

The whole surface is scrapable via ``python -m repro.obs dump|serve``
(:mod:`repro.obs.cli`), which exposes ``/metrics`` and ``/healthz``.
"""

from repro.obs.metrics import (
    BATCH_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_MS,
    MetricsRegistry,
    SECONDS_BUCKETS,
    default_registry,
)
from repro.obs.profile import KernelTiming, ProfileReport, RuntimeProfiler, profile_plan
from repro.obs.trace import NOOP_SPAN, Span, SpanRecord, Tracer, default_tracer

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "KernelTiming",
    "LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "NOOP_SPAN",
    "ProfileReport",
    "RuntimeProfiler",
    "SECONDS_BUCKETS",
    "Span",
    "SpanRecord",
    "Tracer",
    "default_registry",
    "default_tracer",
    "profile_plan",
]
