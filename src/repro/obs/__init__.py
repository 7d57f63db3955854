"""Process-wide observability: tracing and profiling.

Two pillars, both stdlib-only at import time:

* :mod:`repro.obs.trace` — request-scoped spans on the monotonic clock,
  minted at the serving gateway and threaded through every pipeline stage;
  exportable as JSON or a Chrome ``trace_event`` file.  Zero-cost unless
  enabled (``REPRO_OBS_TRACE=1`` or an explicit :class:`Tracer`).
* :mod:`repro.obs.profile` — opt-in per-kernel timing and spike-density
  capture for compiled plans, reconciled against the hardware latency
  model in a :class:`ProfileReport`.

Counts are not kept here: each lives on the object that updates it
(``ServeTelemetry``, ``ExperimentCache``, the sweep's progress events).
"""

from repro.obs.profile import KernelTiming, ProfileReport, RuntimeProfiler, profile_plan
from repro.obs.trace import NOOP_SPAN, Span, SpanRecord, Tracer, default_tracer

__all__ = [
    "KernelTiming",
    "NOOP_SPAN",
    "ProfileReport",
    "RuntimeProfiler",
    "Span",
    "SpanRecord",
    "Tracer",
    "default_tracer",
    "profile_plan",
]
