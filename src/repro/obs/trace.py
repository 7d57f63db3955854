"""Request-scoped tracing: spans on a monotonic clock, zero-cost when off.

A :class:`Tracer` mints trace IDs (one per request or sweep) and collects
:class:`SpanRecord` entries — named intervals on the ``time.perf_counter``
clock, linked into a tree by ``parent_id``.  The serving gateway mints a
trace at :meth:`~repro.serve.gateway.ServeGateway.submit` and the scheduler
records one span per pipeline stage (admission, queue wait, batch
formation, pool checkout, kernel execution, reply), so a single request's
trace reads as a connected tree; the sweep executor records one span per
grid cell under an ``exec.sweep`` root.

Disabled is the default and costs nothing on the hot path:
:meth:`Tracer.mint_trace` returns ``0`` without locking,
:meth:`Tracer.begin` returns a shared no-op singleton (no allocation), and
instrumented call sites guard their timestamp capture on
:attr:`Tracer.enabled`.  Set ``REPRO_OBS_TRACE=1`` (or call
:meth:`Tracer.enable`) to turn the default tracer on — the CI leg that
runs the tier-1 suite traced uses exactly this switch.

Exports: :meth:`Tracer.export_json` (plain span list) and
:meth:`Tracer.export_chrome` (a Chrome ``trace_event`` document loadable in
``chrome://tracing`` / Perfetto, one row per trace).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

__all__ = ["SpanRecord", "Span", "Tracer", "default_tracer", "TRACE_ENV"]

#: Environment variable that force-enables the default tracer when set to
#: a non-empty value other than ``0``.
TRACE_ENV = "REPRO_OBS_TRACE"

#: How many most-recent spans a tracer retains by default.
DEFAULT_MAX_SPANS = 65536


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: a named interval on the monotonic clock.

    Attributes
    ----------
    trace_id:
        The request/sweep this span belongs to (minted by
        :meth:`Tracer.mint_trace`).
    span_id / parent_id:
        Tree linkage: ``parent_id == 0`` marks a root span.
    name:
        Stage name, e.g. ``"serve.kernel"`` (taxonomy in
        ``docs/OBSERVABILITY.md``).
    start / end:
        ``time.perf_counter`` timestamps bounding the interval.
    attrs:
        Small free-form payload (batch size, model name, ...).
    """

    trace_id: int
    span_id: int
    parent_id: int
    name: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        """Span length in milliseconds."""
        return (self.end - self.start) * 1000.0


class _NoopSpan:
    """Shared do-nothing span returned by a disabled tracer (never allocated per call)."""

    __slots__ = ()
    span_id = 0
    trace_id = 0

    def end(self, **attrs: Any) -> None:
        """Ignore the end call (tracing disabled)."""

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: The singleton no-op span every disabled :meth:`Tracer.begin` returns.
NOOP_SPAN = _NoopSpan()


class Span:
    """A live (unfinished) span handle; call :meth:`end` or use as a context manager."""

    __slots__ = ("_tracer", "name", "trace_id", "span_id", "parent_id", "start", "_attrs")

    def __init__(self, tracer: "Tracer", name: str, trace_id: int, parent_id: int, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.span_id = tracer._mint_span()
        self.start = time.perf_counter()
        self._attrs = attrs

    def end(self, **attrs: Any) -> None:
        """Close the span now, folding ``attrs`` into its payload."""
        if attrs:
            self._attrs.update(attrs)
        self._tracer._append(
            SpanRecord(
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start=self.start,
                end=time.perf_counter(),
                attrs=self._attrs,
            )
        )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.end(error=f"{exc_type.__name__}: {exc}")
        else:
            self.end()


def _env_enabled() -> bool:
    value = os.environ.get(TRACE_ENV, "").strip()
    return bool(value) and value != "0"


class Tracer:
    """Thread-safe span collector with a bounded buffer.

    Parameters
    ----------
    enabled:
        Initial state; ``None`` (default) consults the ``REPRO_OBS_TRACE``
        environment variable.
    max_spans:
        Retention bound — the buffer keeps the most recent ``max_spans``
        finished spans, so a force-enabled tracer under a long test run
        cannot grow without limit.

    The enabled check is a single attribute read; every minting/recording
    entry point returns immediately (``0`` / a shared no-op object) when
    disabled, which is what the zero-allocation overhead guard test pins.
    """

    def __init__(self, enabled: Optional[bool] = None, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be positive, got {max_spans}")
        self._enabled = _env_enabled() if enabled is None else bool(enabled)
        self._lock = threading.Lock()
        self._spans: Deque[SpanRecord] = deque(maxlen=int(max_spans))
        self._next_trace = 1
        self._next_span = 1
        self._span_count = 0
        # Paired epochs let exports convert perf_counter values to wall
        # time, so spans correlate with log-record timestamps.
        self._epoch_perf = time.perf_counter()
        self._epoch_wall = time.time()

    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        """Whether spans are being recorded (instrumented sites guard on this)."""
        return self._enabled

    def enable(self) -> None:
        """Start recording spans."""
        self._enabled = True

    def disable(self) -> None:
        """Stop recording spans (already-recorded spans are kept)."""
        self._enabled = False

    def reset(self) -> None:
        """Drop every recorded span and restart the ID sequences and epochs."""
        with self._lock:
            self._spans.clear()
            self._next_trace = 1
            self._next_span = 1
            self._span_count = 0
            self._epoch_perf = time.perf_counter()
            self._epoch_wall = time.time()

    @property
    def span_count(self) -> int:
        """Total spans ever recorded (unbounded; the buffer itself is bounded)."""
        with self._lock:
            return self._span_count

    # ------------------------------------------------------------------ #
    def mint_trace(self) -> int:
        """Allocate a fresh trace ID (``0`` — the null trace — when disabled)."""
        if not self._enabled:
            return 0
        with self._lock:
            trace_id = self._next_trace
            self._next_trace += 1
            return trace_id

    def _mint_span(self) -> int:
        with self._lock:
            span_id = self._next_span
            self._next_span += 1
            return span_id

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)
            self._span_count += 1

    def begin(self, name: str, trace_id: int, parent_id: int = 0, **attrs: Any):
        """Open a live span; returns the shared no-op singleton when disabled."""
        if not self._enabled:
            return NOOP_SPAN
        return Span(self, name, trace_id, parent_id, attrs)

    def record(
        self,
        name: str,
        trace_id: int,
        parent_id: int,
        start: float,
        end: float,
        **attrs: Any,
    ) -> int:
        """Record a finished interval from explicit ``perf_counter`` stamps.

        This is the form the scheduler uses for stages whose boundaries are
        measured across threads (queue wait, batch formation): the
        timestamps are carried on the request and the span is recorded once
        the batch completes.  Returns the span ID (``0`` when disabled).
        """
        if not self._enabled:
            return 0
        span_id = self._mint_span()
        self._append(
            SpanRecord(
                trace_id=trace_id,
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                start=start,
                end=end,
                attrs=attrs,
            )
        )
        return span_id

    # ------------------------------------------------------------------ #
    def spans(self, trace_id: Optional[int] = None) -> List[SpanRecord]:
        """The retained spans, oldest first (optionally one trace only)."""
        with self._lock:
            records = list(self._spans)
        if trace_id is None:
            return records
        return [r for r in records if r.trace_id == trace_id]

    def _wall(self, perf_stamp: float) -> float:
        return self._epoch_wall + (perf_stamp - self._epoch_perf)

    def export_json(self, trace_id: Optional[int] = None) -> List[Dict[str, Any]]:
        """Span list as JSON-friendly dicts (wall-clock start, duration in ms)."""
        return [
            {
                "trace_id": r.trace_id,
                "span_id": r.span_id,
                "parent_id": r.parent_id,
                "name": r.name,
                "start_unix_s": self._wall(r.start),
                "duration_ms": r.duration_ms,
                "attrs": dict(r.attrs),
            }
            for r in self.spans(trace_id)
        ]

    def export_chrome(self, path: Optional[str] = None) -> Dict[str, Any]:
        """Chrome ``trace_event`` document (one ``tid`` row per trace).

        Each span becomes a complete (``"ph": "X"``) event with
        microsecond timestamps relative to the tracer epoch.  When ``path``
        is given the document is also written there as JSON; either way it
        is returned, loadable in ``chrome://tracing`` or Perfetto.
        """
        events = []
        for r in self.spans():
            events.append(
                {
                    "name": r.name,
                    "cat": r.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (r.start - self._epoch_perf) * 1e6,
                    "dur": max((r.end - r.start) * 1e6, 0.0),
                    "pid": 1,
                    "tid": r.trace_id,
                    "args": {"span_id": r.span_id, "parent_id": r.parent_id, **r.attrs},
                }
            )
        document = {"traceEvents": events, "displayTimeUnit": "ms"}
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2)
        return document


_DEFAULT_TRACER = Tracer()


def default_tracer() -> Tracer:
    """The process-wide tracer the serving and sweep layers record into.

    Disabled unless ``REPRO_OBS_TRACE`` was set when the process started or
    :meth:`Tracer.enable` has been called; components accept an explicit
    ``tracer=`` for isolated capture (benchmarks, tests).
    """
    return _DEFAULT_TRACER
