"""Structured logging hooks for serving-layer state transitions.

Breaker open/close transitions are emitted as they happen through the
standard :mod:`logging` machinery, on the ``"repro.serve"`` logger, not
only in a full ``format_telemetry`` render.  Each record carries the
model name, the old and new state, a wall-clock ``unix_ts`` and the
matching ``perf_ts`` (``time.perf_counter``) so log lines correlate with
trace spans, which live on the same monotonic clock.

The logger gets a ``NullHandler`` by default — applications opt in by
attaching their own handler (``logging.basicConfig`` suffices).  The
structured payload rides on the record as ``record.event``.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Dict

__all__ = ["serve_logger", "log_breaker_transition"]

#: Logger name used for every serving-layer structured event.
SERVE_LOGGER_NAME = "repro.serve"

_logger = logging.getLogger(SERVE_LOGGER_NAME)
_logger.addHandler(logging.NullHandler())


def serve_logger() -> logging.Logger:
    """The ``"repro.serve"`` logger all structured serving events go through."""
    return _logger


def _emit(kind: str, message: str, payload: Dict[str, Any], level: int) -> None:
    event = {
        "kind": kind,
        "unix_ts": time.time(),
        "perf_ts": time.perf_counter(),
        **payload,
    }
    _logger.log(level, message, extra={"event": event})


def log_breaker_transition(model: str, old_state: str, new_state: str, reason: str = "") -> None:
    """Emit a circuit-breaker state transition as a structured log record.

    Opens (and half-open probes) log at WARNING, returns to ``closed`` at
    INFO.  The record's ``event`` dict carries ``model``, ``old_state``,
    ``new_state`` and the paired wall/monotonic timestamps.
    """
    level = logging.INFO if new_state == "closed" else logging.WARNING
    suffix = f" ({reason})" if reason else ""
    _emit(
        "breaker_transition",
        f"breaker[{model}]: {old_state} -> {new_state}{suffix}",
        {"model": model, "old_state": old_state, "new_state": new_state, "reason": reason},
        level,
    )

