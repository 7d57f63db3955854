"""Self-time spans recorded from the benchmark's own code.

The traced run wraps calls into the program's layers (module functions,
methods, ``Function`` subclass ``forward``/``backward``) for the duration of
one stage, then restores them.  Nothing inside ``src/`` is instrumented.

Each wrapped call is a span.  A row's *self time* is the span's duration
minus the part its child spans cover, so the rows of one stage never count
a second twice; ``total - sum(rows)`` is the explicit ``unattributed``
remainder.  An *inclusive* span keeps everything beneath it: calls made
inside it open no spans of their own (validation keeps its own forward
passes, so routing validation elsewhere moves only ``training.val_s``).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = ["SpanRecorder", "Target", "patched"]

#: ``(module, qualified name, row, inclusive)``: wrap ``module.name`` as row ``row``.
Target = Tuple[str, str, str, bool]


class _Frame:
    __slots__ = ("inclusive", "child")

    def __init__(self, inclusive: bool) -> None:
        self.inclusive = inclusive
        self.child = 0.0


class SpanRecorder:
    """Accumulates self seconds and call counts per row, per thread stack."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, row: str, inclusive: bool):
        """``fn`` timed as one span of ``row`` per call."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1].inclusive:
                return fn(*args, **kwargs)
            frame = _Frame(inclusive)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child += elapsed
                with self._lock:
                    self.self_s[row] += elapsed - frame.child
                    self.calls[row] += 1

        return spanned

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


@contextmanager
def patched(recorder: SpanRecorder, targets: Sequence[Target]) -> Iterator[SpanRecorder]:
    """Install span wrappers on ``targets`` for the body, then restore them.

    Targets are looked up by name when the body starts.  One the program no
    longer has is listed in ``recorder.missing`` (its row reads 0) instead
    of failing the run, so a refactor inside the program shows up as a
    missing row rather than a broken benchmark.
    """
    saved = []
    try:
        for module, qualname, row, inclusive in targets:
            *path, attribute = qualname.split(".")
            try:
                owner = importlib.import_module(module)
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attribute]
            except (ImportError, AttributeError, KeyError):
                recorder.missing.append(f"trace target {module}.{qualname} is gone; row {row} reads 0")
                continue
            if isinstance(raw, staticmethod):
                replacement = staticmethod(recorder.wrap(raw.__func__, row, inclusive))
            else:
                replacement = recorder.wrap(raw, row, inclusive)
            saved.append((owner, attribute, raw))
            setattr(owner, attribute, replacement)
        yield recorder
    finally:
        for owner, attribute, raw in reversed(saved):
            setattr(owner, attribute, raw)
