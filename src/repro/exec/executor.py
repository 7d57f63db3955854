"""Parallel experiment executor with caching and structured progress.

:func:`run_experiments` is the single entry point every sweep routes
through.  It takes an ordered list of configurations, satisfies as many as
possible from the :class:`~repro.exec.cache.ExperimentCache`, then runs the
remaining cells either serially or across a process pool.  The pool start
method defaults to ``fork`` where the platform offers it and falls back to
``spawn`` otherwise (macOS, Windows), so ``workers>1`` is honoured
everywhere; :func:`resolve_start_method` picks, and
``REPRO_SWEEP_START_METHOD`` or the ``start_method=`` argument override.

Determinism
-----------
``run_experiment`` derives every random stream from config fields, so a cell
computes the same record no matter which process runs it, in what order.
As belt and braces against any stray use of NumPy's *global* RNG, the worker
additionally reseeds ``np.random`` per cell from a hash of the config — the
serial path runs the exact same wrapper, which is what makes parallel
results bit-for-bit identical to serial ones (asserted by
``tests/test_exec_executor.py`` and the sweep benchmark).

Failure policy
--------------
At the hundreds-of-cells scale of the companion characterization paper, one
poisoned cell must not abort a whole grid.  ``retries=N`` re-runs a failing
cell up to ``N`` more times with jittered exponential backoff between
attempts — the RNG is reseeded identically before every attempt, so a
retried success is bit-identical to a first-attempt success (and to the
cached record).  ``on_error="collect"`` turns a cell that exhausts its
retries into a :class:`FailedCell` entry in the returned list (carrying the
worker's full traceback) while every other cell completes;
``on_error="raise"`` (the default, historical behaviour) aborts the sweep
with :class:`CellExecutionError` on first failure.

Progress
--------
Each cell emits structured :class:`ProgressEvent` values (``start`` /
``done`` / ``cached`` / ``error``) to an optional callback; ``verbose=True``
installs a stdout printer.  Events always carry ``index``/``total``/``label``
so callers can render progress bars without parsing strings.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import ExperimentConfig
from repro.core.experiment import ExperimentRecord, run_experiment
from repro.exec.cache import ExperimentCache, experiment_cache_key
from repro.obs.metrics import default_registry
from repro.obs.trace import default_tracer

ProgressCallback = Callable[["ProgressEvent"], None]
CacheSpec = Union[None, bool, str, "os.PathLike[str]", ExperimentCache]


@dataclass(frozen=True)
class ProgressEvent:
    """One structured progress notification from the executor.

    Attributes
    ----------
    kind:
        ``"start"`` (cell dispatched), ``"done"`` (cell trained),
        ``"cached"`` (cell served from the result cache) or ``"error"``.
    index, total:
        Position of the cell in the submitted config list.
    label:
        The config's human-readable label (``config.describe()``).
    seconds:
        Wall-clock seconds the cell took (0 for ``start``/``cached``).
    error:
        Stringified exception for ``kind == "error"``.
    timestamp:
        Wall-clock ``time.time()`` at which the event was emitted (0.0 when
        an event is constructed by hand without one), so progress streams
        can be correlated with traces and structured logs.
    """

    kind: str
    index: int
    total: int
    label: str
    seconds: float = 0.0
    error: str = ""
    timestamp: float = 0.0


def _print_progress(event: ProgressEvent) -> None:
    """Default stdout reporter installed by ``verbose=True``."""
    prefix = f"[sweep {event.index + 1}/{event.total}]"
    if event.kind == "start":
        print(f"{prefix} training {event.label}")
    elif event.kind == "cached":
        print(f"{prefix} cache hit for {event.label}")
    elif event.kind == "done":
        print(f"{prefix} finished {event.label} in {event.seconds:.1f}s")
    else:
        print(f"{prefix} FAILED {event.label}: {event.error}")


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the worker count: argument, then ``REPRO_SWEEP_WORKERS``, then 1.

    A malformed or empty env value falls back to serial rather than failing
    a sweep that never asked for parallelism.
    """
    if workers is None:
        try:
            workers = int(os.environ.get("REPRO_SWEEP_WORKERS", "1"))
        except ValueError:
            workers = 1
    return max(1, int(workers))


def resolve_cache(cache: CacheSpec) -> Optional[ExperimentCache]:
    """Normalise the ``cache=`` argument accepted by every sweep front-end.

    ``None``/``False`` disable caching, ``True`` uses the default cache
    location, a path opens a cache rooted there, and an
    :class:`ExperimentCache` instance is used as-is.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ExperimentCache()
    if isinstance(cache, ExperimentCache):
        return cache
    return ExperimentCache(cache)


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_start_method(start_method: Optional[str] = None) -> str:
    """Resolve the pool start method: argument, then env, then the platform.

    The default prefers ``fork`` (cheap, inherits the warmed parent) and
    falls back to ``spawn`` where fork does not exist — cells are
    deterministic per config, so both produce bit-identical records; only
    startup cost differs.  ``REPRO_SWEEP_START_METHOD`` overrides the
    default; an explicit argument overrides both.  Asking for a method the
    platform does not offer is an error for the argument, while a
    malformed env value falls back to the platform default rather than
    failing a sweep that never asked for it.
    """
    available = multiprocessing.get_all_start_methods()
    if start_method is not None:
        if start_method not in available:
            raise ValueError(
                f"start_method {start_method!r} is not available on this platform "
                f"(choose from {sorted(available)})"
            )
        return start_method
    env = os.environ.get("REPRO_SWEEP_START_METHOD", "").strip().lower()
    if env in available:
        return env
    return "fork" if fork_available() else "spawn"


def _config_seed(config: ExperimentConfig) -> int:
    """Deterministic 32-bit seed for the worker's global RNG, per config."""
    key = experiment_cache_key(config)
    return int(key[:8], 16)


#: ``on_error`` policy: abort the sweep on the first failing cell (default).
ON_ERROR_RAISE = "raise"
#: ``on_error`` policy: report failing cells as :class:`FailedCell` records.
ON_ERROR_COLLECT = "collect"

_ON_ERROR_POLICIES = (ON_ERROR_RAISE, ON_ERROR_COLLECT)


@dataclass(frozen=True)
class FailedCell:
    """A sweep cell that failed every attempt, under ``on_error="collect"``.

    Occupies the cell's slot in the returned results list, so positional
    correspondence with the submitted configs is preserved.  Filter with
    ``isinstance(r, FailedCell)`` (or its truthiness: a ``FailedCell`` is
    falsy, so ``[r for r in results if r]`` keeps only real records).

    Attributes
    ----------
    index:
        Position of the cell in the submitted config list.
    label:
        The config's human-readable label (``config.describe()``).
    error:
        Full formatted traceback from the final failed attempt, captured
        where the cell actually ran.
    attempts:
        Total attempts made (1 + retries actually used).
    """

    index: int
    label: str
    error: str
    attempts: int

    def __bool__(self) -> bool:
        """``False``, so failed cells filter out like missing records."""
        return False


class CellExecutionError(RuntimeError):
    """Raised in the parent when a sweep cell fails (in-process or in a worker).

    The message embeds the failing cell's label and the full formatted
    traceback from where the cell actually ran, so the failure site survives
    the process boundary even though the original exception object does not.
    """

    def __init__(self, label: str, formatted_traceback: str) -> None:
        super().__init__(f"sweep cell '{label}' failed:\n{formatted_traceback}")
        self.label = label
        self.traceback = formatted_traceback


class _CellFailure:
    """A cell's failure, carried back from the worker with its index intact.

    Only the *formatted traceback string* travels — never the live exception
    object.  Pickling strips ``__traceback__`` anyway, and an exception whose
    attributes do not pickle would otherwise surface as multiprocessing's
    opaque ``MaybeEncodingError`` with no hint of which cell blew up.
    """

    __slots__ = ("traceback", "attempts")

    def __init__(self, formatted_traceback: str, attempts: int = 1) -> None:
        self.traceback = formatted_traceback
        self.attempts = attempts


def _run_cell(payload: Tuple[int, ExperimentConfig, Any, bool, int, float]):
    """Train one cell; shared by the serial path and every pool worker.

    Returns ``(index, record_or_failure, seconds)`` — failures are wrapped
    rather than raised so the parent can attribute the error to the right
    cell even with ``imap_unordered``.  Each of the ``1 + retries``
    attempts reseeds the global RNG from the *same* config-derived seed, so
    a retried success computes exactly the record a first-attempt success
    would have; the backoff between attempts is exponential with a jitter
    drawn deterministically from ``(config seed, attempt)``.
    """
    index, config, accelerator, verbose, retries, backoff_s = payload
    seed = _config_seed(config)
    start = time.perf_counter()
    for attempt in range(1 + retries):
        if attempt:
            jitter = float(np.random.default_rng([seed, attempt]).uniform(0.5, 1.5))
            time.sleep(backoff_s * (2.0 ** (attempt - 1)) * jitter)
        np.random.seed(seed)
        try:
            record = run_experiment(config, accelerator=accelerator, verbose=verbose)
        except Exception:
            if attempt == retries:
                return index, _CellFailure(traceback.format_exc(), attempts=attempt + 1), time.perf_counter() - start
        else:
            return index, record, time.perf_counter() - start


def run_experiments(
    configs: Sequence[ExperimentConfig],
    *,
    workers: Optional[int] = None,
    start_method: Optional[str] = None,
    cache: CacheSpec = None,
    accelerator: Any = None,
    verbose: bool = False,
    progress: Optional[ProgressCallback] = None,
    on_error: str = ON_ERROR_RAISE,
    retries: int = 0,
    retry_backoff_s: float = 0.05,
) -> List[Union[ExperimentRecord, FailedCell]]:
    """Run every configuration and return records in submission order.

    Parameters
    ----------
    configs:
        The sweep cells, in the order results should be returned.
    workers:
        Process-pool size (default: ``REPRO_SWEEP_WORKERS`` or 1).  With one
        worker cells run serially in this process; results are identical
        either way.
    start_method:
        Pool start method (default: see :func:`resolve_start_method` —
        ``fork`` where available, ``spawn`` otherwise).
    cache:
        See :func:`resolve_cache`.  Hits skip training entirely; fresh
        records are stored as soon as they complete, so an interrupted sweep
        resumes from where it stopped.
    accelerator:
        Hardware platform model forwarded to ``run_experiment`` (part of the
        cache key).
    verbose:
        Print per-cell progress lines and per-epoch training logs.
    progress:
        Structured :class:`ProgressEvent` callback (overrides the default
        printer; receives events regardless of ``verbose``).
    on_error:
        ``"raise"`` (default) aborts the sweep with
        :class:`CellExecutionError` when a cell exhausts its retries;
        ``"collect"`` puts a :class:`FailedCell` in that cell's result slot
        and lets the rest of the grid complete.
    retries:
        Extra attempts per failing cell (0 = fail on first error).  Every
        attempt is identically reseeded, so flaky-environment retries
        cannot change a record's bits.
    retry_backoff_s:
        Base delay before the first retry; subsequent retries back off
        exponentially with deterministic per-cell jitter.
    """
    if on_error not in _ON_ERROR_POLICIES:
        raise ValueError(f"on_error must be one of {_ON_ERROR_POLICIES}, got {on_error!r}")
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")
    if retry_backoff_s < 0:
        raise ValueError(f"retry_backoff_s must be non-negative, got {retry_backoff_s}")
    configs = list(configs)
    total = len(configs)
    store = resolve_cache(cache)
    reporter = progress if progress is not None else (_print_progress if verbose else None)
    registry = default_registry()
    m_cells = registry.counter(
        "repro_exec_cells_total", "Sweep cells submitted to run_experiments."
    )
    m_cached = registry.counter(
        "repro_exec_cached_cells_total", "Sweep cells satisfied from the experiment cache."
    )
    m_done = registry.counter(
        "repro_exec_completed_cells_total", "Sweep cells that trained to completion."
    )
    m_failed = registry.counter(
        "repro_exec_failed_cells_total", "Sweep cells that exhausted their retries."
    )
    m_cells.inc(total)
    tracer = default_tracer()
    sweep_trace = tracer.mint_trace()
    sweep_span = (
        tracer.begin("exec.sweep", sweep_trace, total=total) if sweep_trace else None
    )

    def emit(kind: str, index: int, seconds: float = 0.0, error: str = "") -> None:
        if reporter is not None:
            reporter(
                ProgressEvent(
                    kind=kind,
                    index=index,
                    total=total,
                    label=configs[index].describe(),
                    seconds=seconds,
                    error=error,
                    timestamp=time.time(),
                )
            )

    results: List[Union[None, ExperimentRecord, FailedCell]] = [None] * total
    keys: List[Optional[str]] = [None] * total
    pending: List[int] = []
    for i, config in enumerate(configs):
        if store is not None:
            keys[i] = store.key(config, accelerator=accelerator)
            record = store.load(keys[i])
            if record is not None:
                # The key deliberately ignores the cosmetic label, so a hit
                # may come from a differently-labelled sweep; serve it under
                # the label this caller asked for.
                if record.config != config:
                    record.config = config
                results[i] = record
                m_cached.inc()
                emit("cached", i)
                continue
        pending.append(i)

    def record_cell_span(index: int, seconds: float, status: str) -> None:
        """Record one ``exec.cell`` span under the sweep root (no-op untraced)."""
        if sweep_span is None:
            return
        now = time.perf_counter()
        tracer.record(
            "exec.cell",
            sweep_trace,
            sweep_span.span_id,
            now - seconds,
            now,
            index=index,
            label=configs[index].describe(),
            status=status,
        )

    def finish(index: int, record: ExperimentRecord, seconds: float) -> None:
        results[index] = record
        if store is not None:
            store.store(keys[index], record, accelerator=accelerator)
        m_done.inc()
        record_cell_span(index, seconds, "done")
        emit("done", index, seconds=seconds)

    def settle(index: int, outcome, seconds: float) -> None:
        """Record a completed cell, or apply the failure policy with attribution."""
        if isinstance(outcome, _CellFailure):
            # The event and the raised error both carry the worker's full
            # stack as text — the original exception object never crosses
            # the process boundary (see _CellFailure).
            m_failed.inc()
            record_cell_span(index, seconds, "error")
            emit("error", index, seconds=seconds, error=outcome.traceback)
            if on_error == ON_ERROR_RAISE:
                raise CellExecutionError(configs[index].describe(), outcome.traceback)
            results[index] = FailedCell(
                index=index,
                label=configs[index].describe(),
                error=outcome.traceback,
                attempts=outcome.attempts,
            )
            return
        finish(index, outcome, seconds)

    try:
        if pending:
            payloads = [
                (i, configs[i], accelerator, verbose, int(retries), float(retry_backoff_s))
                for i in pending
            ]
            nworkers = min(resolve_workers(workers), len(pending))
            if nworkers > 1:
                method = resolve_start_method(start_method)
                for i in pending:
                    emit("start", i)
                ctx = multiprocessing.get_context(method)
                with ctx.Pool(processes=nworkers) as pool:
                    for index, outcome, seconds in pool.imap_unordered(_run_cell, payloads):
                        settle(index, outcome, seconds)
            else:
                # _run_cell reseeds the global RNG per cell (the serial==parallel
                # bit-identity guarantee); running in the caller's process, that
                # must not clobber the caller's own np.random stream.
                rng_state = np.random.get_state()
                try:
                    for payload in payloads:
                        emit("start", payload[0])
                        settle(*_run_cell(payload))
                finally:
                    np.random.set_state(rng_state)
    finally:
        if sweep_span is not None:
            sweep_span.end(pending=len(pending), cached=total - len(pending))

    # Every cell either came from the cache, completed above, or (under
    # "collect") holds its FailedCell, so the list is fully populated.
    return results  # type: ignore[return-value]
