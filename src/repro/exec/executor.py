"""Parallel experiment executor with caching and structured progress.

:func:`run_experiments` is the single entry point every sweep routes
through.  It takes an ordered list of configurations, satisfies as many as
possible from the :class:`~repro.exec.cache.ExperimentCache`, then runs the
remaining cells either serially or on a
:class:`~concurrent.futures.ProcessPoolExecutor`.  The pool forks where
the platform offers ``fork`` and spawns otherwise (macOS, Windows), so
``workers>1`` is honoured everywhere; :func:`resolve_start_method` picks,
and ``REPRO_SWEEP_START_METHOD`` overrides.

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
A failing cell aborts the sweep with :class:`CellExecutionError`.  A cell
that raises carries the worker's traceback as text, and the workers still
running are terminated.  A worker process that exits (say, killed by the
OOM killer) breaks the pool, and the error names every cell that had not
finished.  Records are cached as their cells finish, so re-running a
failed sweep with the same cache trains only the cells that are missing.
A retry would not help a raising cell: its RNG is seeded from its config,
so it raises again.

Progress
--------
Each cell emits structured :class:`ProgressEvent` values (``start`` /
``done`` / ``cached`` / ``error``) to an optional callback; ``verbose=True``
installs a stdout printer.  Events always carry ``index``/``total``/``label``
so callers can render progress bars without parsing strings; they are the
only report of how many cells ran, came from the cache or failed.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import ExperimentConfig
from repro.core.experiment import ExperimentRecord, run_experiment
from repro.exec.cache import ExperimentCache, experiment_cache_key
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
    """

    kind: str
    index: int
    total: int
    label: str
    seconds: float = 0.0
    error: str = ""


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


def resolve_start_method() -> str:
    """Resolve the pool start method: ``REPRO_SWEEP_START_METHOD``, then the platform.

    The default prefers ``fork`` (cheap, inherits the warmed parent) and
    falls back to ``spawn`` where fork does not exist — cells are
    deterministic per config, so both produce bit-identical records; only
    startup cost differs.  A malformed env value falls back to the
    platform default rather than failing a sweep that never asked for it.
    """
    env = os.environ.get("REPRO_SWEEP_START_METHOD", "").strip().lower()
    if env in multiprocessing.get_all_start_methods():
        return env
    return "fork" if fork_available() else "spawn"


def _config_seed(config: ExperimentConfig) -> int:
    """Deterministic 32-bit seed for the worker's global RNG, per config."""
    key = experiment_cache_key(config)
    return int(key[:8], 16)


class CellExecutionError(RuntimeError):
    """Raised in the parent when a sweep cell fails (in-process or in a worker).

    The message embeds the failing cell's label and the full formatted
    traceback from where the cell actually ran, so the failure site survives
    the process boundary even though the original exception object does not.
    When a worker process exits instead, ``label`` joins the labels of every
    cell that had not finished with ``"; "``.
    """

    def __init__(self, label: str, formatted_traceback: str) -> None:
        super().__init__(f"sweep cell '{label}' failed:\n{formatted_traceback}")
        self.label = label
        self.traceback = formatted_traceback


class _CellFailure:
    """A cell's failure, carried back from the worker with its index intact.

    Only the *formatted traceback string* travels — never the live exception
    object.  Pickling strips ``__traceback__`` anyway, and an exception whose
    attributes do not pickle would otherwise fail the result's transport
    with no hint of which cell blew up.
    """

    __slots__ = ("traceback",)

    def __init__(self, formatted_traceback: str) -> None:
        self.traceback = formatted_traceback


def _run_cell(payload: Tuple[int, ExperimentConfig, Any, bool]):
    """Train one cell; shared by the serial path and every pool worker.

    Returns ``(index, record_or_failure, seconds)`` — failures are wrapped
    rather than raised so the parent can attribute the error to the right
    cell whatever order cells finish in.  The global RNG is reseeded from
    the config first (see Determinism above).
    """
    index, config, accelerator, verbose = payload
    start = time.perf_counter()
    np.random.seed(_config_seed(config))
    try:
        record = run_experiment(config, accelerator=accelerator, verbose=verbose)
    except Exception:
        return index, _CellFailure(traceback.format_exc()), time.perf_counter() - start
    return index, record, time.perf_counter() - start


def _run_pool(payloads: List[tuple], workers: int, settle: Callable[..., None]) -> List[int]:
    """Run cells on a process pool, passing each outcome to ``settle`` as it lands.

    Returns the cells a dead worker broke the pool on (``BrokenProcessPool``
    fails every unfinished cell).  If ``settle`` raises, the running workers
    are terminated first: ``shutdown()`` would wait for their cells.
    """
    context = multiprocessing.get_context(resolve_start_method())
    lost: List[int] = []
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        try:
            futures = {pool.submit(_run_cell, payload): payload[0] for payload in payloads}
            for future in as_completed(futures):
                if isinstance(future.exception(), BrokenProcessPool):
                    lost.append(futures[future])
                else:
                    settle(*future.result())
        except BaseException:
            for process in list(pool._processes.values()):
                process.terminate()
            raise
    return sorted(lost)


def run_experiments(
    configs: Sequence[ExperimentConfig],
    *,
    workers: Optional[int] = None,
    cache: CacheSpec = None,
    accelerator: Any = None,
    verbose: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> List[ExperimentRecord]:
    """Run every configuration and return records in submission order.

    Parameters
    ----------
    configs:
        The sweep cells, in the order results should be returned.
    workers:
        Process-pool size (default: ``REPRO_SWEEP_WORKERS`` or 1).  With one
        worker cells run serially in this process; results are identical
        either way.  The start method is :func:`resolve_start_method`'s.
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
    """
    configs = list(configs)
    total = len(configs)
    store = resolve_cache(cache)
    reporter = progress if progress is not None else (_print_progress if verbose else None)
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
                )
            )

    results: List[Optional[ExperimentRecord]] = [None] * total
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
        record_cell_span(index, seconds, "done")
        emit("done", index, seconds=seconds)

    def fail(index: int, seconds: float, error: str) -> None:
        record_cell_span(index, seconds, "error")
        emit("error", index, seconds=seconds, error=error)

    def settle(index: int, outcome, seconds: float) -> None:
        """Record a completed cell, or abort the sweep with attribution."""
        if isinstance(outcome, _CellFailure):
            # The event and the raised error both carry the worker's full
            # stack as text — the original exception object never crosses
            # the process boundary (see _CellFailure).
            fail(index, seconds, outcome.traceback)
            raise CellExecutionError(configs[index].describe(), outcome.traceback)
        finish(index, outcome, seconds)

    try:
        if pending:
            payloads = [(i, configs[i], accelerator, verbose) for i in pending]
            nworkers = min(resolve_workers(workers), len(pending))
            if nworkers > 1:
                for i in pending:
                    emit("start", i)
                lost = _run_pool(payloads, nworkers, settle)
                if lost:
                    note = "a worker process exited before the cell finished"
                    for i in lost:
                        fail(i, 0.0, note)
                    raise CellExecutionError("; ".join(configs[i].describe() for i in lost), note)
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

    # Every cell either came from the cache or completed above.
    return results  # type: ignore[return-value]
