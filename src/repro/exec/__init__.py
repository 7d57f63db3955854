"""Sweep execution subsystem: parallel experiment runner + result cache.

Every sweep the paper reports (the Figure 1 surrogate-scale sweep, the
Figure 2 beta x theta cross-sweep, the encoding ablation and the prior-work
comparison) is a bag of independent :func:`~repro.core.experiment.run_experiment`
calls — embarrassingly parallel work that the seed implementation executed
one cell at a time.  This subpackage provides:

* :func:`~repro.exec.executor.run_experiments` — runs a list of
  :class:`~repro.core.config.ExperimentConfig` across a process pool with
  deterministic per-config seeding and structured progress events.  The
  pool forks where the platform allows and spawns otherwise (see
  :func:`~repro.exec.executor.resolve_start_method`); ``workers=1`` (the
  default) runs a serial loop.  Parallel results are bit-for-bit identical
  to serial ones under either start method.  A cell that raises, or a
  worker process that exits, aborts the sweep with
  :class:`~repro.exec.executor.CellExecutionError`; the cells that
  finished are already cached.
* :class:`~repro.exec.cache.ExperimentCache` — a content-addressed on-disk
  cache of :class:`~repro.core.experiment.ExperimentRecord` keyed by the
  resolved configuration plus code-relevant versions, so re-running or
  extending a sweep only trains the new cells.

All four sweep front-ends in :mod:`repro.core` route through this executor
and expose its ``workers=`` / ``cache=`` knobs.
"""

from repro.exec.cache import (
    CACHE_SCHEMA_VERSION,
    TRAINING_CODE_VERSION,
    CacheEntry,
    ExperimentCache,
    experiment_cache_key,
)
from repro.exec.executor import (
    CellExecutionError,
    ProgressEvent,
    resolve_cache,
    resolve_start_method,
    resolve_workers,
    run_experiments,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "TRAINING_CODE_VERSION",
    "CacheEntry",
    "CellExecutionError",
    "ExperimentCache",
    "experiment_cache_key",
    "ProgressEvent",
    "resolve_cache",
    "resolve_start_method",
    "resolve_workers",
    "run_experiments",
]
