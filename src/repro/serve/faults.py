"""Deterministic fault injection for the serving stack.

The chaos suite (``tests/test_faults.py``) and the ``fault_storm`` serving
benchmark need *reproducible* failures: the same seed must produce the same
schedule of kernel exceptions, worker deaths and slow batches regardless of
thread interleaving.  :class:`FaultInjector` achieves that by keying every
decision on the **batch index** — assigned by the single-threaded dispatcher
in submission order — through a per-index ``np.random.default_rng([seed,
batch_index])`` stream, so which worker happens to pick a batch up never
changes its fate.

Faults are test-only hooks: production construction paths never build an
injector, and a ``None`` injector costs one attribute check per batch.
Four fault species are supported:

- **kernel fault** — the batch's inference raises
  :class:`InjectedKernelFault` *inside* the normal batch-failure path, so
  only that batch's futures resolve with the error;
- **worker death** — the worker thread processing the batch raises
  :class:`InjectedWorkerDeath` *before* running it, escaping the worker
  loop entirely (the batch is requeued, the supervisor respawns the
  thread);
- **slow batch** — a deterministic sleep before inference, for deadline
  and overload tests;
- **torn checkpoint** — :func:`tear_checkpoint` corrupts a published
  checkpoint file in place (atomically, so the tear itself is never
  half-visible) to exercise integrity-failure degradation on hot-reload.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import FrozenSet, Optional, Tuple, Union

import numpy as np

from repro.utils import atomic_write

PathLike = Union[str, Path]

__all__ = [
    "InjectedFault",
    "InjectedKernelFault",
    "InjectedWorkerDeath",
    "BatchFate",
    "FaultInjector",
    "tear_checkpoint",
]


class InjectedFault(RuntimeError):
    """Base class for all injected failures, so tests can catch the family."""


class InjectedKernelFault(InjectedFault):
    """Injected in place of a batch's inference result (batch-level failure)."""


class InjectedWorkerDeath(InjectedFault):
    """Raised out of a worker thread's loop to simulate the thread dying."""


@dataclass(frozen=True)
class BatchFate:
    """The injector's decision for one batch index.

    At most one of ``kernel_fault`` / ``worker_death`` is set (worker death
    wins when both rates fire); ``slow_ms`` composes with either.
    """

    #: Fail the batch's inference with :class:`InjectedKernelFault`.
    kernel_fault: bool = False
    #: Kill the worker thread (batch is requeued, thread respawned).
    worker_death: bool = False
    #: Sleep this many milliseconds before running the batch (0 = no delay).
    slow_ms: float = 0.0


_CLEAN = BatchFate()


@dataclass
class FaultInjector:
    """Seeded, thread-safe source of per-batch fault decisions.

    Faults can be scheduled two ways, freely combined:

    - **explicit schedules** (``kernel_fault_batches`` etc.) name exact
      batch indices — what the chaos tests mostly use, since they make
      assertions about *which* requests fail;
    - **rates** draw per-index Bernoulli decisions from
      ``default_rng([seed, batch_index])`` — what the fault-storm
      benchmark's seed matrix uses.

    Worker-death decisions are **one-shot**: after a death fires for a
    batch index, the requeued batch runs clean on the respawned worker
    (otherwise the same index would kill every successor and the batch
    would never complete).  Kernel faults and slow batches are stable
    per index.
    """

    #: Base seed for the per-batch-index decision streams.
    seed: int = 0
    #: Probability a batch's inference raises :class:`InjectedKernelFault`.
    kernel_fault_rate: float = 0.0
    #: Probability the worker thread dies before running a batch.
    worker_death_rate: float = 0.0
    #: Probability a batch is delayed by ``slow_batch_ms``.
    slow_batch_rate: float = 0.0
    #: Delay applied to slow batches, in milliseconds.
    slow_batch_ms: float = 20.0
    #: Explicit batch indices whose inference fails.
    kernel_fault_batches: FrozenSet[int] = field(default_factory=frozenset)
    #: Explicit batch indices that kill their worker (once each).
    worker_death_batches: FrozenSet[int] = field(default_factory=frozenset)
    #: Explicit batch indices that are delayed.
    slow_batches: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        """Normalise schedule containers and initialise mutable counters."""
        self.kernel_fault_batches = frozenset(self.kernel_fault_batches)
        self.worker_death_batches = frozenset(self.worker_death_batches)
        self.slow_batches = frozenset(self.slow_batches)
        self._lock = threading.Lock()
        self._deaths_fired: set = set()
        self._kernel_faults_injected = 0
        self._worker_deaths_injected = 0
        self._slow_batches_injected = 0

    # ------------------------------------------------------------------ #
    # Decision
    # ------------------------------------------------------------------ #
    def _draws(self, batch_index: int) -> Tuple[bool, bool, bool]:
        """Rate-based (death, kernel, slow) draws for one batch index.

        A fresh generator keyed on ``[seed, batch_index]`` with a fixed
        draw *order* makes each decision independent of thread timing and
        of the other rates being zero or not.
        """
        rng = np.random.default_rng([self.seed, batch_index])
        death = bool(rng.random() < self.worker_death_rate)
        kernel = bool(rng.random() < self.kernel_fault_rate)
        slow = bool(rng.random() < self.slow_batch_rate)
        return death, kernel, slow

    def on_batch(self, batch_index: int) -> BatchFate:
        """Decide the fate of batch ``batch_index`` (thread-safe).

        Called by the worker about to process the batch.  Counters are
        updated here, so ``injected_counts`` reflects decisions actually
        delivered to workers, not hypothetical schedules.
        """
        death_draw, kernel_draw, slow_draw = self._draws(batch_index)
        death = death_draw or batch_index in self.worker_death_batches
        kernel = kernel_draw or batch_index in self.kernel_fault_batches
        slow = slow_draw or batch_index in self.slow_batches
        with self._lock:
            if death:
                if batch_index in self._deaths_fired:
                    death = False
                else:
                    self._deaths_fired.add(batch_index)
                    self._worker_deaths_injected += 1
            # A dying worker never reaches the batch, so its kernel fault
            # (if any) applies to the retry on the respawned worker instead.
            if kernel and not death:
                self._kernel_faults_injected += 1
            if slow and not death:
                self._slow_batches_injected += 1
        if not (death or kernel or slow):
            return _CLEAN
        return BatchFate(
            kernel_fault=kernel and not death,
            worker_death=death,
            slow_ms=self.slow_batch_ms if (slow and not death) else 0.0,
        )

    @property
    def injected_counts(self) -> dict:
        """Counts of faults actually delivered, keyed by species."""
        with self._lock:
            return {
                "kernel_faults": self._kernel_faults_injected,
                "worker_deaths": self._worker_deaths_injected,
                "slow_batches": self._slow_batches_injected,
            }


def tear_checkpoint(path: PathLike, seed: int = 0, keep_bytes: Optional[int] = None) -> Path:
    """Deterministically corrupt a published checkpoint file in place.

    Truncates the archive to roughly half its length (the exact cut point
    is drawn from ``seed``) and flips a few bytes, then republishes the
    torn payload via :func:`~repro.utils.atomic_write` — the corruption
    itself is atomic and changes the file's inode/mtime, so a gateway's
    stat-signature reload detection fires exactly as it would for a real
    bad republish.  Reading the result raises
    :class:`~repro.training.checkpoint.CheckpointIntegrityError`.
    """
    path = Path(path)
    data = path.read_bytes()
    if not data:
        raise ValueError(f"cannot tear empty file {path}")
    rng = np.random.default_rng([seed, len(data)])
    if keep_bytes is None:
        lo, hi = max(1, len(data) // 4), max(2, len(data) // 2)
        keep_bytes = int(rng.integers(lo, hi + 1))
    torn = bytearray(data[:keep_bytes])
    for _ in range(min(4, len(torn))):
        torn[int(rng.integers(0, len(torn)))] ^= 0xFF
    atomic_write(path, bytes(torn))
    return path
