"""Micro-batched inference serving.

:class:`InferenceServer` accepts *single* raw images, encodes each one
through the model's encoder at submit time, and coalesces concurrent
requests into micro-batches before dispatching them to the event-driven
runtime:

* a request is queued with its encoded ``(T, 1, ...)`` spike train;
* the dispatcher thread forms a batch as soon as ``max_batch`` requests are
  waiting, or when the oldest waiting request has aged ``max_wait_ms``
  (``max_wait_ms=0`` dispatches whatever is queued immediately — the
  serial, latency-optimal mode);
* a worker checks a compiled plan out of the
  :class:`~repro.runtime.pool.CompiledNetworkPool`, concatenates the
  requests along the batch axis, runs one timestep loop, and demultiplexes
  the per-request spike counts back onto each request's future.

Because every kernel in the runtime treats the batch axis as fully
data-parallel, a request's spike counts do not depend on which batch it
was coalesced into beyond BLAS summation grouping; for deterministic
batching (requests submitted before :meth:`InferenceServer.start`, FIFO
chunks of ``max_batch``) the served counts are bit-identical to
:func:`repro.runtime.evaluate_with_runtime` over the same batches — the
contract ``tests/test_serve.py`` and the serving benchmark enforce.

Admission control
-----------------
By default the queue is unbounded — open-loop arrivals beyond capacity grow
it (and every latency percentile) without limit.  Passing ``max_queue``
caps the number of requests admitted but not yet started and picks one of
two overload policies:

* ``overload="shed"`` (default) — a submit that finds the queue full
  fails fast with :class:`ServerOverloaded`, *before* paying the encode;
  the shed is counted in :class:`~repro.serve.telemetry.ServeTelemetry`.
* ``overload="block"`` — the submitter blocks until a slot frees (classic
  back-pressure).  Blocked submitters are admitted strictly in arrival
  (FIFO) order; late arrivals cannot barge past earlier waiters even when
  a slot opens just as they arrive.

The dispatcher cuts a batch only when a worker is free to start it, so a
request waiting for a worker is still in the admission queue: requests
admitted but not yet started never exceed ``max_queue``.  Admission
decisions (admitted count, shed count, queue-depth high-water mark) are
surfaced through the server's telemetry alongside latency and throughput.

Priority lanes and deadlines (SLO-aware scheduling)
---------------------------------------------------
Every request carries a ``priority`` lane (0 = normal, higher = more
important) and an optional ``deadline_ms`` latency budget:

* Under shed-mode overload, **low-priority traffic is shed first**: a
  higher-priority arrival that finds the queue full *evicts* the
  lowest-priority (latest-arrival among ties) waiting request instead of
  being rejected itself; the evicted request's future fails with
  :class:`ServerOverloaded` and the shed is counted against *its* lane.
  Only when every waiting request has equal or higher priority is the new
  arrival shed.  Dispatch order stays strictly FIFO — priority decides who
  is sacrificed under overload, never who barges ahead, so the
  deterministic-batching bit-identity contract is unchanged.
* A ``deadline_ms`` steers batching *and* is a real timeout: the
  dispatcher cuts a batch early when any waiting request is within
  :data:`DEADLINE_MARGIN_MS` of its deadline, instead of waiting out
  ``max_wait_ms`` for more company (FIFO dispatch means the urgent request
  is always in the cut batch).  A request whose deadline has *already
  passed* is never dispatched late — its future fails with
  :class:`RequestTimedOut` at the cutoff (batch cut or batch start,
  whichever notices first), counted per lane in telemetry.

Failure isolation and cancellation
-----------------------------------
A batch whose inference raises resolves *only that batch's* futures with
the error (counted via
:meth:`~repro.serve.telemetry.ServeTelemetry.record_failure`); the server
keeps serving subsequent batches.  Because a batch's every exception ends
on its futures, no batch can kill a worker: the ``workers`` threads start
with the server and are joined once by :meth:`InferenceServer.stop`.
Errors that would fail every batch are raised before any request is
admitted: a model the runtime cannot lower raises
:class:`~repro.runtime.engine.RuntimeCompileError` when the server is
built (its pool compiles one plan up front), and a submit whose image does
not fit the served network's ``input_shape`` raises ``ValueError`` before
anything is encoded, so a malformed request fails alone and never reaches
a batch.

A client may ``cancel()`` a returned future until its request is cut into
a batch.  The server claims every future before resolving it
(``Future.set_running_or_notify_cancel``): the dispatcher claims each
request as it cuts a batch and drops the cancelled ones, and a request
that is evicted, times out or is abandoned by ``stop(drain=False)`` while
still queued is claimed first too.  A cancelled request stays counted as
admitted but is never served, failed, shed or timed out.  It frees its
queue slot for admission: before a full queue sheds, evicts or blocks an
arrival, the cancelled requests in it are claimed and dropped, and the
dispatcher drops them before it decides whether a batch is full or due,
so a cancelled request counts neither toward ``max_batch`` nor toward the
``max_wait_ms`` clock.  A cancel itself wakes nobody: a submitter already
blocked takes the slot, and the dispatcher stops waiting for the request,
at the next wake-up (a submit, a cut, a finished batch, a timer or
:meth:`stop`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.encoding import Encoder
from repro.nn.module import Module
from repro.obs.trace import Tracer, default_tracer
from repro.runtime.activity import count_events
from repro.runtime.pool import CompiledNetworkPool
from repro.serve.telemetry import RequestStat, ServeTelemetry


class ServerClosed(RuntimeError):
    """Raised when submitting to (or pending on) a server that has shut down."""


class ServerOverloaded(RuntimeError):
    """Raised by ``overload="shed"`` admission control when the queue is full."""


class RequestTimedOut(RuntimeError):
    """Raised on a request's future when its ``deadline_ms`` expires before service."""


#: Overload policy: reject surplus submits with :class:`ServerOverloaded`.
OVERLOAD_SHED = "shed"
#: Overload policy: block surplus submitters until a queue slot frees (FIFO).
OVERLOAD_BLOCK = "block"

_OVERLOAD_POLICIES = (OVERLOAD_SHED, OVERLOAD_BLOCK)

#: A deadline-driven cutoff fires this many milliseconds before a waiting
#: request's ``deadline_ms`` budget runs out, leaving that margin for the
#: batch to execute.
DEADLINE_MARGIN_MS = 5.0


@dataclass
class ServeResult:
    """What one request resolves to.

    Attributes
    ----------
    prediction:
        Predicted class (argmax of the accumulated output spike counts).
    counts:
        The request's output spike counts, shape ``(num_classes,)`` —
        bit-identical to what ``evaluate_with_runtime`` computes for the
        same batch.
    latency_ms / queue_ms:
        End-to-end and queue-only wall time for this request.
    batch_size:
        Size of the micro-batch the request was served in.
    input_density:
        Non-zero fraction of the request's encoded spike train.
    sequence:
        Admission order: the 0-based position of this request among every
        request this server ever admitted (sheds do not consume a number).
    priority:
        The priority lane the request was submitted on (0 = normal).
    """

    prediction: int
    counts: np.ndarray
    latency_ms: float
    queue_ms: float
    batch_size: int
    input_density: float
    sequence: int = 0
    priority: int = 0


@dataclass
class _Pending:
    spikes: np.ndarray  # (T, 1, ...)
    future: "Future[ServeResult]"
    submitted: float  # when submit() was called (latency measurement)
    queued: float  # when the request entered the queue (batching deadline)
    input_density: float
    sequence: int  # admission order (see ServeResult.sequence)
    priority: int = 0  # shed order under overload (lowest lane goes first)
    deadline: Optional[float] = None  # absolute perf_counter deadline, or None
    trace_id: int = 0  # observability trace this request belongs to (0 = untraced)
    root_span: int = 0  # parent span ID for the request's stage spans
    cut: float = 0.0  # when the dispatcher cut this request into a batch (traced only)


class InferenceServer:
    """Micro-batching front-end over a compiled spiking network.

    Parameters
    ----------
    model:
        The model to serve, or an existing
        :class:`~repro.runtime.pool.CompiledNetworkPool` wrapping it.  A
        model the runtime cannot lower raises
        :class:`~repro.runtime.engine.RuntimeCompileError` here.
    encoder:
        Input encoder applied to every submitted image.  Stochastic
        encoders draw from their own stream under the server's lock, so
        encoded trains depend on submission order (deterministic for a
        single-threaded client).
    max_batch:
        Largest micro-batch the dispatcher will form.
    max_wait_ms:
        How long the oldest queued request may wait for company before the
        batch is dispatched anyway.  ``0`` disables coalescing-by-time:
        whatever is queued when the dispatcher wakes is sent immediately.
    workers:
        Concurrent batch executors: this many worker threads start with
        the server and run until :meth:`stop`.  Each worker checks out its
        own compiled plan, so ``workers`` bounds the plans ever compiled.
    max_queue:
        Admission-control cap on the requests admitted but not yet started
        (``None`` = unbounded, the historical behaviour).  A request waiting
        for a free worker counts against the cap; one being executed does
        not.
    overload:
        What to do with a submit that finds the queue full:
        ``"shed"`` raises :class:`ServerOverloaded` fail-fast,
        ``"block"`` applies back-pressure — the submitter blocks until a
        slot frees, admitted in FIFO arrival order.  Ignored while
        ``max_queue`` is ``None``.
    telemetry:
        Optional shared :class:`ServeTelemetry` (a fresh one is created by
        default, exposed as :attr:`telemetry`).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` receiving per-request
        stage spans (admission → queue → batch → checkout → kernel →
        reply).  Defaults to the process tracer, which is disabled unless
        ``REPRO_OBS_TRACE=1`` — and a disabled tracer costs one boolean
        check per instrumented site.

    Requests may be submitted before :meth:`start`: they queue up and are
    drained in FIFO chunks of exactly ``max_batch`` once the dispatcher
    starts — the deterministic-batching mode the equivalence tests use.
    Use as a context manager (``with InferenceServer(...) as server``) to
    start and stop automatically; :meth:`stop` drains queued work by
    default.
    """

    def __init__(
        self,
        model: Union[Module, CompiledNetworkPool],
        encoder: Encoder,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        workers: int = 1,
        max_queue: Optional[int] = None,
        overload: str = OVERLOAD_SHED,
        telemetry: Optional[ServeTelemetry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be non-negative, got {max_wait_ms}")
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be at least 1 (or None), got {max_queue}")
        if overload not in _OVERLOAD_POLICIES:
            raise ValueError(f"overload must be one of {_OVERLOAD_POLICIES}, got {overload!r}")
        self.pool = model if isinstance(model, CompiledNetworkPool) else CompiledNetworkPool(model, max_idle=workers)
        self.encoder = encoder
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1000.0
        self.workers = int(workers)
        # A hot reload swaps weights in place only between same-spec
        # models, so the served input shape never changes under a server.
        self._input_shape: Optional[Tuple[int, ...]] = getattr(self.pool.model, "input_shape", None)
        self.max_queue = int(max_queue) if max_queue is not None else None
        self.overload = overload
        self.telemetry = telemetry if telemetry is not None else ServeTelemetry()
        # Disabled tracing is the default and stays off the hot path: every
        # instrumented site first checks ``self.tracer.enabled`` (a single
        # attribute read) before touching timestamps or span records.
        self.tracer = tracer if tracer is not None else default_tracer()

        self._cv = threading.Condition()
        # Encoding is the dominant per-request CPU cost; it gets its own
        # lock so concurrent submitters serialise only against each other
        # (keeping stochastic encoder streams submission-ordered) without
        # stalling the dispatcher, which waits on the queue condition.
        self._encode_lock = threading.Lock()
        self._queue: Deque[_Pending] = deque()
        # Batches the dispatcher has cut, waiting for a worker thread.
        self._ready: Deque[List[_Pending]] = deque()
        # Batches cut and not yet finished (in _ready or running); the
        # dispatcher cuts the next one only while this is below ``workers``.
        self._in_flight = 0
        # Back-pressure turnstile: one opaque token per blocked submitter,
        # in arrival order; the head waiter is admitted first (no barging).
        self._blocked: Deque[object] = deque()
        self._sequence = 0
        self._closed = False
        self._draining = True
        self._dispatch_done = False
        self._dispatcher: Optional[threading.Thread] = None
        self._worker_threads: List[threading.Thread] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "InferenceServer":
        """Launch the dispatcher and worker pool (idempotent)."""
        with self._cv:
            if self._closed:
                raise ServerClosed("server has been stopped")
            if self._dispatcher is not None:
                return self
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
            )
            self._worker_threads = [
                threading.Thread(target=self._worker_loop, name=f"repro-serve-worker-{i}", daemon=True)
                for i in range(self.workers)
            ]
            for thread in self._worker_threads:
                thread.start()
            self._dispatcher.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut down; by default finishes all queued work first.

        With ``drain=False`` the batches already cut still run, and the
        requests still queued fail with :class:`ServerClosed`.  A
        done-callback may call it; on one of the server's own threads (where
        a served or timed-out request's callback runs) it waits for none of
        them, and they finish after it returns.
        """
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._draining = drain
            abandoned: List[_Pending] = []
            if self._dispatcher is None or not drain:
                abandoned, self._queue = list(self._queue), deque()  # nothing will cut these
            if self._dispatcher is None:
                self._dispatch_done = True  # nothing will ever cut a batch
            self._cv.notify_all()
        for pending in abandoned:
            self._fail_queued(pending, ServerClosed("server stopped before the request ran"))
        threads = [t for t in [self._dispatcher, *self._worker_threads] if t is not None]
        if threading.current_thread() not in threads:
            for thread in threads:
                thread.join()

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        """Number of requests currently waiting to be batched."""
        with self._cv:
            return len(self._queue)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def _queue_full_locked(self) -> bool:
        """Whether admission control should act on a new arrival (cv held)."""
        if self.max_queue is None:
            return False
        # Waiting back-pressured submitters count as ahead in line: a new
        # arrival must not slip past them even if a slot is currently free.
        return not self._queue_has_room_locked() or bool(self._blocked)

    def _queue_has_room_locked(self) -> bool:
        """Whether fewer than ``max_queue`` requests wait (cv held).

        A full queue first drops the requests their clients cancelled.
        """
        if len(self._queue) >= self.max_queue:
            self._drop_cancelled_locked()
        return len(self._queue) < self.max_queue

    def _drop_cancelled_locked(self) -> None:
        """Drop the queued requests their clients cancelled (cv held).

        Each is claimed (``set_running_or_notify_cancel``, which runs no
        callback), so ``concurrent.futures.wait`` sees it done; it stays
        counted as admitted.
        """
        kept: Deque[_Pending] = deque()
        for pending in self._queue:
            # A client may cancel at any moment, so each future is asked once.
            if pending.future.cancelled():
                pending.future.set_running_or_notify_cancel()
            else:
                kept.append(pending)
        if len(kept) < len(self._queue):
            self._queue = kept
            self._cv.notify_all()  # the slots may go to a blocked submitter

    def _shed_victim_locked(self, priority: int) -> Optional[int]:
        """Index of the queued request a ``priority`` arrival may evict.

        The victim is the lowest-priority waiting request, breaking ties
        toward the latest arrival (least sunk queueing time); only requests
        in a strictly lower lane than the new arrival qualify.  ``None``
        when the whole queue is at or above ``priority``.
        """
        if not self._queue:
            return None
        victim = min(
            range(len(self._queue)),
            key=lambda i: (self._queue[i].priority, -i),
        )
        if self._queue[victim].priority < priority:
            return victim
        return None

    def _admit_locked(self, priority: int = 0) -> Optional[_Pending]:
        """Apply the overload policy; returns with a queue slot available.

        Must be called with ``self._cv`` held.  Under the shed policy a
        full queue first looks for a lower-priority victim to evict (shed
        low-priority traffic first), which it takes off the queue and
        returns for the caller to fail once the lock is released; failing
        that the new arrival itself is shed with :class:`ServerOverloaded`.
        The block policy is plain FIFO back-pressure regardless of
        priority; it raises :class:`ServerClosed` if the server stops while
        the submitter waits.
        """
        if not self._queue_full_locked():
            return None
        if self.overload == OVERLOAD_SHED:
            victim = self._shed_victim_locked(priority)
            if victim is not None:
                evicted = self._queue[victim]
                del self._queue[victim]
                return evicted
            self.telemetry.record_shed(priority=priority)
            raise ServerOverloaded(
                f"queue full ({self.max_queue} waiting requests); request shed"
            )
        token = object()
        self._blocked.append(token)
        try:
            while True:
                if self._closed:
                    raise ServerClosed("server stopped while awaiting admission")
                if self._blocked[0] is token and self._queue_has_room_locked():
                    return None
                # A cancel does not notify: a slot it frees is seen at the
                # next wake-up (a submit, a cut, a finished batch or stop).
                self._cv.wait()
        finally:
            self._blocked.remove(token)
            self._cv.notify_all()

    def _shed_would_reject_locked(self, priority: int) -> bool:
        """Whether a shed-mode arrival would be rejected outright (cv held).

        Used for the pre-encode fast path: an arrival that could only be
        admitted by evicting a victim is *not* rejected here — the eviction
        itself is deferred to the authoritative post-encode admission, so a
        request that later loses a race for the slot never evicts anyone
        for nothing.
        """
        if not self._queue_full_locked():
            return False
        return self._shed_victim_locked(priority) is None

    def submit(
        self,
        image: np.ndarray,
        priority: int = 0,
        deadline_ms: Optional[float] = None,
        trace_ctx: Optional[Tuple[int, int]] = None,
    ) -> "Future[ServeResult]":
        """Queue one raw image; returns a future resolving to a :class:`ServeResult`.

        The image must have the served network's ``input_shape``,
        ``(in_channels, image_size, image_size)`` for a
        :class:`~repro.core.network.SpikingCNN`; a flat input shape such as a
        :class:`~repro.core.network.SpikingMLP`'s ``(in_features,)`` takes any
        image of that many values, flattened.  Any other image raises
        ``ValueError`` before the encode, and nothing is admitted or counted.
        The image is encoded synchronously (so encoder errors surface here,
        attributed to the caller) and the request then waits to be coalesced.
        With ``max_queue`` set, admission control runs first: shed mode
        raises :class:`ServerOverloaded` before the encode is paid; block
        mode encodes, then waits for a queue slot in FIFO arrival order.

        ``priority`` picks the request's shed lane (higher lanes are shed
        last and may evict lower-lane traffic from a full queue);
        ``deadline_ms`` is a latency budget from *now* that makes the
        dispatcher cut a batch early rather than let this request blow it
        waiting for company — and a real timeout: once it expires the
        request is never dispatched, its future failing with
        :class:`RequestTimedOut` instead.

        ``trace_ctx`` is an optional ``(trace_id, parent_span_id)`` pair
        from an upstream span (the gateway's ``gateway.submit`` root);
        when the tracer is enabled and no context is given, the request
        mints its own trace.

        The returned future may be cancelled until the request is cut into
        a batch; the server then drops it without serving it or counting
        a shed, timeout or failure.  A later arrival that finds the queue
        full takes its slot, and the requests behind it fill the batch
        and start the ``max_wait_ms`` clock in its place.
        """
        image = np.asarray(image, dtype=np.float32)
        submitted = time.perf_counter()
        priority = int(priority)
        traced = self.tracer.enabled
        trace_id = 0
        root_span = 0
        if traced:
            if trace_ctx is not None:
                trace_id, root_span = trace_ctx
            else:
                trace_id = self.tracer.mint_trace()
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {deadline_ms}")
        shape = self._input_shape
        if shape is not None and len(shape) == 1 and image.size == shape[0]:
            # A flat input (SpikingMLP) takes any frame of its size, flattened
            # here so that frames of different shapes can share a batch.
            image = image.reshape(shape)
        if shape is not None and image.shape != shape:
            raise ValueError(
                f"image shape {image.shape} does not match the served network's input shape {shape}"
            )
        if self._closed:
            raise ServerClosed("cannot submit to a stopped server")
        if self.max_queue is not None and self.overload == OVERLOAD_SHED:
            # Fail fast before the (dominant) encode cost; the authoritative
            # admission under the lock below still guards against races and
            # performs any eviction.
            with self._cv:
                if self._shed_would_reject_locked(priority):
                    self.telemetry.record_shed(priority=priority)
                    raise ServerOverloaded(
                        f"queue full ({self.max_queue} waiting requests); request shed"
                    )
        if getattr(self.encoder, "stochastic", True):
            # Only stochastic encoders need submission-order serialisation
            # (the RNG stream); deterministic ones encode fully in parallel.
            with self._encode_lock:
                spikes = self.encoder(image[None])
        else:
            spikes = self.encoder(image[None])
        density = count_events(spikes) / spikes.size if spikes.size else 0.0
        future: "Future[ServeResult]" = Future()
        with self._cv:
            if self._closed:
                raise ServerClosed("cannot submit to a stopped server")
            evicted = self._admit_locked(priority)
            sequence = self._sequence
            self._sequence += 1
            # The wait-for-company clock starts at queue entry, not at
            # submit: encoding time must not eat into the max_wait window.
            # The deadline clock starts at submit — the caller's latency
            # budget covers the encode too.
            queued = time.perf_counter()
            self._queue.append(
                _Pending(
                    spikes=spikes,
                    future=future,
                    submitted=submitted,
                    queued=queued,
                    input_density=density,
                    sequence=sequence,
                    priority=priority,
                    deadline=submitted + deadline_ms / 1000.0 if deadline_ms is not None else None,
                    trace_id=trace_id,
                    root_span=root_span,
                )
            )
            queue_depth = len(self._queue)
            self.telemetry.record_admission(queue_depth, priority=priority)
            self._cv.notify_all()
        if evicted is not None:
            self._fail_queued(
                evicted,
                ServerOverloaded(f"evicted from a full queue by a priority-{priority} arrival"),
                count=self.telemetry.record_shed,
            )
        if trace_id:
            # Admission covers everything from submit to queue entry:
            # overload fast-path, encode, and admission control under the
            # lock.
            self.tracer.record(
                "serve.admission",
                trace_id,
                root_span,
                submitted,
                queued,
                priority=priority,
                queue_depth=queue_depth,
            )
        return future

    def submit_many(
        self,
        images: Sequence[np.ndarray],
        priority: int = 0,
        deadline_ms: Optional[float] = None,
    ) -> List["Future[ServeResult]"]:
        """Submit a sequence of independent single-image requests (FIFO order)."""
        return [self.submit(image, priority=priority, deadline_ms=deadline_ms) for image in images]

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _cutoff_locked(self) -> tuple[float, float]:
        """(wait cutoff, effective cutoff) for the current queue (cv held).

        The wait cutoff is when the oldest request exhausts ``max_wait``;
        the effective cutoff additionally honours every queued request's
        deadline minus the dispatch margin — whichever urgency comes first
        cuts the batch.
        """
        wait_cutoff = self._queue[0].queued + self.max_wait
        cutoff = wait_cutoff
        for pending in self._queue:
            if pending.deadline is not None:
                cutoff = min(cutoff, pending.deadline - DEADLINE_MARGIN_MS / 1000.0)
        return wait_cutoff, cutoff

    def _fail_queued(
        self, pending: _Pending, error: BaseException, count: Optional[Callable[..., None]] = None
    ) -> None:
        """Fail a request just taken off the queue, unless its client cancelled it.

        The one way a queued request is resolved: the future is claimed
        first, so a cancelled one is dropped silently.  ``count`` (a
        telemetry recorder taking ``priority=``) runs before the future
        resolves, and only for a request that is failed.
        """
        if not pending.future.set_running_or_notify_cancel():
            return
        if count is not None:
            count(priority=pending.priority)
        pending.future.set_exception(error)

    def _prune_expired_locked(self) -> None:
        """Time out queued requests whose deadline has already passed (cv held).

        Each expired request's future fails with :class:`RequestTimedOut`
        immediately — it is never cut into a batch — and its lane's
        timeout counter is incremented.  Freed queue slots wake blocked
        submitters.
        """
        now = time.perf_counter()
        expired = [p for p in self._queue if p.deadline is not None and now >= p.deadline]
        if not expired:
            return
        # The queue is settled before any future resolves: a done-callback
        # may call stop(), which empties it.
        self._queue = deque(p for p in self._queue if p.deadline is None or now < p.deadline)
        for pending in expired:
            self._fail_queued(
                pending,
                RequestTimedOut(
                    f"deadline expired {(now - pending.deadline) * 1000.0:.1f} ms "
                    "before the batch was cut"
                ),
                count=self.telemetry.record_timeout,
            )
        self._cv.notify_all()

    def _take_batch(self) -> Optional[List[_Pending]]:
        """Block until a batch is due and a worker is free (or shutdown); cut it.

        A due batch stays uncut while every worker is busy, so its requests
        remain in the admission queue (bounded by ``max_queue``, open to
        eviction) and are still timed out when their deadline passes.
        Cancelled requests are dropped before the batch is judged full or
        due, and cutting claims each request's future, so a request
        cancelled in between is dropped too and the batch fills up from the
        queue behind it.  Returns ``None`` at shutdown: once the queue is
        drained, or at once after ``stop(drain=False)``, which fails what is
        still queued.
        """
        with self._cv:
            while True:
                if self._closed and not self._draining:
                    return None
                self._drop_cancelled_locked()
                self._prune_expired_locked()
                if not self._queue:
                    if self._closed:
                        return None
                    # Both wake sources (submit, stop) notify under this
                    # condition, so an idle dispatcher blocks without polling.
                    self._cv.wait()
                    continue
                full = len(self._queue) >= self.max_batch or self._closed
                wait_cutoff, cutoff = self._cutoff_locked()
                now = time.perf_counter()
                if not full and cutoff > now:
                    self._cv.wait(timeout=cutoff - now)
                    continue
                if self._in_flight < self.workers:
                    batch: List[_Pending] = []
                    while self._queue and len(batch) < self.max_batch:
                        pending = self._queue.popleft()
                        if pending.future.set_running_or_notify_cancel():
                            batch.append(pending)
                    # Freed queue slots: wake back-pressured submitters (FIFO).
                    self._cv.notify_all()
                    if batch:
                        break
                    continue  # every request cut was cancelled
                # Every worker is busy; a finishing worker notifies, and
                # the next deadline wakes us to time its request out.
                deadlines = [p.deadline for p in self._queue if p.deadline is not None]
                self._cv.wait(timeout=min(deadlines) - now if deadlines else None)
            # An early cut that beats the max_wait window can only have
            # come from a deadline-driven cutoff.
            if not full and now < wait_cutoff:
                self.telemetry.record_deadline_dispatch()
            if self.tracer.enabled:
                # Stamp when the dispatcher cut the batch: the boundary
                # between each member's queue-wait and batch-formation spans.
                cut = time.perf_counter()
                for pending in batch:
                    pending.cut = cut
            return batch

    def _dispatch_loop(self) -> None:
        try:
            while True:
                batch = self._take_batch()
                if batch is None:
                    return
                with self._cv:
                    self._ready.append(batch)
                    self._in_flight += 1
                    self._cv.notify_all()
        finally:
            # Workers drain whatever is in _ready, then retire.
            with self._cv:
                self._dispatch_done = True
                self._cv.notify_all()

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while not self._ready:
                    if self._dispatch_done:
                        return
                    self._cv.wait()
                batch = self._ready.popleft()
            self._process_batch(batch)
            with self._cv:
                self._in_flight -= 1
                self._cv.notify_all()

    def _process_batch(self, batch: List[_Pending]) -> None:
        """Apply deadline cutoffs, then run the batch.

        Requests whose deadline has already passed are failed here with
        :class:`RequestTimedOut` instead of being served late.
        """
        now = time.perf_counter()
        live: List[_Pending] = []
        for pending in batch:
            if pending.deadline is not None and now >= pending.deadline:
                self.telemetry.record_timeout(priority=pending.priority)
                pending.future.set_exception(
                    RequestTimedOut(
                        f"deadline expired {(now - pending.deadline) * 1000.0:.1f} ms "
                        "before the batch started"
                    )
                )
            else:
                live.append(pending)
        if live:
            self._run_batch(live, started=now)

    def _run_batch(self, batch: List[_Pending], started: float) -> None:
        traced = self.tracer.enabled
        try:
            spikes = (
                batch[0].spikes
                if len(batch) == 1
                else np.concatenate([pending.spikes for pending in batch], axis=1)
            )
            with self.pool.acquire() as plan:
                acquired = time.perf_counter() if traced else started
                result = plan.run(spikes, record_activity=True)
            done = time.perf_counter()

            counts = result.counts
            stats = [
                RequestStat(
                    latency_ms=(done - pending.submitted) * 1000.0,
                    queue_ms=(started - pending.submitted) * 1000.0,
                    batch_size=len(batch),
                    input_density=pending.input_density,
                    priority=pending.priority,
                )
                for pending in batch
            ]
            # Telemetry is recorded BEFORE the futures resolve: if it raises
            # (e.g. a mis-shared ServeTelemetry), the failure reaches the
            # requesters through the except block instead of vanishing.
            self.telemetry.record_batch(
                stats,
                result.activity,
                first_submit=min(pending.submitted for pending in batch),
                done=done,
            )
            for i, (pending, stat) in enumerate(zip(batch, stats)):
                row = np.array(counts[i], copy=True)
                pending.future.set_result(
                    ServeResult(
                        prediction=int(row.argmax()),
                        counts=row,
                        latency_ms=stat.latency_ms,
                        queue_ms=stat.queue_ms,
                        batch_size=stat.batch_size,
                        input_density=stat.input_density,
                        sequence=pending.sequence,
                        priority=pending.priority,
                    )
                )
            if traced:
                # Stage spans are recorded after the futures resolve, from
                # timestamps stashed along the way — the batch's members
                # share the measured boundaries but each span lands in its
                # own request's trace, under that request's root span.
                reply_done = time.perf_counter()
                size = len(batch)
                for pending in batch:
                    if not pending.trace_id:
                        continue
                    trace_id, root = pending.trace_id, pending.root_span
                    cut = pending.cut if pending.cut else started
                    self.tracer.record("serve.queue", trace_id, root, pending.queued, cut)
                    self.tracer.record("serve.batch", trace_id, root, cut, started, batch_size=size)
                    self.tracer.record("serve.checkout", trace_id, root, started, acquired)
                    self.tracer.record(
                        "serve.kernel",
                        trace_id,
                        root,
                        acquired,
                        done,
                        batch_size=size,
                        precision=self.pool.precision,
                    )
                    self.tracer.record("serve.reply", trace_id, root, done, reply_done)
        except BaseException as exc:  # noqa: BLE001 - must reach the futures
            # Batch-level failure isolation: only THIS batch's futures see
            # the error; the worker survives and the server keeps serving.
            self.telemetry.record_failure(f"{type(exc).__name__}: {exc}", count=len(batch))
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
