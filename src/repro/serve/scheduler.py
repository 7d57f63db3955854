"""Micro-batched inference serving.

:class:`InferenceServer` accepts *single* raw images, encodes each one
through the model's encoder at submit time, and coalesces concurrent
requests into micro-batches before dispatching them to a compiled
inference plan:

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
it (and every latency percentile) without limit.  ``max_queue`` caps the
requests admitted but not yet started: a submit that finds the queue full
fails fast with :class:`ServerOverloaded`, *before* paying the encode, and
the shed is counted in :class:`~repro.serve.telemetry.ServeTelemetry`.  The
check that counts runs again under the server lock as the request is
queued, so racing submitters never overfill the queue.  The dispatcher
cuts a batch only when a worker is free to start it, so a request waiting
for a worker is still in the admission queue: requests admitted but not
yet started never exceed ``max_queue``.  Admission decisions (admitted
count, shed count, queue-depth high-water mark) are surfaced through the
server's telemetry alongside latency and throughput.

Deadlines
---------
A request may carry a ``deadline_ms`` latency budget.  It steers batching
*and* is a real timeout: the dispatcher cuts a batch early when any waiting
request is within :data:`DEADLINE_MARGIN_MS` of its deadline, instead of
waiting out ``max_wait_ms`` for more company (FIFO dispatch means the
urgent request is always in the cut batch).  A request whose deadline has
*already passed* is never dispatched late — its future fails with
:class:`RequestTimedOut` at the cutoff (batch cut or batch start, whichever
notices first), counted in telemetry.  Dispatch order is FIFO whatever the
deadlines, so the deterministic-batching bit-identity contract holds.

A request that times out in the queue is failed on the dispatcher thread,
so its future's done-callbacks run there: a callback that blocks delays
the next batch cut for as long as it blocks.  A request that times out at
batch start, like every served or failed one, resolves on the worker that
took its batch.

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
a batch.  No future resolves under the server lock, so a done-callback may
submit or call :meth:`InferenceServer.stop`.

A client may ``cancel()`` a returned future until its request is cut into
a batch.  The server claims every future before resolving it
(``Future.set_running_or_notify_cancel``): the dispatcher claims each
request as it cuts a batch and drops the cancelled ones, and a request
that times out or is abandoned by ``stop(drain=False)`` while still queued
is claimed first too.  A cancelled request stays counted as admitted but is
never served, failed, shed or timed out.  It frees its queue slot for
admission: before a full queue sheds an arrival, the cancelled requests in
it are claimed and dropped, and the dispatcher drops them before it
decides whether a batch is full or due, so a cancelled request counts
neither toward ``max_batch`` nor toward the ``max_wait_ms`` clock.  A
cancel itself wakes nobody: the dispatcher stops waiting for the request
at its next wake-up (a submit, a finished batch, a timer or :meth:`stop`).
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
    """Raised by a submit that finds the ``max_queue`` admission queue full."""


class RequestTimedOut(RuntimeError):
    """Raised on a request's future when its ``deadline_ms`` expires before service."""


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
    """

    prediction: int
    counts: np.ndarray
    latency_ms: float
    queue_ms: float
    batch_size: int
    input_density: float
    sequence: int = 0


@dataclass
class _Pending:
    spikes: np.ndarray  # (T, 1, ...)
    future: "Future[ServeResult]"
    submitted: float  # when submit() was called (latency measurement)
    queued: float  # when the request entered the queue (batching deadline)
    input_density: float
    sequence: int  # admission order (see ServeResult.sequence)
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
        (``None`` = unbounded).  A submit that finds the queue full raises
        :class:`ServerOverloaded` before the encode.  A request waiting for
        a free worker counts against the cap; one being executed does not.
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
        self.pool = model if isinstance(model, CompiledNetworkPool) else CompiledNetworkPool(model, max_idle=workers)
        self.encoder = encoder
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1000.0
        self.workers = int(workers)
        # A hot reload swaps weights in place only between same-spec
        # models, so the served input shape never changes under a server.
        self._input_shape: Optional[Tuple[int, ...]] = getattr(self.pool.model, "input_shape", None)
        self.max_queue = int(max_queue) if max_queue is not None else None
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
    def _admit_locked(self) -> None:
        """Shed the arrival if ``max_queue`` requests already wait (cv held).

        A full queue first drops the requests their clients cancelled, so
        a cancelled request never costs an arrival its slot.
        """
        if self.max_queue is None:
            return
        if len(self._queue) >= self.max_queue:
            self._drop_cancelled_locked()
        if len(self._queue) >= self.max_queue:
            self.telemetry.record_shed()
            raise ServerOverloaded(f"queue full ({self.max_queue} waiting requests); request shed")

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
        self._queue = kept

    def submit(
        self,
        image: np.ndarray,
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
        With ``max_queue`` set, a full queue raises :class:`ServerOverloaded`
        before the encode is paid, and again if the queue filled up while
        this request was being encoded.

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
        if self.max_queue is not None:
            # Fail fast before the (dominant) encode cost; the admission
            # under the lock below is the one that holds against races.
            with self._cv:
                self._admit_locked()
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
            self._admit_locked()
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
                    deadline=submitted + deadline_ms / 1000.0 if deadline_ms is not None else None,
                    trace_id=trace_id,
                    root_span=root_span,
                )
            )
            queue_depth = len(self._queue)
            self.telemetry.record_admission(queue_depth)
            self._cv.notify_all()
        if trace_id:
            # Admission covers everything from submit to queue entry:
            # the shed fast path, encode, and admission control under the
            # lock.
            self.tracer.record(
                "serve.admission",
                trace_id,
                root_span,
                submitted,
                queued,
                queue_depth=queue_depth,
            )
        return future

    def submit_many(
        self, images: Sequence[np.ndarray], deadline_ms: Optional[float] = None
    ) -> List["Future[ServeResult]"]:
        """Submit a sequence of independent single-image requests (FIFO order)."""
        return [self.submit(image, deadline_ms=deadline_ms) for image in images]

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
        self, pending: _Pending, error: BaseException, count: Optional[Callable[[], None]] = None
    ) -> None:
        """Fail a request just taken off the queue, unless its client cancelled it.

        The one way a queued request is resolved, always off the server
        lock: the future is claimed first, so a cancelled one is dropped
        silently.  ``count`` (a telemetry recorder) runs before the future
        resolves, and only for a request that is failed.
        """
        if not pending.future.set_running_or_notify_cancel():
            return
        if count is not None:
            count()
        pending.future.set_exception(error)

    def _dispatch_next(self) -> Optional[List[_Pending]]:
        """Hand the next due batch to the workers, or take expired requests off the queue.

        Blocks until a batch is due and a worker is free to start it, or a
        queued request's deadline has passed.  Returns the expired requests
        (none once a batch was handed over) for the caller to time out
        after the lock is released, or ``None`` at shutdown: once the queue
        is drained, or at once after ``stop(drain=False)``, which fails
        what is still queued.

        A due batch stays uncut while every worker is busy, so its requests
        remain in the admission queue (bounded by ``max_queue``) and are
        still timed out when their deadline passes.  Cancelled requests are
        dropped before the batch is judged full or due, and cutting claims
        each request's future, so a request cancelled in between is dropped
        too and the batch fills up from the queue behind it.
        """
        with self._cv:
            while True:
                if self._closed and not self._draining:
                    return None
                self._drop_cancelled_locked()
                now = time.perf_counter()
                expired = [p for p in self._queue if p.deadline is not None and now >= p.deadline]
                if expired:
                    self._queue = deque(p for p in self._queue if p.deadline is None or now < p.deadline)
                    return expired
                if not self._queue:
                    if self._closed:
                        return None
                    # Both wake sources (submit, stop) notify under this
                    # condition, so an idle dispatcher blocks without polling.
                    self._cv.wait()
                    continue
                full = len(self._queue) >= self.max_batch or self._closed
                wait_cutoff, cutoff = self._cutoff_locked()
                if not full and cutoff > now:
                    self._cv.wait(timeout=cutoff - now)
                    continue
                if self._in_flight < self.workers:
                    batch: List[_Pending] = []
                    while self._queue and len(batch) < self.max_batch:
                        pending = self._queue.popleft()
                        if pending.future.set_running_or_notify_cancel():
                            batch.append(pending)
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
            self._ready.append(batch)
            self._in_flight += 1
            self._cv.notify_all()
            return []

    def _dispatch_loop(self) -> None:
        try:
            while True:
                expired = self._dispatch_next()
                if expired is None:
                    return
                now = time.perf_counter()
                for pending in expired:
                    self._fail_queued(
                        pending,
                        RequestTimedOut(
                            f"deadline expired {(now - pending.deadline) * 1000.0:.1f} ms "
                            "before the batch was cut"
                        ),
                        count=self.telemetry.record_timeout,
                    )
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
                self.telemetry.record_timeout()
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
                )
                for pending in batch
            ]
            # Telemetry is recorded BEFORE the futures resolve: if it raises
            # (e.g. a mis-shared ServeTelemetry), the failure reaches the
            # requesters through the except block instead of vanishing.
            self.telemetry.record_batch(stats, result.activity, started=started, done=done)
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
                    self.tracer.record("serve.kernel", trace_id, root, acquired, done, batch_size=size)
                    self.tracer.record("serve.reply", trace_id, root, done, reply_done)
        except BaseException as exc:  # noqa: BLE001 - must reach the futures
            # Batch-level failure isolation: only THIS batch's futures see
            # the error; the worker survives and the server keeps serving.
            self.telemetry.record_failure(f"{type(exc).__name__}: {exc}", count=len(batch))
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
