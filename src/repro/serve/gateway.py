"""Multi-model serving gateway: named routing, hot-reload, admission control.

:class:`~repro.serve.scheduler.InferenceServer` serves exactly one model.
:class:`ServeGateway` completes the deployment story by putting a routing
front-end over a :class:`~repro.serve.registry.ModelRegistry`:

* **Named-model routing** — ``gateway.submit("digits-v2", image)`` lazily
  spins up one micro-batching :class:`InferenceServer` (with its own
  :class:`~repro.runtime.pool.CompiledNetworkPool` of fp32 plans and
  :class:`~repro.serve.telemetry.ServeTelemetry`) per active model and
  keeps it warm for subsequent requests.
* **Hot-reload on republish** — every submit checks the registry
  checkpoint's stat signature (one ``stat`` call, cheap next to the
  encode); when a newer version has been published the
  gateway reloads the checkpoint and swaps the weights *in place* through
  :meth:`~repro.runtime.pool.CompiledNetworkPool.update_weights`.  The
  swap waits only for in-flight batches (queued work is not dropped) and
  the compiled kernels reference the parameter arrays live, so the next
  batch serves the new weights — bit-identical to a fresh server loaded
  from the new checkpoint.  A republish that changes the *architecture*
  (or any non-weight hyperparameter, e.g. ``beta``) cannot be patched in
  place; the gateway then drains the old server and stands up a fresh one.
  A republished checkpoint that is torn, fails its content checksum or
  cannot be rebuilt (it names a neuron substrate or a surrogate this code
  lacks, say, or a quantization spec) does **not** interrupt serving: the old weights stay
  live, the failure is counted (``reload_failures``) with its cause in
  the model's telemetry, and the next good republish is picked up
  normally.  Every model a checkpoint can describe compiles at fp32
  (``tests/test_checkpoint.py``), so a republish that loads also serves.
* **Admission control** — ``max_queue`` is forwarded to every per-model
  server, which fails a submit that finds its queue full fast with
  :class:`~repro.serve.scheduler.ServerOverloaded`.  Shed counts, admitted
  counts and queue-depth high-water marks appear in each model's telemetry
  and in the gateway's aggregated :meth:`ServeGateway.summary`.

``benchmarks/bench_serve.py`` drives a two-model gateway through open-loop
overload; ``examples/serve_quickstart.py`` shows routing plus a live
republish.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.obs.trace import Tracer, default_tracer
from repro.runtime.pool import CompiledNetworkPool
from repro.serve.registry import ModelRegistry, RegisteredModel, RegistryError
from repro.serve.scheduler import InferenceServer, ServeResult, ServerClosed
from repro.serve.telemetry import ServeTelemetry
from repro.training.checkpoint import CheckpointError, load_checkpoint, model_spec

#: How many times :meth:`ServeGateway.submit` re-resolves a model whose
#: server was concurrently retired by a hot-reload before giving up with
#: :class:`ModelUnavailable`.
SUBMIT_RELOAD_RETRIES = 3


class ModelUnavailable(RuntimeError):
    """Raised when a model's server kept retiring under a submit.

    :meth:`ServeGateway.submit` raises it after
    :data:`SUBMIT_RELOAD_RETRIES` hot-reload races in a row.  The request
    was not admitted, and a later retry may succeed.
    """


@dataclass
class _ActiveModel:
    """One model the gateway is currently serving.

    ``reloads`` counts the republishes picked up; :meth:`ServeGateway.summary`
    reads it from here.
    """

    name: str
    entry: RegisteredModel
    server: InferenceServer
    signature: Optional[Tuple[int, int, int]]
    lock: threading.Lock = field(default_factory=threading.Lock)
    reloads: int = 0


class ServeGateway:
    """Routes named-model requests across registry entries, one server each.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.ModelRegistry` to serve from (or
        a path, which is wrapped in one).
    max_batch, max_wait_ms, workers:
        Forwarded to every per-model :class:`InferenceServer`.
    max_queue:
        Admission control applied to every per-model server queue — see
        :class:`InferenceServer`.  ``None`` disables it.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When enabled, every
        :meth:`submit` mints a trace and opens a ``gateway.submit`` root
        span whose ID rides into the per-model scheduler, so one request
        yields a connected span tree (admission → queue → batch →
        checkout → kernel → reply).  Defaults to the process tracer
        (disabled unless ``REPRO_OBS_TRACE=1``).

    A model's server, compiled-plan pool and telemetry are created on the
    first request that names it and reused afterwards; :meth:`stop` shuts
    every active server down (draining queued work by default).  Use as a
    context manager for automatic shutdown.
    """

    def __init__(
        self,
        registry: Union[ModelRegistry, str, "Any"],
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        workers: int = 1,
        max_queue: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.registry = registry if isinstance(registry, ModelRegistry) else ModelRegistry(registry)
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.workers = int(workers)
        self.max_queue = int(max_queue) if max_queue is not None else None
        self.tracer = tracer if tracer is not None else default_tracer()
        self._active: Dict[str, _ActiveModel] = {}
        self._creating: Dict[str, threading.Lock] = {}
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def stop(self, drain: bool = True) -> None:
        """Shut down every active per-model server (idempotent).

        ``drain=True`` (default) finishes queued work first; ``drain=False``
        fails queued requests with :class:`ServerClosed`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            active = list(self._active.values())
        for model in active:
            model.server.stop(drain=drain)

    def __enter__(self) -> "ServeGateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def submit(
        self, name: str, image: np.ndarray, deadline_ms: Optional[float] = None
    ) -> "Future[ServeResult]":
        """Route one raw image to the named model; returns its future.

        Activates the model on first use, then checks the registry for a
        republish and hot-reloads before enqueueing.  ``deadline_ms`` is
        forwarded to the per-model server (a deadline-driven batch cutoff
        and a real timeout — see :meth:`InferenceServer.submit`).  Raises
        ``ValueError`` for an image that does not fit the model's
        ``input_shape``, :class:`~repro.serve.registry.RegistryError` for
        unknown names, :class:`~repro.training.checkpoint.CheckpointError`
        for a first activation whose checkpoint cannot be loaded,
        :class:`~repro.serve.scheduler.ServerOverloaded` when the model's
        queue is full, :class:`ModelUnavailable`
        when repeated reload races exhaust the retry budget, and
        :class:`ServerClosed` after :meth:`stop`.
        """
        # Retries cover the benign race where a reload (architecture
        # change) retires the server between resolution and submission.
        # The budget is bounded: a pathological republish loop surfaces as
        # a typed ModelUnavailable instead of retrying (or asserting) forever.
        trace_id = 0
        root = None
        trace_ctx: Optional[Tuple[int, int]] = None
        if self.tracer.enabled:
            # The trace is minted HERE: the root span covers routing,
            # reload checks and the synchronous encode; the scheduler's
            # stage spans attach under it via trace_ctx.
            trace_id = self.tracer.mint_trace()
            root = self.tracer.begin("gateway.submit", trace_id, model=name)
            trace_ctx = (trace_id, root.span_id)
        try:
            last_exc: Optional[ServerClosed] = None
            for _ in range(SUBMIT_RELOAD_RETRIES):
                active = self._resolve(name)
                try:
                    return active.server.submit(image, deadline_ms=deadline_ms, trace_ctx=trace_ctx)
                except ServerClosed as exc:
                    if self._closed:
                        raise
                    last_exc = exc
            raise ModelUnavailable(
                f"model {name!r}: server kept retiring mid-submit "
                f"({SUBMIT_RELOAD_RETRIES} hot-reload races in a row)"
            ) from last_exc
        finally:
            if root is not None:
                root.end()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def active_models(self) -> List[str]:
        """Names with a live server (activated by at least one request)."""
        with self._lock:
            return sorted(self._active)

    def version(self, name: str) -> int:
        """The registry version the gateway is currently serving for ``name``."""
        with self._lock:
            active = self._active.get(name)
        if active is None:
            raise RegistryError(f"model {name!r} is not active on this gateway")
        return active.entry.version

    def telemetry(self, name: str) -> ServeTelemetry:
        """The named model's live :class:`ServeTelemetry`."""
        with self._lock:
            active = self._active.get(name)
        if active is None:
            raise RegistryError(f"model {name!r} is not active on this gateway")
        return active.server.telemetry

    def summary(self) -> Dict[str, Any]:
        """Aggregated gateway snapshot with per-model breakdowns.

        Returns ``{"models": {name: per-model summary}, "totals": {...}}``
        where each per-model summary is the server's
        :meth:`~repro.serve.telemetry.ServeTelemetry.summary` extended with
        ``version`` and ``reloads``, and totals roll up request, admission
        and shed counts (queue high-water is the max across models).
        """
        with self._lock:
            active = dict(self._active)
        models: Dict[str, Dict[str, float]] = {}
        totals = {
            "models": float(len(active)),
            "requests": 0.0,
            "admitted": 0.0,
            "shed": 0.0,
            "failed": 0.0,
            "timed_out": 0.0,
            "reloads": 0.0,
            "reload_failures": 0.0,
            "queue_high_water": 0.0,
        }
        for name, model in sorted(active.items()):
            per_model = model.server.telemetry.summary()
            per_model["version"] = float(model.entry.version)
            per_model["reloads"] = float(model.reloads)
            models[name] = per_model
            totals["requests"] += per_model["requests"]
            totals["admitted"] += per_model["admitted"]
            totals["shed"] += per_model["shed"]
            totals["failed"] += per_model.get("failed", 0.0)
            totals["timed_out"] += per_model.get("timed_out", 0.0)
            totals["reloads"] += float(model.reloads)
            totals["reload_failures"] += per_model["reload_failures"]
            totals["queue_high_water"] = max(totals["queue_high_water"], per_model["queue_high_water"])
        return {"models": models, "totals": totals}

    # ------------------------------------------------------------------ #
    # Activation and hot-reload
    # ------------------------------------------------------------------ #
    def _make_server(
        self, entry: RegisteredModel, telemetry: Optional[ServeTelemetry] = None
    ) -> InferenceServer:
        server = InferenceServer(
            CompiledNetworkPool(entry.model, max_idle=self.workers),
            entry.encoder,
            max_batch=self.max_batch,
            max_wait_ms=self.max_wait_ms,
            workers=self.workers,
            max_queue=self.max_queue,
            telemetry=telemetry,
            tracer=self.tracer,
        )
        return server.start()

    def _creation_lock(self, name: str) -> threading.Lock:
        with self._lock:
            return self._creating.setdefault(name, threading.Lock())

    def _resolve(self, name: str, reload: bool = True) -> _ActiveModel:
        with self._lock:
            if self._closed:
                raise ServerClosed("gateway has been stopped")
            active = self._active.get(name)
        if active is None:
            # Activation does disk + compile work; serialise it per name,
            # outside the gateway lock, so standing up one model never
            # stalls routing to the already-active others.
            with self._creation_lock(name):
                with self._lock:
                    active = self._active.get(name)
                if active is None:
                    # Signature BEFORE load: a publish racing the load is
                    # then detected (and picked up) by the next reload check.
                    signature = self.registry.checkpoint_signature(name)
                    entry = self.registry.load(name)
                    active = _ActiveModel(
                        name=name,
                        entry=entry,
                        server=self._make_server(entry),
                        signature=signature,
                    )
                    with self._lock:
                        if self._closed:
                            # stop() already swept _active; don't leak a
                            # server it will never see.
                            active.server.stop(drain=False)
                            raise ServerClosed("gateway has been stopped")
                        self._active[name] = active
                    return active
        if reload:
            self._maybe_reload(active)
        return active

    def refresh(self, name: str) -> bool:
        """Force a republish check for ``name`` now; returns whether it reloaded."""
        # Resolve WITHOUT the routine reload check: if it fired first, the
        # reload would land before ``reloads_before`` is read and a genuine
        # pickup would be misreported as False.
        active = self._resolve(name, reload=False)
        reloads_before = active.reloads
        self._maybe_reload(active)
        return active.reloads > reloads_before

    def _maybe_reload(self, active: _ActiveModel) -> None:
        """Pick up a republished checkpoint for one active model.

        Holds only the model's own lock, so a reload of one model never
        stalls routing to the others.
        """
        retired: Optional[InferenceServer] = None
        with active.lock:
            signature = self.registry.checkpoint_signature(active.name)
            if signature is None or signature == active.signature:
                return
            try:
                new_model, new_encoder, checkpoint_meta = load_checkpoint(
                    self.registry.checkpoint_path(active.name)
                )
            except CheckpointError as exc:
                # A torn/corrupt republish must not take the model down.
                self._reject_reload(active, signature, exc)
                return
            meta = checkpoint_meta.get("registry") if isinstance(checkpoint_meta, dict) else None
            # A checkpoint republished without an encoder keeps serving
            # through the current one (requests must still be encodable).
            encoder = new_encoder if new_encoder is not None else active.server.encoder
            pool = active.server.pool
            # In-place requires the compiled kernels to stay valid (same
            # model spec) AND the timestep count to stay put: requests
            # already encoded with the old num_steps share queues/batches
            # with new ones, and (T, 1, ...) trains of different T cannot
            # be coalesced.
            same_steps = getattr(encoder, "num_steps", None) == getattr(
                active.server.encoder, "num_steps", None
            )
            if same_steps and model_spec(new_model) == model_spec(pool.model):
                # Weight-only republish: swap in place between batches.
                # Queued requests are served with the new weights; nothing
                # is dropped (pool.update_weights quiesces in-flight
                # batches only).
                pool.update_weights(new_model.state_dict())
                active.server.encoder = encoder
                served_model = pool.model
            else:
                # Architecture / hyperparameter / num_steps change: weights
                # cannot be patched into the live kernels.  Stand up a
                # fresh server (inheriting the model's telemetry so request
                # counters never go backwards — but with spike activity
                # reset, since the old network's layer activity must not
                # blend into the new one's), route new traffic to it, and
                # drain the old one after the lock is released.
                entry = RegisteredModel(
                    name=active.name, model=new_model, encoder=encoder, meta=meta or {}
                )
                server = self._make_server(entry, telemetry=active.server.telemetry)
                retired = active.server
                retired.telemetry.reset_activity()
                active.server = server
                served_model = new_model
            active.entry = RegisteredModel(
                name=active.name,
                model=served_model,
                encoder=encoder,
                meta=meta or {},
            )
            active.signature = signature
            active.reloads += 1
        if retired is not None:
            retired.stop(drain=True)
        with self._lock:
            closed = self._closed
        if closed:
            # stop() raced this reload and swept _active before the swap
            # landed; don't leave a freshly started server running behind a
            # gateway the caller believes is shut down.
            active.server.stop(drain=True)

    @staticmethod
    def _reject_reload(active: _ActiveModel, signature: Tuple[int, int, int], exc: Exception) -> None:
        """Keep serving the previous weights and count ``exc`` as a failed reload.

        The bad file's signature is adopted, so its one stat change is not
        re-read on every submit; the next good republish changes the
        signature again and is picked up normally.
        """
        active.signature = signature
        active.server.telemetry.record_reload_failure(f"{type(exc).__name__}: {exc}")


def format_gateway_summary(summary: Dict[str, Any], title: str = "Gateway telemetry") -> str:
    """Render :meth:`ServeGateway.summary` as an aligned per-model table.

    A model's most recent failure is ``gateway.telemetry(name).last_error``.
    """
    totals = summary.get("totals", {})
    lines = [title, "-" * len(title)]
    header = (
        f"  {'model':<20} {'ver':>4} {'req':>7} {'shed':>6} {'fail':>6} {'t/o':>5} "
        f"{'hiwater':>8} {'p99 ms':>9} {'fps':>8}"
    )
    lines.append(header)
    for name, per_model in sorted(summary.get("models", {}).items()):
        lines.append(
            f"  {name:<20} {per_model.get('version', 0):>4.0f} "
            f"{per_model.get('requests', 0):>7.0f} {per_model.get('shed', 0):>6.0f} "
            f"{per_model.get('failed', 0):>6.0f} {per_model.get('timed_out', 0):>5.0f} "
            f"{per_model.get('queue_high_water', 0):>8.0f} "
            f"{per_model.get('p99_ms', float('nan')):>9.2f} "
            f"{per_model.get('achieved_fps', 0):>8.1f}"
        )
    lines.append(
        f"  totals: {totals.get('models', 0):.0f} models, "
        f"{totals.get('requests', 0):.0f} served, {totals.get('shed', 0):.0f} shed, "
        f"{totals.get('failed', 0):.0f} failed, {totals.get('timed_out', 0):.0f} timed out, "
        f"{totals.get('reloads', 0):.0f} reloads ({totals.get('reload_failures', 0):.0f} failed)"
    )
    return "\n".join(lines)
