"""Micro-batched, multi-model inference serving on top of the runtime.

The papers this repo reproduces argue that surrogate/beta/theta tuning pays
off *at deployment time* — on hardware serving real inference traffic.
This package is that deployment surface:

* :class:`~repro.serve.registry.ModelRegistry` persists trained models as
  single-file checkpoints (weights + architecture + encoder spec + the
  modeled hardware report + a monotonic publish ``version``) and hands
  them back as models.  :func:`~repro.serve.registry.train_and_register`
  bridges straight from an :class:`~repro.core.config.ExperimentConfig`
  to a servable entry.  Serving runs fp32 plans only: each served model
  gets a :class:`~repro.runtime.pool.CompiledNetworkPool` of reusable
  :func:`repro.runtime.compile_network` plans.  The int8/int16 plans are
  measured against the fp64 reference
  (:func:`repro.runtime.check_accuracy_delta`), not served.
* :class:`~repro.serve.scheduler.InferenceServer` accepts single raw
  images, runs the model's encoder per request, coalesces concurrent
  requests into micro-batches (``max_batch`` / ``max_wait_ms``), dispatches
  them across a worker pool, and demultiplexes per-request predictions —
  bit-identical to offline ``evaluate_with_runtime`` on the same batches.
  ``max_queue`` adds admission control: an arrival that finds the queue
  full is shed fail-fast (:class:`~repro.serve.scheduler.ServerOverloaded`),
  and ``deadline_ms`` budgets cut batches early and time out requests that
  would be served late.  Dispatch is FIFO.
* :class:`~repro.serve.gateway.ServeGateway` routes *named-model* requests
  across registry entries — one lazily started server per active model —
  and hot-reloads weights in place when a model is republished, without
  restarting or dropping queued work.
* :class:`~repro.serve.telemetry.ServeTelemetry` measures what the hardware
  models predict: p50/p95/p99 latency, achieved fps, per-layer spike
  activity, plus admission-control counters (admitted/shed, queue-depth
  high-water mark), and renders measured-vs-modeled comparisons via
  :func:`repro.hardware.report.format_measured_vs_modeled`.
* Failure handling stays where traffic reaches it: a model the runtime
  cannot lower fails when its server is built, a malformed image fails
  its own submit, a batch failure resolves only that batch's futures (no
  batch can kill a worker), a client's ``Future.cancel()`` drops only its
  own request, ``deadline_ms`` is a real timeout
  (:class:`~repro.serve.scheduler.RequestTimedOut`), and a corrupt
  republish degrades to the old weights.  ``tests/test_faults.py``
  induces batch failures through a stub compiled-plan pool and reloads
  through a torn checkpoint.

``benchmarks/bench_serve.py`` load-tests the stack in closed- and open-loop
arrival modes (including gateway overload beyond capacity);
``examples/serve_quickstart.py`` is the runnable tour.  Architecture notes:
``docs/ARCHITECTURE.md``.
"""

from repro.serve.gateway import ModelUnavailable, ServeGateway, format_gateway_summary
from repro.serve.registry import (
    ModelRegistry,
    RegisteredModel,
    RegistryError,
    train_and_register,
)
from repro.serve.scheduler import (
    InferenceServer,
    RequestTimedOut,
    ServeResult,
    ServerClosed,
    ServerOverloaded,
)
from repro.serve.telemetry import RequestStat, ServeTelemetry, format_telemetry

__all__ = [
    "ModelUnavailable",
    "ModelRegistry",
    "RegisteredModel",
    "RegistryError",
    "train_and_register",
    "InferenceServer",
    "ServeGateway",
    "ServeResult",
    "ServerClosed",
    "ServerOverloaded",
    "RequestTimedOut",
    "RequestStat",
    "ServeTelemetry",
    "format_telemetry",
    "format_gateway_summary",
]
