"""Benchmark — serving layer: micro-batched vs serial, open-loop, overload.

Load-tests :mod:`repro.serve` end to end on freshly trained models:

1. **Serial baseline** — closed loop, one client, ``max_batch=1``: every
   request is encoded, dispatched and served alone.  This is the
   no-batching throughput floor.
2. **Micro-batched burst** — the same requests submitted concurrently and
   coalesced into ``max_batch`` chunks.  Includes the correctness gate:
   served spike counts must be bit-identical to
   :func:`repro.runtime.evaluate_with_runtime` over the same batches.
   The acceptance bar (full mode): **>= 3x** the serial baseline.
3. **Open loop** — Poisson arrivals at ~60% of the measured micro-batched
   capacity, the realistic regime where latency percentiles mean something:
   requests wait at most ``max_wait_ms`` for company, so p50/p99 reflect
   batching delay + service time rather than queue explosion.
4. **Gateway overload** (``test_serve_gateway_overload``) — two registered
   models behind one :class:`~repro.serve.ServeGateway` with ``max_queue``
   admission control, driven open-loop at **>= 2x** measured capacity.
   The queue-depth high-water mark must stay at or under ``max_queue``
   and (full mode) the admitted-request p99 must stay bounded by the
   worst-case drain time of one full queue — overload sheds load, it does
   not melt latency for the requests that were accepted.
5. **Fault storm** (``test_serve_fault_storm``) — closed-loop traffic
   against a gateway whose compiled-plan pool is a stub that fails or
   stalls chosen checkouts (a run of three kernel faults, a slow batch),
   plus a torn republish mid-run.  Acceptance: exactly the faulted
   requests fail and every other one is served bit-identically, the torn
   republish degrades (not crashes) and the next good publish is picked
   up, and served-request p99 stays bounded.
6. **Observability overhead** (``test_serve_observability``) — the same
   pre-queued burst served with request tracing off and on
   (``repro.obs``), bit-identity asserted between the legs.  Acceptance
   (full mode): traced p95 latency within **5%** of untraced.

Every leg reports through :class:`repro.serve.ServeTelemetry`; the
measured achieved fps is recorded next to the accelerator model's
prediction for the *same measured spike traffic* (see
``format_measured_vs_modeled``).  Results go to
``benchmarks/results/measured.json`` (headline) and
``benchmarks/results/BENCH_serve.json`` (one section per scenario —
``microbatch``, ``gateway_overload``, ``faults`` and ``observability``;
see ``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np

import repro.serve.gateway as gateway_module
from .conftest import run_once, update_bench_json
from repro.core.config import ExperimentConfig, SCALE_PRESETS
from repro.core.experiment import make_dataset
from repro.hardware.report import format_measured_vs_modeled
from repro.runtime import CompiledNetworkPool, compile_network
from repro.serve import (
    InferenceServer,
    ModelRegistry,
    ServeGateway,
    ServerOverloaded,
    format_gateway_summary,
    format_telemetry,
    train_and_register,
)
from repro.utils import atomic_write

#: Micro-batch size for the batched legs (the serial leg always uses 1).
MAX_BATCH = 32

#: Open-loop arrival rate as a fraction of measured micro-batched capacity.
OPEN_LOOP_LOAD = 0.6

#: Admission-control queue cap for the gateway overload scenario.
GATEWAY_MAX_QUEUE = 16

#: Overload arrival rate as a multiple of measured gateway capacity (>= 2x).
OVERLOAD_FACTOR = 2.2


def _update_bench_json(section: str, payload: dict) -> None:
    """Merge one scenario's metrics into ``BENCH_serve.json`` (keyed by section)."""
    update_bench_json("BENCH_serve.json", section, payload)


def _collect_images(config: ExperimentConfig, count: int):
    _, test_loader = make_dataset(config)
    images = []
    while len(images) < count:
        for batch_images, _ in test_loader:
            images.extend(list(batch_images))
            if len(images) >= count:
                break
    return images[:count]


def _run_serial(entry, images) -> float:
    """Closed-loop single client, batch size forced to 1; returns seconds."""
    with InferenceServer(entry.model, entry.encoder, max_batch=1, max_wait_ms=0.0) as server:
        start = time.perf_counter()
        for image in images:
            server.submit(image).result(timeout=120)
        return time.perf_counter() - start


def _run_burst(entry, images, workers: int):
    """All requests pre-queued, drained in deterministic max_batch chunks.

    Returns ``(seconds, served_counts, server)`` — counts in submission
    order for the correctness gate.
    """
    server = InferenceServer(
        entry.model, entry.encoder, max_batch=MAX_BATCH, max_wait_ms=50.0, workers=workers
    )
    # The timer starts BEFORE submission: submit() encodes synchronously,
    # and the serial baseline pays that same per-request encoding cost
    # inside its timed loop, so the measured speedup is batching alone.
    start = time.perf_counter()
    futures = server.submit_many(images)
    server.start()
    results = [future.result(timeout=300) for future in futures]
    seconds = time.perf_counter() - start
    server.stop()
    return seconds, np.stack([result.counts for result in results]), server


def _run_open_loop(entry, images, rate_fps: float):
    """Poisson arrivals at ``rate_fps``; returns the server (for telemetry)."""
    rng = np.random.default_rng(42)
    server = InferenceServer(
        entry.model, entry.encoder, max_batch=MAX_BATCH, max_wait_ms=5.0, workers=1
    )
    server.start()
    futures = []
    next_arrival = time.perf_counter()
    for image in images:
        next_arrival += rng.exponential(1.0 / rate_fps)
        delay = next_arrival - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        futures.append(server.submit(image))
    for future in futures:
        future.result(timeout=300)
    server.stop()
    return server


def _reference_counts(entry, images):
    """evaluate_with_runtime-equivalent counts over the same FIFO chunks.

    Mirrors the scheduler exactly — a faithfully rebuilt encoder (fresh
    stream, same kwargs) applied per request in submission order, requests
    concatenated into ``MAX_BATCH`` chunks — so the gate holds for
    stochastic encoders too, not just the deterministic ones.
    """
    from repro.training.checkpoint import build_encoder, encoder_spec

    plan = compile_network(entry.model)
    reference_encoder = build_encoder(encoder_spec(entry.encoder))
    encoded = [reference_encoder(image[None]) for image in images]
    chunks = []
    for start in range(0, len(images), MAX_BATCH):
        spikes = np.concatenate(encoded[start : start + MAX_BATCH], axis=1)
        chunks.append(plan.run(spikes, record_activity=False).counts)
    return np.concatenate(chunks)


def test_serve_microbatch_throughput(benchmark, bench_smoke, repro_scale, results_store, tmp_path):
    if bench_smoke:
        scale = SCALE_PRESETS["smoke"]
        num_requests, workers = 64, 1
    else:
        scale = repro_scale
        num_requests, workers = 256, 2
    config = ExperimentConfig(scale=scale)

    registry = ModelRegistry(tmp_path / "registry")
    train_and_register(registry, "bench-model", config)
    # Each leg serves a freshly loaded checkpoint round-trip, so every
    # encoder starts from the beginning of its stream (a shared entry would
    # hand later legs a mid-stream stochastic encoder).
    entry = registry.load("bench-model")
    images = _collect_images(config, num_requests)

    def run():
        serial_s = _run_serial(registry.load("bench-model"), images)
        burst_s, served_counts, burst_server = _run_burst(registry.load("bench-model"), images, workers)
        burst_fps = num_requests / burst_s
        open_server = _run_open_loop(
            registry.load("bench-model"), images, rate_fps=burst_fps * OPEN_LOOP_LOAD
        )
        return serial_s, burst_s, served_counts, burst_server, open_server

    serial_s, burst_s, served_counts, burst_server, open_server = run_once(benchmark, run)

    # Correctness gate: micro-batched serving is bit-identical to the
    # offline runtime evaluation over the same batches.
    np.testing.assert_array_equal(served_counts, _reference_counts(entry, images))

    serial_fps = num_requests / serial_s
    burst_fps = num_requests / burst_s
    speedup = burst_fps / serial_fps

    burst_summary = burst_server.telemetry.summary()
    open_summary = open_server.telemetry.summary()
    comparison = open_server.telemetry.hardware_comparison(
        entry.model.layer_specs(), modeled=entry.modeled_hardware()
    )

    mode = "smoke" if bench_smoke else "full"
    print()
    print(
        f"[serve] {num_requests} requests at scale={scale.name}, "
        f"max_batch={MAX_BATCH}, workers={workers}, mode={mode}"
    )
    print(f"  serial (batch=1)   {serial_s:>8.2f}s   {serial_fps:>8.1f} req/s")
    print(f"  micro-batched      {burst_s:>8.2f}s   {burst_fps:>8.1f} req/s   ({speedup:.2f}x)")
    print(
        f"  open loop @{OPEN_LOOP_LOAD:.0%}     p50 {open_summary['p50_ms']:.2f} ms   "
        f"p99 {open_summary['p99_ms']:.2f} ms   mean batch {open_summary['mean_batch_size']:.1f}"
    )
    print(format_telemetry(open_summary, title="Open-loop telemetry"))
    print(format_measured_vs_modeled(comparison))

    metrics = {
        "requests": num_requests,
        "max_batch": MAX_BATCH,
        "workers": workers,
        "serial_seconds": serial_s,
        "serial_fps": serial_fps,
        "microbatch_seconds": burst_s,
        "microbatch_fps": burst_fps,
        "microbatch_speedup": speedup,
        "microbatch_p50_ms": burst_summary["p50_ms"],
        "microbatch_p99_ms": burst_summary["p99_ms"],
        "open_loop_load": OPEN_LOOP_LOAD,
        "open_loop_p50_ms": open_summary["p50_ms"],
        "open_loop_p95_ms": open_summary["p95_ms"],
        "open_loop_p99_ms": open_summary["p99_ms"],
        "open_loop_mean_batch": open_summary["mean_batch_size"],
        "measured_fps": comparison["measured_fps"],
        "modeled_fps": comparison["modeled_fps"],
        "measured_over_modeled": comparison["fps_ratio"],
        "modeled_latency_ms": comparison["modeled_latency_ms"],
    }
    results_store.add("serve", f"scale={scale.name}_{mode}", metrics)
    _update_bench_json(
        "microbatch", {"experiment": "serve", "mode": mode, "scale": scale.name, **metrics}
    )

    # Micro-batching must always win; the hard 3x acceptance bar is quoted
    # at bench scale (full mode), where per-request overhead does not hide
    # behind model compute noise on a loaded CI box.
    assert speedup > 1.0, f"micro-batching should beat serial, got {speedup:.2f}x"
    if not bench_smoke:
        assert speedup >= 3.0, f"expected >=3x micro-batched throughput, got {speedup:.2f}x"


def test_serve_gateway_overload(benchmark, bench_smoke, repro_scale, results_store, tmp_path):
    """Two-model gateway under open-loop overload with shed admission control.

    Capacity is measured first with a closed-loop burst alternating between
    both models; the overload leg then drives Poisson arrivals at
    ``OVERLOAD_FACTOR`` (>= 2x) of that capacity against a gateway whose
    per-model queues are capped at ``GATEWAY_MAX_QUEUE``.  Surplus arrivals
    shed with :class:`ServerOverloaded`; the acceptance criteria are that
    the queue-depth high-water mark never exceeds the cap and (full mode)
    that the admitted-request p99 stays under three worst-case drain times
    of one full queue — i.e. overload degrades *availability* (sheds), not
    the latency of admitted traffic.
    """
    if bench_smoke:
        scale = SCALE_PRESETS["smoke"]
        burst, arrivals = 32, 120
    else:
        scale = repro_scale
        burst, arrivals = 128, 480
    config_a = ExperimentConfig(scale=scale, label="gateway-a")
    config_b = ExperimentConfig(scale=scale, beta=0.5, threshold=1.5, label="gateway-b")

    registry = ModelRegistry(tmp_path / "registry")
    train_and_register(registry, "model-a", config_a)
    train_and_register(registry, "model-b", config_b)
    images = _collect_images(config_a, max(burst, 64))
    names = ("model-a", "model-b")

    def run():
        # Closed-loop capacity: saturate both per-model servers at once.
        with ServeGateway(registry, max_batch=MAX_BATCH, max_wait_ms=5.0) as warm:
            start = time.perf_counter()
            futures = [
                warm.submit(names[i % 2], images[i % len(images)]) for i in range(burst)
            ]
            for future in futures:
                future.result(timeout=300)
            capacity_fps = burst / (time.perf_counter() - start)

        # Open-loop overload: Poisson arrivals beyond capacity, queue capped.
        gateway = ServeGateway(
            registry, max_batch=MAX_BATCH, max_wait_ms=5.0, max_queue=GATEWAY_MAX_QUEUE
        )
        rng = np.random.default_rng(7)
        rate = capacity_fps * OVERLOAD_FACTOR
        admitted = []
        next_arrival = time.perf_counter()
        for i in range(arrivals):
            next_arrival += rng.exponential(1.0 / rate)
            delay = next_arrival - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                admitted.append(gateway.submit(names[i % 2], images[i % len(images)]))
            except ServerOverloaded:
                pass  # counted by the per-model telemetry
        for future in admitted:
            future.result(timeout=300)
        summary = gateway.summary()
        gateway.stop()
        return capacity_fps, len(admitted), summary

    capacity_fps, admitted_count, summary = run_once(benchmark, run)
    totals = summary["totals"]
    shed_count = int(totals["shed"])
    high_water = int(totals["queue_high_water"])
    p99_by_model = {
        name: per_model["p99_ms"] for name, per_model in summary["models"].items()
    }
    worst_p99_ms = max(p99_by_model.values())
    # Worst case for an admitted request: a full per-model queue ahead of it,
    # drained at that model's share of measured capacity, with 3x slack for
    # scheduling noise on a loaded box.
    p99_bound_ms = 3000.0 * (GATEWAY_MAX_QUEUE + MAX_BATCH) / (capacity_fps / len(names))

    mode = "smoke" if bench_smoke else "full"
    print()
    print(
        f"[gateway] {arrivals} arrivals at {OVERLOAD_FACTOR:.1f}x capacity "
        f"({capacity_fps:.1f} req/s), max_queue={GATEWAY_MAX_QUEUE}, mode={mode}"
    )
    print(
        f"  admitted {admitted_count}   shed {shed_count}   "
        f"queue high-water {high_water}   p99 {worst_p99_ms:.1f} ms (bound {p99_bound_ms:.1f} ms)"
    )
    print(format_gateway_summary(summary))

    metrics = {
        "arrivals": arrivals,
        "overload_factor": OVERLOAD_FACTOR,
        "capacity_fps": capacity_fps,
        "max_queue": GATEWAY_MAX_QUEUE,
        "admitted": admitted_count,
        "shed": shed_count,
        "queue_high_water": high_water,
        "admitted_p99_ms": worst_p99_ms,
        "admitted_p99_bound_ms": p99_bound_ms,
        "per_model": summary["models"],
    }
    results_store.add("serve_gateway", f"scale={scale.name}_{mode}", metrics)
    _update_bench_json(
        "gateway_overload",
        {"experiment": "serve_gateway", "mode": mode, "scale": scale.name, **metrics},
    )

    # The cap is the contract: open-loop overload must never grow a queue
    # past it, in either mode.
    assert high_water <= GATEWAY_MAX_QUEUE, (
        f"queue depth {high_water} exceeded the configured cap {GATEWAY_MAX_QUEUE}"
    )
    assert admitted_count + shed_count == arrivals
    assert totals["admitted"] == admitted_count
    if not bench_smoke:
        assert shed_count > 0, "2x overload should shed at this queue cap"
        assert worst_p99_ms <= p99_bound_ms, (
            f"admitted p99 {worst_p99_ms:.1f} ms blew the bound {p99_bound_ms:.1f} ms"
        )


#: Deterministic storm schedule, keyed by plan checkout (checkout == request
#: in this leg: the storm drives the gateway closed-loop at ``max_batch=1``).
STORM_KERNEL_FAULTS = frozenset({3, 4, 5})  # three failures in a row, then service resumes
STORM_SLOW_BATCHES = frozenset({12})
STORM_SLOW_MS = 5.0


class KernelFault(RuntimeError):
    """What a :class:`StormPool` checkout raises in place of running a batch."""


class StormPool(CompiledNetworkPool):
    """A compiled-plan pool that fails or stalls the storm's checkouts.

    Checkouts are numbered in order: one in ``STORM_KERNEL_FAULTS`` raises
    :class:`KernelFault`, one in ``STORM_SLOW_BATCHES`` first sleeps
    ``STORM_SLOW_MS``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checkouts = 0
        self._count_lock = threading.Lock()

    @contextmanager
    def acquire(self):
        with self._count_lock:
            index, self.checkouts = self.checkouts, self.checkouts + 1
        if index in STORM_SLOW_BATCHES:
            time.sleep(STORM_SLOW_MS / 1000.0)
        if index in STORM_KERNEL_FAULTS:
            raise KernelFault(f"kernel fault at checkout {index}")
        with super().acquire() as plan:
            yield plan


def test_serve_fault_storm(
    benchmark, bench_smoke, repro_scale, results_store, tmp_path, monkeypatch
):
    """Availability under kernel faults: the storm serves everything it can.

    One gateway serves through :class:`StormPool`, which fails a run of
    three checkouts and stalls one, while a torn republish lands mid-run
    followed by a good one.  Acceptance: exactly the faulted requests fail,
    every other request is served **bit-identically** to the offline
    reference, the torn republish degrades to the old weights, and
    served-request p99 stays bounded by the clean closed-loop service time.
    """
    if bench_smoke:
        scale = SCALE_PRESETS["smoke"]
        arrivals = 48
    else:
        scale = repro_scale
        arrivals = 96
    config = ExperimentConfig(scale=scale, label="fault-storm")

    registry = ModelRegistry(tmp_path / "registry")
    train_and_register(registry, "storm", config)
    entry = registry.load("storm")
    images = _collect_images(config, arrivals)
    tear_at = arrivals // 2

    # Per-request offline reference (batch size 1 throughout the storm).
    from repro.training.checkpoint import build_encoder, encoder_spec

    plan = compile_network(entry.model)
    reference_encoder = build_encoder(encoder_spec(entry.encoder))
    reference = [
        plan.run(reference_encoder(image[None]), record_activity=False).counts[0]
        for image in images
    ]

    def run():
        # Clean closed-loop service time first: the storm's p99 bound.
        warm_n = min(32, arrivals)
        with ServeGateway(registry, max_batch=1, max_wait_ms=0.0) as warm:
            start = time.perf_counter()
            for future in [warm.submit("storm", images[i]) for i in range(warm_n)]:
                future.result(timeout=300)
            capacity_fps = warm_n / (time.perf_counter() - start)

        # The storm gateway compiles its plans through the faulty pool.
        monkeypatch.setattr(gateway_module, "CompiledNetworkPool", StormPool)
        gateway = ServeGateway(registry, max_batch=1, max_wait_ms=0.0)
        served = {}
        faulted = []
        degraded = recovered = False
        for i in range(arrivals):
            if i == tear_at:
                # Torn republish mid-storm, then a good one right after.
                path = registry.checkpoint_path("storm")
                atomic_write(path, path.read_bytes()[: path.stat().st_size // 2])
                degraded = gateway.refresh("storm") is False
                registry.save("storm", entry.model, entry.encoder, config=config)
                recovered = gateway.refresh("storm") is True
            try:
                served[i] = gateway.submit("storm", images[i]).result(timeout=300).counts
            except KernelFault:
                faulted.append(i)  # the kernel fault is this request's outcome
        summary = gateway.summary()
        gateway.stop()
        return capacity_fps, served, faulted, degraded, recovered, summary

    capacity_fps, served, faulted, degraded, recovered, summary = run_once(benchmark, run)

    totals = summary["totals"]
    p99_ms = summary["models"]["storm"]["p99_ms"]
    # A non-faulted request is one service time; give 10x for scheduling
    # noise plus the slow-batch delay.
    p99_bound_ms = 10_000.0 / capacity_fps + 10.0 * STORM_SLOW_MS

    mode = "smoke" if bench_smoke else "full"
    print()
    print(f"[faults] {arrivals} requests, {len(faulted)} faulted, mode={mode}")
    print(
        f"  reload failures {totals['reload_failures']:.0f}   "
        f"p99 {p99_ms:.2f} ms (bound {p99_bound_ms:.2f} ms)"
    )
    print(format_gateway_summary(summary))

    payload = {
        "experiment": "serve_faults",
        "mode": mode,
        "scale": scale.name,
        "arrivals": arrivals,
        "capacity_fps": capacity_fps,
        "served": len(served),
        "faulted": sorted(faulted),
        "reload_failures": totals["reload_failures"],
        "degraded_on_torn_republish": degraded,
        "recovered_on_good_republish": recovered,
        "p99_ms": p99_ms,
        "p99_bound_ms": p99_bound_ms,
    }
    results_store.add("serve_faults", f"scale={scale.name}_{mode}", payload)
    _update_bench_json("faults", payload)

    # Availability: exactly the stubbed kernel faults fail, nothing else.
    assert sorted(faulted) == sorted(STORM_KERNEL_FAULTS)
    assert len(served) == arrivals - len(faulted)
    # Correctness: everything served is bit-identical to the offline plan,
    # across the fault run, the slow batch and both republishes.
    for i, counts in served.items():
        np.testing.assert_array_equal(counts, reference[i])
    # Degrade-on-corrupt fired and recovered.
    assert totals["reload_failures"] == 1
    assert degraded and recovered
    assert totals["failed"] == len(faulted)
    if not bench_smoke:
        assert p99_ms <= p99_bound_ms, (
            f"storm p99 {p99_ms:.2f} ms blew the bound {p99_bound_ms:.2f} ms"
        )


#: Full-mode acceptance bar: traced p95 latency within 5% of untraced.
OBS_P95_OVERHEAD_BAR = 0.05


def test_serve_observability(benchmark, bench_smoke, repro_scale, results_store, tmp_path):
    """Request-tracing overhead: bit-identical output, near-free latency.

    The pre-queued deterministic burst from the micro-batch scenario is
    served twice — once with the default tracer disabled, once with it
    force-enabled — each leg on a freshly loaded checkpoint so encoder
    streams restart identically.  Served counts must match bit-for-bit
    between the legs (tracing records, it never computes), and the traced
    leg must actually produce spans.  In full mode each leg takes the best
    of three passes (pinning the comparison to the machine's floor rather
    than scheduler noise) and the p95 latency overhead must stay within
    ``OBS_P95_OVERHEAD_BAR``.
    """
    from repro.obs import default_tracer

    if bench_smoke:
        scale = SCALE_PRESETS["smoke"]
        num_requests, reps = 64, 1
    else:
        scale = repro_scale
        num_requests, reps = 256, 3
    config = ExperimentConfig(scale=scale, label="observability")

    registry = ModelRegistry(tmp_path / "registry")
    train_and_register(registry, "bench-model", config)
    images = _collect_images(config, num_requests)
    tracer = default_tracer()
    was_enabled = tracer.enabled

    def leg(enabled: bool):
        """One tracing mode: best-of-``reps`` burst passes; returns metrics."""
        tracer.reset()
        tracer.enable() if enabled else tracer.disable()
        best = None
        for _ in range(reps):
            seconds, counts, server = _run_burst(
                registry.load("bench-model"), images, workers=1
            )
            summary = server.telemetry.summary()
            if best is None or summary["p95_ms"] < best[0]["p95_ms"]:
                best = (summary, seconds, counts)
        return best

    def run():
        try:
            untraced = leg(False)
            traced = leg(True)
            spans = tracer.span_count
        finally:
            tracer.reset()
            tracer.enable() if was_enabled else tracer.disable()
        return untraced, traced, spans

    (untraced_summary, untraced_s, untraced_counts), (
        traced_summary,
        traced_s,
        traced_counts,
    ), span_count = run_once(benchmark, run)

    # Tracing must never change what is computed, only what is recorded.
    np.testing.assert_array_equal(traced_counts, untraced_counts)
    assert span_count > 0, "traced leg recorded no spans"

    p50_overhead = traced_summary["p50_ms"] / untraced_summary["p50_ms"] - 1.0
    p95_overhead = traced_summary["p95_ms"] / untraced_summary["p95_ms"] - 1.0
    throughput_overhead = traced_s / untraced_s - 1.0

    mode = "smoke" if bench_smoke else "full"
    print()
    print(
        f"[observability] {num_requests} requests x best-of-{reps}, "
        f"max_batch={MAX_BATCH}, mode={mode}"
    )
    print(
        f"  untraced   p50 {untraced_summary['p50_ms']:>8.2f} ms   "
        f"p95 {untraced_summary['p95_ms']:>8.2f} ms   {untraced_s:>6.2f}s"
    )
    print(
        f"  traced     p50 {traced_summary['p50_ms']:>8.2f} ms   "
        f"p95 {traced_summary['p95_ms']:>8.2f} ms   {traced_s:>6.2f}s   "
        f"({span_count} spans)"
    )
    print(
        f"  overhead   p50 {p50_overhead:+.1%}   p95 {p95_overhead:+.1%}   "
        f"wall {throughput_overhead:+.1%}"
    )

    payload = {
        "experiment": "serve_observability",
        "mode": mode,
        "scale": scale.name,
        "requests": num_requests,
        "repetitions": reps,
        "untraced_p50_ms": untraced_summary["p50_ms"],
        "untraced_p95_ms": untraced_summary["p95_ms"],
        "untraced_seconds": untraced_s,
        "traced_p50_ms": traced_summary["p50_ms"],
        "traced_p95_ms": traced_summary["p95_ms"],
        "traced_seconds": traced_s,
        "p50_overhead": p50_overhead,
        "p95_overhead": p95_overhead,
        "throughput_overhead": throughput_overhead,
        "span_count": span_count,
        "p95_overhead_bar": OBS_P95_OVERHEAD_BAR,
    }
    results_store.add("serve_observability", f"scale={scale.name}_{mode}", payload)
    _update_bench_json("observability", payload)

    if not bench_smoke:
        assert p95_overhead <= OBS_P95_OVERHEAD_BAR, (
            f"traced p95 overhead {p95_overhead:+.1%} exceeded the "
            f"{OBS_P95_OVERHEAD_BAR:.0%} bar"
        )

