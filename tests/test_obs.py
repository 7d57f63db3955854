"""Observability layer: tracing, metrics registry, profiling, zero-cost-off guards."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import make_dataset, make_encoder, make_model
from repro.exec import ProgressEvent, run_experiments
from repro.obs import (
    MetricsRegistry,
    NOOP_SPAN,
    RuntimeProfiler,
    Tracer,
    default_tracer,
    profile_plan,
)
from repro.obs.cli import main as obs_main, make_server
from repro.runtime import compile_network
from repro.serve import (
    InferenceServer,
    ModelRegistry,
    ServeGateway,
    ServeTelemetry,
)


@pytest.fixture
def micro_config(micro_scale) -> ExperimentConfig:
    return ExperimentConfig(scale=micro_scale, seed=0)


@pytest.fixture
def images(micro_config):
    _, test_loader = make_dataset(micro_config)
    collected = []
    for batch_images, _ in test_loader:
        collected.extend(list(batch_images))
    return collected


@pytest.fixture
def traced():
    """Enable the process default tracer for one test, restoring state after."""
    tracer = default_tracer()
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    yield tracer
    tracer.reset()
    if not was_enabled:
        tracer.disable()


@pytest.fixture
def untraced():
    """Force the default tracer off for one test (even under REPRO_OBS_TRACE=1)."""
    tracer = default_tracer()
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.disable()
    yield tracer
    tracer.reset()
    if was_enabled:
        tracer.enable()


# --------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_test_total", "help text")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        g = registry.gauge("repro_test_gauge", "help")
        g.set(4.0)
        g.set_max(2.0)
        assert g.value == 4.0
        g.set_max(9.0)
        assert g.value == 9.0

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_same_total")
        b = registry.counter("repro_same_total")
        assert a is b
        lane0 = registry.counter("repro_lane_total", labels={"lane": "0"})
        lane1 = registry.counter("repro_lane_total", labels={"lane": "1"})
        assert lane0 is not lane1
        with pytest.raises(ValueError):
            registry.gauge("repro_same_total")  # name already bound to a Counter

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("repro_lat_ms", buckets=(1.0, 5.0, 10.0), help="help")
        for v in (0.5, 0.9, 3.0, 7.0, 100.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(111.4)
        assert h.bucket_counts() == [2, 1, 1, 1]  # <=1, <=5, <=10, +Inf
        assert h.cumulative_counts() == [2, 3, 4, 5]

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry(labels={"model": "m"})
        registry.counter("repro_req_total", "Requests.").inc(2)
        registry.histogram("repro_lat_ms", buckets=(1.0,), help="Latency.").observe(0.5)
        text = registry.expose_text()
        assert "# HELP repro_req_total Requests." in text
        assert "# TYPE repro_req_total counter" in text
        assert 'repro_req_total{model="m"} 2' in text
        assert 'le="1"' in text
        assert 'le="+Inf"' in text
        assert "repro_lat_ms_count" in text
        assert "repro_lat_ms_sum" in text

    def test_attach_aggregates_children(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(labels={"model": "a"})
        child.counter("repro_child_total").inc(7)
        parent.attach("serve/a", child)
        assert 'repro_child_total{model="a"} 7' in parent.expose_text()
        parent.detach("serve/a")
        assert "repro_child_total" not in parent.expose_text()

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total").inc()
        registry.histogram("repro_h", buckets=(1.0,)).observe(2.0)
        snap = registry.snapshot()
        json.dumps(snap)  # must not raise
        assert "repro_a_total" in snap


# --------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------- #
class TestTracer:
    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(enabled=False)
        assert tracer.mint_trace() == 0
        assert tracer.begin("x", 1) is NOOP_SPAN
        assert tracer.record("x", 1, 0, 0.0, 1.0) == 0
        assert tracer.span_count == 0

    def test_span_tree_and_export(self):
        tracer = Tracer(enabled=True)
        trace_id = tracer.mint_trace()
        with tracer.begin("root", trace_id, depth=0) as root:
            child = tracer.begin("child", trace_id, root.span_id)
            child.end(status="ok")
        spans = tracer.spans(trace_id)
        assert [s.name for s in spans] == ["child", "root"]
        child_rec, root_rec = spans
        assert child_rec.parent_id == root_rec.span_id
        assert root_rec.parent_id == 0
        assert child_rec.attrs["status"] == "ok"
        assert root_rec.end >= child_rec.end

    def test_chrome_export_structure(self, tmp_path):
        tracer = Tracer(enabled=True)
        trace_id = tracer.mint_trace()
        tracer.begin("unit", trace_id).end()
        out = tmp_path / "trace.json"
        doc = tracer.export_chrome(str(out))
        loaded = json.loads(out.read_text())
        assert loaded == doc
        assert loaded["displayTimeUnit"] == "ms"
        (event,) = loaded["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "unit"
        assert event["tid"] == trace_id
        assert event["dur"] >= 0
        assert "span_id" in event["args"]

    def test_span_records_error_attr_on_exception(self):
        tracer = Tracer(enabled=True)
        trace_id = tracer.mint_trace()
        with pytest.raises(RuntimeError):
            with tracer.begin("boom", trace_id):
                raise RuntimeError("nope")
        (span,) = tracer.spans(trace_id)
        assert "error" in span.attrs

    def test_max_spans_bounds_memory(self):
        tracer = Tracer(enabled=True, max_spans=4)
        trace_id = tracer.mint_trace()
        for i in range(10):
            tracer.begin(f"s{i}", trace_id).end()
        assert tracer.span_count == 10  # total ever recorded...
        assert len(tracer.spans()) == 4  # ...but the buffer keeps the newest 4


# --------------------------------------------------------------------- #
# End-to-end: one gateway request produces a connected span tree
# --------------------------------------------------------------------- #
REQUEST_SPAN_NAMES = {
    "serve.admission",
    "serve.queue",
    "serve.batch",
    "serve.checkout",
    "serve.kernel",
    "serve.reply",
}


class TestServeTracing:
    def test_gateway_request_produces_connected_span_tree(
        self, tmp_path, micro_config, images, traced
    ):
        registry = ModelRegistry(tmp_path)
        model = make_model(micro_config)
        model.eval()
        registry.save("m", model, make_encoder(micro_config), config=micro_config)
        with ServeGateway(registry, max_batch=2, max_wait_ms=1.0) as gateway:
            result = gateway.submit("m", images[0]).result(timeout=30)
        assert result.counts is not None

        roots = [s for s in traced.spans() if s.name == "gateway.submit"]
        assert len(roots) == 1
        root = roots[0]
        assert root.parent_id == 0
        assert root.attrs["model"] == "m"
        children = [
            s for s in traced.spans(root.trace_id) if s.name in REQUEST_SPAN_NAMES
        ]
        assert {s.name for s in children} == REQUEST_SPAN_NAMES
        for span in children:
            assert span.trace_id == root.trace_id
            assert span.parent_id == root.span_id
            assert span.end >= span.start

        # The whole tree round-trips through the Chrome exporter.
        doc = traced.export_chrome()
        names = {e["name"] for e in doc["traceEvents"] if e["tid"] == root.trace_id}
        assert REQUEST_SPAN_NAMES | {"gateway.submit"} <= names

    def test_traced_output_bit_identical_to_untraced(self, micro_config, images):
        def burst(enable: bool) -> np.ndarray:
            tracer = default_tracer()
            was = tracer.enabled
            tracer.reset()
            tracer.enable() if enable else tracer.disable()
            try:
                model = make_model(micro_config)
                model.eval()
                encoder = make_encoder(micro_config)
                server = InferenceServer(model, encoder, max_batch=3, max_wait_ms=50.0)
                futures = server.submit_many(images)  # queued pre-start: deterministic chunks
                server.start()
                counts = np.stack([f.result(timeout=30).counts for f in futures])
                server.stop()
                return counts
            finally:
                tracer.reset()
                tracer.enable() if was else tracer.disable()

        np.testing.assert_array_equal(burst(False), burst(True))

    def test_disabled_tracing_adds_no_instruments_or_spans(
        self, micro_config, images, untraced
    ):
        """Overhead guard: the off path allocates nothing per request.

        Asserted on counts (instruments created, spans retained), not wall
        time — instrument materialisation is the only per-request allocation
        the observability layer could add, and it must happen at most once.
        """
        model = make_model(micro_config)
        model.eval()
        telemetry = ServeTelemetry(model="guard")
        with InferenceServer(
            model, make_encoder(micro_config), max_batch=2, max_wait_ms=1.0, telemetry=telemetry
        ) as server:
            server.submit(images[0]).result(timeout=30)  # warmup materialises lazy instruments
            instruments_after_warmup = sum(len(v) for v in telemetry.metrics.snapshot().values())
            for image in images[1:6]:
                server.submit(image).result(timeout=30)
            instruments_after_load = sum(len(v) for v in telemetry.metrics.snapshot().values())
        assert instruments_after_load == instruments_after_warmup
        assert untraced.span_count == 0
        assert untraced.begin("x", 1) is NOOP_SPAN


# --------------------------------------------------------------------- #
# Exec progress events and sweep spans
# --------------------------------------------------------------------- #
class TestExecObservability:
    def test_progress_event_timestamp_backward_compatible(self):
        event = ProgressEvent(kind="start", index=0, total=1, label="cell")
        assert event.timestamp == 0.0  # hand-built events need no clock

    def test_start_events_carry_timestamp_and_label(self, micro_scale):
        events = []
        configs = [ExperimentConfig(scale=micro_scale, seed=0)]
        run_experiments(configs, workers=1, progress=events.append)
        starts = [e for e in events if e.kind == "start"]
        assert len(starts) == 1
        assert starts[0].label == configs[0].describe()
        assert starts[0].timestamp > 0.0
        done = [e for e in events if e.kind == "done"]
        assert done and done[0].timestamp >= starts[0].timestamp

    def test_sweep_emits_cell_spans_when_traced(self, micro_scale, traced):
        configs = [ExperimentConfig(scale=micro_scale, seed=0)]
        run_experiments(configs, workers=1)
        sweeps = [s for s in traced.spans() if s.name == "exec.sweep"]
        assert len(sweeps) == 1
        cells = [s for s in traced.spans(sweeps[0].trace_id) if s.name == "exec.cell"]
        assert len(cells) == 1
        assert cells[0].parent_id == sweeps[0].span_id
        assert cells[0].attrs["status"] == "done"


# --------------------------------------------------------------------- #
# Profiling hooks
# --------------------------------------------------------------------- #
class TestProfiling:
    def test_runtime_profiler_accumulates(self):
        profiler = RuntimeProfiler()
        profiler.start_run(num_steps=2, batch=4, precision="float")
        profiler.record_kernel("conv1", 0.25)
        profiler.record_kernel("conv1", 0.75)
        assert profiler.kernel_seconds() == {"conv1": 1.0}
        assert profiler.total_seconds == pytest.approx(1.0)

    def test_profile_plan_reconciles_against_hardware_model(self, micro_config):
        model = make_model(micro_config)
        model.eval()
        encoder = make_encoder(micro_config)
        _, test_loader = make_dataset(micro_config)
        batch_images, _ = next(iter(test_loader))
        plan = compile_network(model)
        result, report = profile_plan(plan, encoder(batch_images))
        assert result.counts.shape[0] == batch_images.shape[0]
        assert report.num_steps == micro_config.scale.num_steps
        assert report.measured_latency_s > 0.0
        assert report.modeled_latency_s > 0.0
        assert report.layers  # per-layer reconciliation rows exist
        for row in report.layers:
            assert row["modeled_s"] >= 0.0
        payload = report.to_json()
        json.dumps(payload)
        assert "modeled_latency_s" in payload
        assert report.bottleneck_layer
        assert "layer" in report.format()


# --------------------------------------------------------------------- #
# CLI and HTTP exposition
# --------------------------------------------------------------------- #
class TestCli:
    def test_dump_text_and_json(self, capsys):
        assert obs_main(["dump"]) == 0
        out = capsys.readouterr().out
        assert "# HELP" in out or out.strip() == ""
        assert obs_main(["dump", "--format", "json"]) == 0
        json.loads(capsys.readouterr().out)

    def test_http_metrics_and_healthz(self):
        registry = MetricsRegistry()
        registry.counter("repro_http_total", "HTTP test counter.").inc(3)
        server = make_server(port=0, registry=registry)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
                body = response.read().decode("utf-8")
                assert response.status == 200
                assert response.headers["Content-Type"].startswith("text/plain")
            assert "repro_http_total 3" in body
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as response:
                assert response.read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/nope", timeout=10)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
