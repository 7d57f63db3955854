"""Serving layer: registry round-trips, micro-batching equivalence, telemetry."""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest
from conftest import StubPool

from repro.core.config import ExperimentConfig
from repro.core.experiment import make_dataset, make_encoder, make_model
from repro.core.network import SpikingMLP
from repro.encoding import DirectEncoder
from repro.hardware.report import format_measured_vs_modeled
from repro.runtime import CompiledNetworkPool, RuntimeCompileError, compile_network
from repro.serve import (
    InferenceServer,
    ModelRegistry,
    RegistryError,
    RequestTimedOut,
    ServeTelemetry,
    ServerClosed,
    ServerOverloaded,
    format_telemetry,
    train_and_register,
)
from repro.serve.telemetry import RequestStat


@pytest.fixture
def micro_config(micro_scale) -> ExperimentConfig:
    return ExperimentConfig(scale=micro_scale, seed=0)


@pytest.fixture
def untrained(micro_config):
    """Model + encoder + test images without the cost of training."""
    model = make_model(micro_config)
    model.eval()
    encoder = make_encoder(micro_config)
    _, test_loader = make_dataset(micro_config)
    images = []
    for batch_images, _ in test_loader:
        images.extend(list(batch_images))
    return model, encoder, images


def _unlowerable_mlp():
    """A SpikingMLP whose ``lif1`` overrides ``step``, which the runtime refuses to lower."""
    model = SpikingMLP(16, 8, 4)
    model.eval()
    base = type(model.lif1)
    model.lif1.__class__ = type("SteppingLIF", (base,), {"step": lambda self, x: base.step(self, x)})
    return model


def _await_cut(server):
    """Wait until the dispatcher has cut every queued request into a batch."""
    deadline = time.monotonic() + 10
    while server.queue_depth:
        assert time.monotonic() < deadline, "the queued batch was never cut"
        time.sleep(0.001)


def _stop_without_drain_while_held(server, pool):
    """Call ``stop(drain=False)`` while a held batch runs; release it once the stop took effect."""
    stopper = threading.Thread(target=server.stop, kwargs={"drain": False})
    stopper.start()
    deadline = time.monotonic() + 10
    while not server._closed:
        assert time.monotonic() < deadline, "stop() never took effect"
        time.sleep(0.001)
    pool.release.set()
    stopper.join(timeout=30)
    assert not stopper.is_alive(), "stop() never returned"


def _stop_in_callback(server, future, drain=False):
    """Make ``future``'s done-callback stop ``server``; the event is set once stop() returned."""
    returned = threading.Event()

    def stop(_future):
        server.stop(drain=drain)
        returned.set()

    future.add_done_callback(stop)
    return returned


def _assert_threads_end(server):
    """Every thread of a stopped server ends."""
    for thread in [server._dispatcher, *server._worker_threads]:
        thread.join(timeout=30)
        assert not thread.is_alive(), f"{thread.name} never ended"


class _ParkingEncoder:
    """Wraps an encoder and counts its calls; one call can be parked mid-encode.

    Set ``park`` to an ``Event``: the next call sets ``parked`` and waits on
    it before it encodes.  Calls do not serialise (``stochastic`` is false),
    so other submitters encode while one is parked.
    """

    stochastic = False

    def __init__(self, encoder):
        self.encoder = encoder
        self.calls = 0
        self.park = None
        self.parked = threading.Event()

    def __call__(self, images):
        self.calls += 1
        park, self.park = self.park, None
        if park is not None:
            self.parked.set()
            park.wait(timeout=30)
        return self.encoder(images)


class TestModelRegistry:
    def test_save_load_round_trip_with_meta(self, tmp_path, micro_config, untrained):
        model, encoder, _ = untrained
        registry = ModelRegistry(tmp_path)
        registry.save(
            "cnn-a", model, encoder, config=micro_config, accuracy=0.5,
            hardware={"fps": 100.0, "latency_ms": 1.0}, metadata={"note": "hi"},
        )
        assert registry.names() == ["cnn-a"]
        assert "cnn-a" in registry

        entry = registry.load("cnn-a")
        assert entry.meta["accuracy"] == 0.5
        assert entry.modeled_hardware() == {"fps": 100.0, "latency_ms": 1.0}
        assert entry.meta["metadata"] == {"note": "hi"}
        assert entry.meta["config"]["beta"] == micro_config.beta
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(entry.model.state_dict()[name], value)

    def test_unknown_name_raises(self, tmp_path):
        with pytest.raises(RegistryError, match="no model named"):
            ModelRegistry(tmp_path).load("ghost")

    def test_invalid_names_rejected(self, tmp_path, untrained):
        model, encoder, _ = untrained
        registry = ModelRegistry(tmp_path)
        for bad in ("../escape", "", ".hidden", "a/b"):
            with pytest.raises(RegistryError):
                registry.save(bad, model, encoder)
        assert "../escape" not in registry

    def test_remove(self, tmp_path, untrained):
        model, encoder, _ = untrained
        registry = ModelRegistry(tmp_path)
        registry.save("m", model, encoder)
        assert registry.remove("m") is True
        assert registry.remove("m") is False
        assert registry.names() == []

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "models"))
        assert ModelRegistry().root == tmp_path / "models"

    def test_train_and_register_publishes_hardware_report(self, tmp_path, micro_config):
        registry = ModelRegistry(tmp_path)
        entry = train_and_register(registry, "trained", micro_config)
        stored = registry.load("trained")
        assert stored.modeled_hardware() is not None
        assert stored.modeled_hardware()["fps"] == pytest.approx(entry.meta["hardware"]["fps"])
        assert stored.encoder is not None
        # The stored model serves the same predictions as the live one.
        _, test_loader = make_dataset(micro_config)
        images, _ = next(iter(test_loader))
        spikes = DirectEncoder(num_steps=micro_config.scale.num_steps)(images)
        live = compile_network(entry.model).run(spikes, record_activity=False).counts
        reloaded = compile_network(stored.model).run(spikes, record_activity=False).counts
        np.testing.assert_array_equal(live, reloaded)


class TestCompiledNetworkPool:
    def test_reuses_idle_plans(self, untrained):
        model, _, _ = untrained
        pool = CompiledNetworkPool(model, max_idle=2)
        with pool.acquire() as first:
            pass
        with pool.acquire() as second:
            assert second is first
        assert pool.compiled_count == 1

    def test_concurrent_checkouts_get_distinct_plans(self, untrained):
        model, _, _ = untrained
        pool = CompiledNetworkPool(model, max_idle=2)
        with pool.acquire() as a, pool.acquire() as b:
            assert a is not b
        assert pool.compiled_count == 2

    def test_max_idle_bounds_retention(self, untrained):
        model, _, _ = untrained
        pool = CompiledNetworkPool(model, max_idle=1)
        with pool.acquire(), pool.acquire(), pool.acquire():
            pass
        assert pool.idle_count == 1

    def test_max_idle_must_be_positive(self, untrained):
        model, _, _ = untrained
        with pytest.raises(ValueError, match="max_idle"):
            CompiledNetworkPool(model, max_idle=0)

    def test_a_model_the_runtime_cannot_lower_fails_when_the_pool_is_built(self):
        with pytest.raises(RuntimeCompileError, match="SteppingLIF overrides step"):
            CompiledNetworkPool(_unlowerable_mlp())
        # A server builds its pool first, so no request is ever encoded.
        with pytest.raises(RuntimeCompileError, match="SteppingLIF overrides step"):
            InferenceServer(_unlowerable_mlp(), DirectEncoder(4), max_batch=1)

    def test_the_plan_compiled_with_the_pool_serves_the_first_checkout(self, untrained):
        model, _, _ = untrained
        pool = CompiledNetworkPool(model)
        assert (pool.compiled_count, pool.idle_count) == (1, 1)
        with pool.acquire():
            assert (pool.compiled_count, pool.idle_count) == (1, 0)


class TestCompiledNetworkPoolUpdateWeights:
    def test_swaps_weights_in_place_for_all_plans(self, untrained):
        model, _, _ = untrained
        pool = CompiledNetworkPool(model, max_idle=2)
        with pool.acquire():
            pass  # warm one plan
        new_state = {name: value + 1.0 for name, value in model.state_dict().items()}
        pool.update_weights(new_state)
        for name, value in pool.model.state_dict().items():
            np.testing.assert_array_equal(value, new_state[name])

    def test_waits_for_outstanding_plan(self, untrained):
        model, _, _ = untrained
        pool = CompiledNetworkPool(model, max_idle=2)
        new_state = model.state_dict()
        applied = threading.Event()

        def updater():
            pool.update_weights(new_state)
            applied.set()

        with pool.acquire():
            thread = threading.Thread(target=updater)
            thread.start()
            time.sleep(0.05)
            assert not applied.is_set(), "update must wait for the checked-out plan"
        thread.join(timeout=10)
        assert applied.is_set()

    def test_mismatched_state_raises_and_pool_survives(self, untrained):
        model, _, _ = untrained
        pool = CompiledNetworkPool(model)
        with pytest.raises(KeyError):
            pool.update_weights({"nope": np.zeros(1, dtype=np.float32)})
        with pool.acquire() as plan:  # checkouts are unblocked again
            assert plan is not None

    def test_shape_mismatch_leaves_weights_untouched(self, untrained):
        """load_state_dict is all-or-nothing: no torn old/new weight mixture."""
        model, _, _ = untrained
        pool = CompiledNetworkPool(model)
        before = model.state_dict()
        bad = {name: value + 1.0 for name, value in before.items()}
        first = next(iter(sorted(bad)))
        bad[first] = np.zeros(tuple(s + 1 for s in bad[first].shape), dtype=np.float32)
        with pytest.raises(ValueError, match="shape mismatch"):
            pool.update_weights(bad)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])


class TestAdmissionControl:
    def test_shed_beyond_cap(self, untrained):
        model, encoder, images = untrained
        encoder = _ParkingEncoder(encoder)
        server = InferenceServer(model, encoder, max_batch=4, max_queue=3)
        futures = server.submit_many(images[:3])  # fills the queue (not started)
        with pytest.raises(ServerOverloaded, match="queue full"):
            server.submit(images[3])
        assert encoder.calls == 3  # shed before its encode
        assert server.telemetry.total_shed == 1
        assert server.telemetry.total_admitted == 3
        server.start()
        for future in futures:
            future.result(timeout=30)
        server.stop()
        summary = server.telemetry.summary()
        assert summary["shed"] == 1
        assert summary["admitted"] == 3
        assert summary["queue_high_water"] == 3

    def test_an_arrival_that_loses_the_last_slot_while_encoding_is_shed(self, untrained):
        """The check under the lock sheds a submit whose slot was taken during its encode."""
        model, encoder, images = untrained
        encoder = _ParkingEncoder(encoder)
        server = InferenceServer(model, encoder, max_batch=4, max_queue=2)  # not started
        first = server.submit(images[0])
        gate = encoder.park = threading.Event()
        shed = []

        def late_submit():
            with pytest.raises(ServerOverloaded, match="queue full"):
                server.submit(images[1])
            shed.append(True)

        thread = threading.Thread(target=late_submit)
        thread.start()
        try:
            assert encoder.parked.wait(timeout=10), "the late submit never reached its encode"
            second = server.submit(images[2])  # takes the last slot meanwhile
        finally:
            gate.set()
        thread.join(timeout=30)
        assert not thread.is_alive() and shed == [True]
        telemetry = server.telemetry
        # The late arrival paid its encode, and its shed consumed no sequence number.
        assert (telemetry.total_admitted, telemetry.total_shed, encoder.calls) == (2, 1, 3)
        with server:
            assert [f.result(timeout=30).sequence for f in (first, second)] == [0, 1]

    def test_a_submit_racing_stop_is_not_admitted(self, untrained):
        """A server stopped while a submit encodes refuses it under the lock."""
        model, encoder, images = untrained
        encoder = _ParkingEncoder(encoder)
        server = InferenceServer(model, encoder).start()
        gate = encoder.park = threading.Event()
        refused = []

        def racing_submit():
            with pytest.raises(ServerClosed):
                server.submit(images[0])
            refused.append(True)

        thread = threading.Thread(target=racing_submit)
        thread.start()
        try:
            assert encoder.parked.wait(timeout=10), "the submit never reached its encode"
            server.stop()
        finally:
            gate.set()
        thread.join(timeout=30)
        assert not thread.is_alive() and refused == [True]
        assert server.telemetry.total_admitted == 0

    def test_concurrent_submitters_never_overfill_the_queue(self, untrained):
        """Stress: racing submitters against a held worker admit exactly ``max_queue``."""
        model, encoder, images = untrained
        pool = StubPool(model, hold={0})
        cap, clients, per_client = 3, 8, 10
        admitted, shed = [], []
        lock = threading.Lock()

        def client(offset):
            for i in range(per_client):
                try:
                    future = server.submit(images[(offset + i) % len(images)])
                except ServerOverloaded:
                    with lock:
                        shed.append(i)
                else:
                    with lock:
                        admitted.append(future)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            server = InferenceServer(pool, encoder, max_batch=1, max_wait_ms=0.0, max_queue=cap)
            with server:
                try:
                    running = server.submit(images[0])
                    _await_cut(server)
                    threads = [threading.Thread(target=client, args=(k,)) for k in range(clients)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                    assert not any(thread.is_alive() for thread in threads), "a client hung"
                    assert server.queue_depth == cap
                finally:
                    pool.release.set()
                for future in [running, *admitted]:
                    future.result(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert (len(admitted), len(shed)) == (cap, clients * per_client - cap)
        telemetry = server.telemetry
        assert (telemetry.total_admitted, telemetry.total_shed) == (cap + 1, len(shed))
        assert telemetry.queue_depth_high_water == cap

    def test_queue_depth_never_exceeds_cap_under_load(self, untrained):
        model, encoder, images = untrained
        cap = 2
        with InferenceServer(
            model, encoder, max_batch=2, max_wait_ms=0.0, max_queue=cap
        ) as server:
            outcomes = []
            for image in images * 2:
                try:
                    outcomes.append(server.submit(image))
                except ServerOverloaded:
                    pass
            for future in outcomes:
                future.result(timeout=30)
        assert server.telemetry.queue_depth_high_water <= cap
        assert server.telemetry.total_admitted == len(outcomes)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_requests_waiting_for_a_worker_count_against_the_cap(self, untrained, workers):
        """No batch is cut while every worker is busy, so the cap still holds them."""
        model, encoder, images = untrained
        pool = StubPool(model, hold=range(workers))
        server = InferenceServer(
            pool, encoder, max_batch=1, max_wait_ms=0.0, max_queue=2, workers=workers
        )
        with server:
            running = []
            for image in images[:workers]:  # one held batch per worker
                running.append(server.submit(image))
                _await_cut(server)
            admitted, shed = [], 0
            for image in images[workers : workers + 5]:
                try:
                    admitted.append(server.submit(image))
                except ServerOverloaded:
                    shed += 1
                time.sleep(0.02)
            assert not any(f.done() for f in running), "a held batch ended before the submits"
            assert server.queue_depth == 2
            pool.release.set()
            for future in running + admitted:
                future.result(timeout=30)
        assert (len(admitted), shed) == (2, 3)
        assert server.telemetry.queue_depth_high_water == 2

    def test_expired_request_times_out_while_every_worker_is_busy(self, untrained):
        """A waiting request's deadline is enforced without a free worker."""
        model, encoder, images = untrained
        pool = StubPool(model, hold={0})
        server = InferenceServer(pool, encoder, max_batch=1, max_wait_ms=0.0)
        with server:
            running = server.submit(images[0])
            _await_cut(server)
            doomed = server.submit(images[1], deadline_ms=50.0)
            with pytest.raises(RequestTimedOut, match="before the batch was cut"):
                doomed.result(timeout=0.9)
            assert not running.done(), "the timeout waited for the busy worker"
            assert server.queue_depth == 0
            pool.release.set()
            running.result(timeout=30)
        assert server.telemetry.total_timed_out == 1

    def test_stop_without_drain_fails_requests_waiting_for_a_busy_worker(self, untrained):
        model, encoder, images = untrained
        pool = StubPool(model, hold={0})
        server = InferenceServer(pool, encoder, max_batch=1, max_wait_ms=0.0)
        server.start()
        running = server.submit(images[0])
        _await_cut(server)
        waiting = server.submit_many(images[1:3])
        time.sleep(0.05)  # time enough for the dispatcher to cut them, were a worker free
        assert server.queue_depth == 2
        assert not running.done(), "batch 0 finished before the stop"
        _stop_without_drain_while_held(server, pool)
        assert running.result(timeout=30).batch_size == 1  # a started batch finishes
        for future in waiting:
            with pytest.raises(ServerClosed):
                future.result(timeout=5)
        assert server.telemetry.total_requests == 1

    def test_invalid_admission_arguments_rejected(self, untrained):
        model, encoder, images = untrained
        with pytest.raises(ValueError, match="max_queue"):
            InferenceServer(model, encoder, max_queue=0)
        # One admission policy: no overload mode to pick, no priority lane.
        with pytest.raises(TypeError, match="overload"):
            InferenceServer(model, encoder, max_queue=2, overload="shed")
        with pytest.raises(TypeError, match="priority"):
            InferenceServer(model, encoder).submit(images[0], priority=1)

    def test_admission_counts_reach_the_summary(self, untrained):
        """An admitted, a shed and a timed-out request each land in the summary."""
        model, encoder, images = untrained
        pool = StubPool(model, hold={0})
        server = InferenceServer(pool, encoder, max_batch=1, max_wait_ms=0.0, max_queue=1)
        with server:
            try:
                running = server.submit(images[0])
                _await_cut(server)
                doomed = server.submit(images[1], deadline_ms=50.0)
                with pytest.raises(RequestTimedOut):
                    doomed.result(timeout=5)
                waiting = server.submit(images[2])  # takes the slot the timeout freed
                with pytest.raises(ServerOverloaded):
                    server.submit(images[3])
            finally:
                pool.release.set()
            for future in (running, waiting):
                future.result(timeout=30)
        summary = server.telemetry.summary()
        assert (summary["admitted"], summary["shed"], summary["timed_out"]) == (3, 1, 1)


class TestCancellation:
    """A client's ``Future.cancel()`` touches only its own request."""

    def test_cancelled_request_drops_out_of_its_batch(self, micro_config, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=4, max_wait_ms=50.0)
        futures = server.submit_many(images[:4])  # queued before start: one batch
        assert futures[0].cancel()
        server.start()
        results = [future.result(timeout=30) for future in futures[1:]]
        server.stop()
        reference_encoder = make_encoder(micro_config)
        trains = [reference_encoder(image[None]) for image in images[:4]]
        reference = compile_network(model).run(
            np.concatenate(trains[1:], axis=1), record_activity=False
        ).counts
        np.testing.assert_array_equal(np.stack([r.counts for r in results]), reference)
        assert [r.batch_size for r in results] == [3, 3, 3]
        assert futures[0].cancelled()
        assert server.telemetry.total_failed == 0
        assert server.telemetry.total_requests == 3

    def test_a_cancelled_request_does_not_count_toward_a_full_batch(self, untrained):
        model, encoder, images = untrained
        with InferenceServer(model, encoder, max_batch=2, max_wait_ms=2000.0) as server:
            cancelled = server.submit(images[0])
            assert cancelled.cancel()
            first = server.submit(images[1])
            time.sleep(0.2)  # the dispatcher sees the cancelled and the first request
            second = server.submit(images[2])
            results = [first.result(timeout=30), second.result(timeout=30)]
        assert [r.batch_size for r in results] == [2, 2]
        assert server.telemetry.total_batches == 1

    def test_a_cancelled_request_does_not_start_the_wait_clock(self, untrained):
        model, encoder, images = untrained
        with InferenceServer(model, encoder, max_batch=4, max_wait_ms=300.0) as server:
            cancelled = server.submit(images[0])
            assert cancelled.cancel()
            time.sleep(0.2)
            result = server.submit(images[1]).result(timeout=30)
        # The request waited out a whole window from its own arrival, not
        # the rest of the cancelled request's window.
        assert result.queue_ms >= 299.0
        assert result.batch_size == 1

    def test_cancelled_request_past_its_deadline_does_not_stall_the_queue(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=2)
        doomed = server.submit(images[0], deadline_ms=0.001)
        plain = server.submit(images[1])
        assert doomed.cancel()
        server.start()
        assert plain.result(timeout=10).batch_size == 1
        server.stop()
        assert server.telemetry.total_timed_out == 0  # cancelled, not timed out

    def test_cancelled_waiter_of_an_unstarted_server_survives_stop(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=4)
        futures = server.submit_many(images[:2])
        assert futures[0].cancel()
        server.stop(drain=False)
        assert futures[0].cancelled()
        with pytest.raises(ServerClosed):
            futures[1].result(timeout=5)

    def test_cancelled_waiter_of_a_busy_server_survives_stop(self, untrained):
        model, encoder, images = untrained
        pool = StubPool(model, hold={0})
        server = InferenceServer(pool, encoder, max_batch=2, max_wait_ms=0.0).start()
        running = server.submit(images[0])
        _await_cut(server)
        waiting = server.submit_many(images[1:3])  # one batch, waiting for the worker
        assert waiting[0].cancel()
        _stop_without_drain_while_held(server, pool)
        assert running.result(timeout=5).batch_size == 1  # a started batch finishes
        assert waiting[0].cancelled()
        with pytest.raises(ServerClosed):
            waiting[1].result(timeout=5)

    @pytest.mark.parametrize("max_queue", [None, 2])
    def test_cancels_racing_the_cut_lose_no_request(self, untrained, max_queue):
        """Stress: clients cancel while the dispatcher claims and, with a cap, while
        admission drops cancelled requests; each request ends one way."""
        model, encoder, images = untrained
        outcomes = []  # (future, whether cancel() succeeded)
        shed = []
        lock = threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            server = InferenceServer(
                model, encoder, max_batch=3, max_wait_ms=0.5, workers=4, max_queue=max_queue
            )
            with server:

                def client(offset):
                    for i in range(30):
                        try:
                            future = server.submit(images[(offset + i) % len(images)])
                        except ServerOverloaded:
                            with lock:
                                shed.append(i)
                            continue
                        cancelled = future.cancel() if i % 2 else False
                        with lock:
                            outcomes.append((future, cancelled))

                threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads), "a client hung"
        finally:
            sys.setswitchinterval(interval)
        served = 0
        for future, cancelled in outcomes:
            assert future.cancelled() == cancelled
            if not cancelled:
                assert future.result(timeout=5).counts.shape
                served += 1
        telemetry = server.telemetry
        assert len(outcomes) + len(shed) == 120
        assert (telemetry.total_admitted, telemetry.total_shed) == (len(outcomes), len(shed))
        assert telemetry.total_requests == served
        assert telemetry.total_failed == 0

    def test_a_cancelled_request_frees_its_slot_for_an_arrival(self, untrained):
        model, encoder, images = untrained
        pool = StubPool(model, hold=range(1))
        server = InferenceServer(pool, encoder, max_batch=1, max_wait_ms=0.0, max_queue=1)
        with server:
            try:
                running = server.submit(images[0])
                _await_cut(server)
                cancelled = server.submit(images[1])  # waits for the held worker
                assert cancelled.cancel()
                arrival = server.submit(images[2])  # takes the cancelled request's slot
                assert cancelled in wait([cancelled], timeout=0).done  # claimed
                assert not running.done(), "the held batch ended before the arrival"
            finally:
                pool.release.set()
            assert [f.result(timeout=30).sequence for f in (running, arrival)] == [0, 2]
        telemetry = server.telemetry
        assert (telemetry.total_admitted, telemetry.total_shed, telemetry.total_requests) == (3, 0, 2)

    def test_a_request_cut_into_a_batch_can_no_longer_be_cancelled(self, untrained):
        model, encoder, images = untrained
        pool = StubPool(model, hold={0})
        with InferenceServer(pool, encoder, max_batch=1, max_wait_ms=0.0) as server:
            running = server.submit(images[0])
            _await_cut(server)
            assert not running.cancel()
            assert running.running()
            pool.release.set()
            assert running.result(timeout=30).batch_size == 1


class TestMalformedImage:
    """An image of the wrong shape fails its own submit, before the encode."""

    @staticmethod
    def _mlp():
        model = SpikingMLP(16, 8, 4)
        model.eval()
        return model

    def test_fails_only_its_own_submit(self):
        model = self._mlp()
        rng = np.random.default_rng(0)
        good = [rng.random(16, dtype=np.float32) for _ in range(3)]
        server = InferenceServer(model, DirectEncoder(4), max_batch=4, max_wait_ms=50.0)
        futures = server.submit_many(good[:2])
        with pytest.raises(ValueError, match="input shape"):
            server.submit(np.zeros(15, dtype=np.float32))
        futures.append(server.submit(good[2]))
        server.start()
        served = np.stack([future.result(timeout=30).counts for future in futures])
        server.stop()
        reference = compile_network(model).run(
            DirectEncoder(4)(np.stack(good)), record_activity=False
        ).counts
        np.testing.assert_array_equal(served, reference)
        assert server.telemetry.total_admitted == 3
        assert server.telemetry.total_failed == 0

    def test_is_never_admitted_or_counted_as_failed(self):
        server = InferenceServer(self._mlp(), DirectEncoder(4), max_batch=1)
        with server:
            for _ in range(3):
                with pytest.raises(ValueError, match="input shape"):
                    server.submit(np.zeros(15, dtype=np.float32))
            result = server.submit(np.full(16, 0.5, dtype=np.float32)).result(timeout=30)
        assert result.counts.shape == (4,)
        assert server.telemetry.total_admitted == 1
        assert server.telemetry.total_failed == 0

    def test_flat_input_takes_any_frame_of_its_size(self):
        """Frames of different shapes share a batch: each is flattened at submit."""
        model = self._mlp()
        rng = np.random.default_rng(1)
        good = [rng.random(16, dtype=np.float32) for _ in range(3)]
        server = InferenceServer(model, DirectEncoder(4), max_batch=3, max_wait_ms=50.0)
        frames = (good[0], good[1].reshape(4, 4), good[2].reshape(1, 4, 4))
        futures = [server.submit(frame) for frame in frames]
        server.start()
        results = [future.result(timeout=30) for future in futures]
        server.stop()
        reference = compile_network(model).run(
            DirectEncoder(4)(np.stack(good)), record_activity=False
        ).counts
        np.testing.assert_array_equal(np.stack([r.counts for r in results]), reference)
        assert [r.batch_size for r in results] == [3, 3, 3]

    def test_cnn_takes_channels_first_images(self, untrained):
        model, encoder, images = untrained
        with InferenceServer(model, encoder) as server:
            for bad in (images[0][0], images[0].transpose(1, 2, 0), images[0][None]):
                with pytest.raises(ValueError, match="input shape"):
                    server.submit(bad)
            assert server.submit(images[0]).result(timeout=30).batch_size == 1
        assert server.telemetry.total_admitted == 1


class TestInferenceServer:
    def test_predictions_bit_identical_to_runtime(self, untrained):
        """Pre-submitted FIFO chunks == evaluate_with_runtime on the same batches."""
        model, encoder, images = untrained
        max_batch = 3
        server = InferenceServer(model, encoder, max_batch=max_batch, max_wait_ms=50.0)
        futures = server.submit_many(images)  # queued before start: deterministic chunks
        server.start()
        results = [future.result(timeout=30) for future in futures]
        server.stop()

        plan = compile_network(model)
        reference_encoder = type(encoder)(num_steps=encoder.num_steps, seed=encoder.seed)
        reference = []
        for start in range(0, len(images), max_batch):
            spikes = reference_encoder(np.stack(images[start : start + max_batch]))
            reference.append(plan.run(spikes, record_activity=False).counts)
        reference = np.concatenate(reference)

        served = np.stack([result.counts for result in results])
        np.testing.assert_array_equal(served, reference)
        assert [r.prediction for r in results] == list(reference.argmax(axis=1))

    @pytest.mark.parametrize("max_batch", [1, 5])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_fixed_capacity_drain_is_lossless_and_bit_identical(
        self, micro_config, untrained, workers, max_batch
    ):
        """Every worker count and batch size serves each request once, unperturbed."""
        model, encoder, images = untrained
        images = (images * 3)[:24]
        server = InferenceServer(
            model, encoder, max_batch=max_batch, max_wait_ms=50.0, workers=workers
        )
        futures = server.submit_many(images)  # queued before start: FIFO chunks
        server.start()
        results = [future.result(timeout=60) for future in futures]
        assert [thread.is_alive() for thread in server._worker_threads] == [True] * workers
        server.stop()

        # A fresh encoder replays the serving encoder's stream from the top
        # (required for stochastic encoders: the served instance has moved on).
        reference_encoder = make_encoder(micro_config)
        trains = [reference_encoder(image[None]) for image in images]
        chunks = [trains[start : start + max_batch] for start in range(0, len(trains), max_batch)]
        plan = compile_network(model)
        reference = np.concatenate(
            [
                plan.run(np.concatenate(chunk, axis=1), record_activity=False).counts
                for chunk in chunks
            ]
        )
        np.testing.assert_array_equal(np.stack([r.counts for r in results]), reference)
        assert [r.sequence for r in results] == list(range(len(images)))
        assert [r.batch_size for r in results] == [len(chunk) for chunk in chunks for _ in chunk]
        assert server.telemetry.total_batches == len(chunks)
        assert server.pool.compiled_count <= workers

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_batch": 0}, {"max_wait_ms": -1.0}, {"workers": 0}],
    )
    def test_invalid_batching_arguments_rejected(self, untrained, kwargs):
        model, encoder, _ = untrained
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            InferenceServer(model, encoder, **kwargs)

    def test_coalesces_up_to_max_batch(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=4, max_wait_ms=100.0)
        futures = server.submit_many(images[:8])
        server.start()
        sizes = [future.result(timeout=30).batch_size for future in futures]
        server.stop()
        assert sizes == [4] * 8

    def test_single_request_latency_mode(self, untrained):
        """max_batch=1 serves each request alone regardless of queue depth."""
        model, encoder, images = untrained
        with InferenceServer(model, encoder, max_batch=1, max_wait_ms=0.0) as server:
            results = [f.result(timeout=30) for f in server.submit_many(images[:5])]
        assert all(result.batch_size == 1 for result in results)

    def test_concurrent_clients_all_served(self, untrained):
        model, encoder, images = untrained
        outcomes = []
        lock = threading.Lock()
        with InferenceServer(model, encoder, max_batch=4, max_wait_ms=1.0, workers=2) as server:

            def client(image):
                result = server.submit(image).result(timeout=30)
                with lock:
                    outcomes.append(result.prediction)

            threads = [threading.Thread(target=client, args=(img,)) for img in images]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(outcomes) == len(images)

    def test_submit_after_stop_raises(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder).start()
        server.stop()
        with pytest.raises(ServerClosed):
            server.submit(images[0])

    def test_stop_without_drain_fails_queued_requests(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=4)
        futures = server.submit_many(images[:4])  # never started
        server.stop(drain=False)
        for future in futures:
            with pytest.raises(ServerClosed):
                future.result(timeout=5)

    @pytest.mark.parametrize("workers, drain", [(2, False), (1, True)])
    def test_a_served_requests_callback_may_stop_the_server(self, untrained, workers, drain):
        """That callback runs on a worker, which stop() must not wait for."""
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=1, max_wait_ms=0.0, workers=workers)
        futures = server.submit_many(images[:6])  # queued before start
        returned = _stop_in_callback(server, futures[0], drain=drain)
        server.start()
        assert returned.wait(timeout=30), "stop() in the callback never returned"
        outcomes = []
        for future in futures:
            try:
                future.result(timeout=30)
                outcomes.append("served")
            except ServerClosed:
                outcomes.append("closed")
        _assert_threads_end(server)
        served = 6 if drain else outcomes.count("served")
        # Batches are cut in FIFO order and every cut batch runs.
        assert served >= 1
        assert outcomes == ["served"] * served + ["closed"] * (6 - served)

    def test_a_timed_out_requests_callback_may_stop_the_server(self, untrained):
        """That callback runs on the dispatcher, in the middle of its deadline prune."""
        model, encoder, images = untrained
        pool = StubPool(model, hold={0})
        server = InferenceServer(pool, encoder, max_batch=1, max_wait_ms=0.0).start()
        running = server.submit(images[0])
        _await_cut(server)
        doomed = server.submit(images[1], deadline_ms=200.0)
        returned = _stop_in_callback(server, doomed)
        waiting = server.submit(images[2])
        assert returned.wait(timeout=30), "stop() in the callback never returned"
        with pytest.raises(RequestTimedOut):
            doomed.result(timeout=5)
        with pytest.raises(ServerClosed):
            waiting.result(timeout=5)
        pool.release.set()
        assert running.result(timeout=30).batch_size == 1
        _assert_threads_end(server)

    def test_a_timed_out_requests_callback_holds_no_server_lock(self, untrained):
        """A callback that blocks on a timed-out request stalls no other submitter."""
        model, encoder, images = untrained
        pool = StubPool(model, hold={0})
        gate, entered = threading.Event(), threading.Event()
        submitted = {}

        def block(_future):
            entered.set()
            gate.wait(timeout=30)

        with InferenceServer(pool, encoder, max_batch=1, max_wait_ms=0.0) as server:
            try:
                running = server.submit(images[0])
                _await_cut(server)
                doomed = server.submit(images[1], deadline_ms=200.0)
                doomed.add_done_callback(block)
                assert entered.wait(timeout=10), "the request never timed out"
                submitter = threading.Thread(
                    target=lambda: submitted.__setitem__("future", server.submit(images[2]))
                )
                submitter.start()
                submitter.join(timeout=5)
                assert not submitter.is_alive(), "submit() waited for a timed-out request's callback"
            finally:
                gate.set()
                pool.release.set()
            with pytest.raises(RequestTimedOut):
                doomed.result(timeout=5)
            assert running.result(timeout=30).batch_size == 1
            assert submitted["future"].result(timeout=30).batch_size == 1

    def test_a_timed_out_requests_callback_may_submit(self, untrained):
        """That callback runs on the dispatcher; what it submits is admitted and served."""
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=1, max_wait_ms=0.0)
        doomed = server.submit(images[0], deadline_ms=0.001)  # expired when the server starts
        resubmitted, retried = threading.Event(), []

        def resubmit(_future):
            retried.append(server.submit(images[1]))
            resubmitted.set()

        doomed.add_done_callback(resubmit)
        with server:
            assert resubmitted.wait(timeout=10), "the callback's submit never returned"
            assert retried[0].result(timeout=30).sequence == 1
        with pytest.raises(RequestTimedOut):
            doomed.result(timeout=5)
        assert server.telemetry.total_timed_out == 1

    def test_requests_expiring_together_time_out_when_a_callback_stops_the_server(
        self, untrained
    ):
        """The prune fails every request it took off the queue, even after a callback's stop()."""
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=4, max_wait_ms=10_000.0)
        doomed = [server.submit(image, deadline_ms=0.001) for image in images[:2]]
        waiting = server.submit(images[2])
        returned = _stop_in_callback(server, doomed[0])
        server.start()
        assert returned.wait(timeout=30), "stop() in the callback never returned"
        for future in doomed:
            with pytest.raises(RequestTimedOut):
                future.result(timeout=5)
        with pytest.raises(ServerClosed):
            waiting.result(timeout=5)
        _assert_threads_end(server)
        assert server.telemetry.total_timed_out == 2

    def test_encoder_errors_surface_at_submit(self, untrained):
        model, encoder, _ = untrained
        with InferenceServer(model, encoder) as server:
            with pytest.raises(ValueError, match="normalised"):
                server.submit(np.full((3, 8, 8), 9.0, dtype=np.float32))

    def test_telemetry_counts_requests_and_activity(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=4, max_wait_ms=50.0)
        futures = server.submit_many(images[:8])
        server.start()
        for future in futures:
            future.result(timeout=30)
        server.stop()
        telemetry = server.telemetry
        assert telemetry.total_requests == 8
        assert telemetry.total_batches == 2
        assert telemetry.activity is not None and telemetry.activity.samples == 8
        summary = telemetry.summary()
        assert summary["p50_ms"] > 0
        assert summary["achieved_fps"] > 0
        assert 0 < summary["mean_input_density"] <= 1.0
        assert telemetry.activity.layer_output_events  # at least one spiking layer keyed

    def test_achieved_fps_leaves_out_the_idle_time_between_requests(self, untrained):
        """Half a second with nothing to serve does not lower the measured throughput."""
        model, encoder, images = untrained
        with InferenceServer(model, encoder, max_batch=1, max_wait_ms=0.0) as server:
            server.submit(images[0]).result(timeout=30)
            time.sleep(0.5)
            server.submit(images[1]).result(timeout=30)
        # Counting the idle half second, two requests would read under 4 fps.
        assert server.telemetry.achieved_fps() > 2 / 0.5


class TestSloAwareScheduling:
    def test_deadline_cuts_the_batch_early(self, untrained, monkeypatch):
        model, encoder, images = untrained
        # Alone, a request would wait out the full 10s max_wait window; its
        # 80ms deadline budget (minus the margin) must cut the batch.  The
        # margin is widened from 5 ms to 60 ms so that a dispatcher waking
        # late on a loaded host still cuts before the deadline passes.
        monkeypatch.setattr("repro.serve.scheduler.DEADLINE_MARGIN_MS", 60.0)
        server = InferenceServer(model, encoder, max_batch=64, max_wait_ms=10_000.0)
        with server:
            start = time.perf_counter()
            result = server.submit(images[0], deadline_ms=80.0).result(timeout=30)
            elapsed_s = time.perf_counter() - start
        assert elapsed_s < 5.0, "deadline cutoff never fired"
        assert result.batch_size == 1
        assert server.telemetry.total_deadline_dispatches >= 1

    def test_deadline_passing_after_the_cut_times_out_at_batch_start(self, untrained):
        """A request cut in time but started after its deadline is not served late."""
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=2, max_wait_ms=0.0)
        doomed = server.submit(images[0], deadline_ms=200.0)
        plain = server.submit(images[1])  # queued before start: one full batch
        process_batch = server._process_batch

        def late_start(batch):
            time.sleep(0.25)  # the worker starts the batch after the deadline
            process_batch(batch)

        server._process_batch = late_start
        with server:
            with pytest.raises(RequestTimedOut, match="before the batch started"):
                doomed.result(timeout=30)
            assert plain.result(timeout=30).batch_size == 1
        assert server.telemetry.total_timed_out == 1
        assert server.telemetry.total_requests == 1

    def test_a_draining_stop_times_out_an_expired_request(self, untrained):
        """stop() drains the queue, but never serves a request past its deadline."""
        model, encoder, images = untrained
        pool = StubPool(model, hold={0})
        server = InferenceServer(pool, encoder, max_batch=2, max_wait_ms=0.0).start()
        running = server.submit(images[0])
        _await_cut(server)
        doomed = server.submit(images[1], deadline_ms=100.0)
        plain = server.submit(images[2])
        stopper = threading.Thread(target=server.stop)  # drains, so it waits for the held batch
        stopper.start()
        try:
            with pytest.raises(RequestTimedOut, match="before the batch was cut"):
                doomed.result(timeout=5)
        finally:
            pool.release.set()
        stopper.join(timeout=30)
        assert not stopper.is_alive(), "stop() never returned"
        assert [f.result(timeout=5).batch_size for f in (running, plain)] == [1, 1]
        assert server.telemetry.total_timed_out == 1

    def test_deadline_must_be_positive(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder)
        with pytest.raises(ValueError):
            server.submit(images[0], deadline_ms=0.0)

    def test_every_arrival_is_accounted_for_under_overload(self, untrained):
        """Each arrival is served, timed out, shed at submit or cancelled, once."""
        model, encoder, images = untrained
        slow_ms = 200.0
        arrivals = 40
        # Every batch runs for twice the deadline budget, so arrivals
        # outpace service and a request with a deadline that waits out one
        # batch times out.
        pool = StubPool(model, slow=range(arrivals), slow_ms=slow_ms)
        server = InferenceServer(pool, encoder, max_batch=2, max_wait_ms=0.0, max_queue=3)
        admitted = []  # (whether it has a deadline, future)
        shed = cancelled = 0
        with server:
            for i in range(arrivals):
                deadline_ms = slow_ms / 2 if i % 2 else None
                try:
                    future = server.submit(images[i % len(images)], deadline_ms=deadline_ms)
                except ServerOverloaded:
                    shed += 1
                else:
                    admitted.append((deadline_ms is not None, future))
                    # Every third admitted client gives up while its request waits.
                    if len(admitted) % 3 == 0 and future.cancel():
                        cancelled += 1
                time.sleep(0.01)
            served = timed_out = 0
            deadline_queue_ms = []
            for has_deadline, future in admitted:
                if future.cancelled():
                    continue
                try:
                    result = future.result(timeout=60)
                except RequestTimedOut:
                    timed_out += 1
                else:
                    served += 1
                    if has_deadline:
                        deadline_queue_ms.append(result.queue_ms)
        assert served + timed_out + shed + cancelled == arrivals
        telemetry = server.telemetry
        assert telemetry.total_admitted == served + timed_out + cancelled
        assert (telemetry.total_requests, telemetry.total_timed_out) == (served, timed_out)
        assert (telemetry.total_shed, telemetry.total_failed) == (shed, 0)
        # A request still waiting at its deadline times out; one served
        # started before its deadline.
        assert all(queue_ms < slow_ms / 2 for queue_ms in deadline_queue_ms)
        assert served and timed_out and shed and cancelled


class TestTelemetryMath:
    def test_percentiles_over_window(self):
        telemetry = ServeTelemetry(window=100)
        stats = [
            RequestStat(latency_ms=float(i), queue_ms=0.0, batch_size=1, input_density=0.5)
            for i in range(1, 101)
        ]
        telemetry.record_batch(stats, None, started=0.0, done=1.0)
        pct = telemetry.latency_percentiles()
        assert pct["p50_ms"] == pytest.approx(50.5)
        assert pct["p99_ms"] == pytest.approx(np.percentile(np.arange(1.0, 101.0), 99))
        assert telemetry.achieved_fps() == pytest.approx(100.0)

    def test_window_keeps_only_the_most_recent_requests(self):
        telemetry = ServeTelemetry(window=10)
        stats = [
            RequestStat(
                latency_ms=float(i),
                queue_ms=0.0,
                batch_size=1 if i <= 90 else 4,
                input_density=0.5 if i <= 90 else 0.25,
            )
            for i in range(1, 101)
        ]
        telemetry.record_batch(stats, None, started=0.0, done=1.0)
        assert telemetry.latency_percentiles()["p50_ms"] == pytest.approx(95.5)  # 91..100 only
        assert telemetry.mean_batch_size() == 4.0
        assert telemetry.mean_input_density() == 0.25
        # Counters and throughput are totals, not windowed.
        assert telemetry.total_requests == 100
        assert telemetry.achieved_fps() == pytest.approx(100.0)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            ServeTelemetry(window=0)

    @pytest.mark.parametrize(
        "runs",
        [
            pytest.param([(0.0, 0.5), (9.5, 10.0)], id="idle-gap"),
            pytest.param([(0.0, 0.5), (0.0, 0.5)], id="overlapping-workers"),
        ],
    )
    def test_achieved_fps_counts_busy_time_not_idle_time(self, runs):
        """Two 50-request batches, each busy 0.5 s, read 100 fps.

        Idle time between batches does not count, and two workers' runs
        at once add up, so the figure is one worker's rate.
        """
        telemetry = ServeTelemetry()
        stats = [RequestStat(latency_ms=1.0, queue_ms=0.0, batch_size=50, input_density=0.5)] * 50
        for started, done in runs:
            telemetry.record_batch(stats, None, started, done)
        assert telemetry.achieved_fps() == pytest.approx(100.0)

    def test_queue_high_water_keeps_the_deepest_queue_seen(self):
        """A shallower queue after a deep one does not lower the mark."""
        telemetry = ServeTelemetry()
        for depth in (2, 5, 1):
            telemetry.record_admission(depth)
        assert (telemetry.total_admitted, telemetry.queue_depth_high_water) == (3, 5)

    def test_telemetry_takes_no_model_label(self):
        """Counts are not exported per model any more, so there is no label to give."""
        with pytest.raises(TypeError, match="model"):
            ServeTelemetry(model="m")

    def test_counts_are_exact_under_concurrent_recording(self):
        """Every ``record_*`` from 8 threads at once: no update is lost."""
        telemetry = ServeTelemetry(window=16)
        threads, calls = 8, 500
        stats = [RequestStat(latency_ms=1.0, queue_ms=0.0, batch_size=2, input_density=0.5)] * 2
        start = threading.Barrier(threads)

        def record(t):
            start.wait(timeout=60)
            for i in range(calls):
                telemetry.record_admission(t * calls + i)
                telemetry.record_shed()
                telemetry.record_deadline_dispatch()
                telemetry.record_failure("boom", count=3)
                telemetry.record_timeout()
                telemetry.record_reload_failure("torn")
                telemetry.record_batch(stats, None, started=0.0, done=0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=record, args=(t,)) for t in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers), "a recorder hung"
        finally:
            sys.setswitchinterval(interval)
        n = threads * calls
        assert telemetry.total_requests == 2 * n
        assert telemetry.total_batches == n
        assert telemetry.total_admitted == n
        assert telemetry.total_shed == n
        assert telemetry.total_deadline_dispatches == n
        assert telemetry.total_failed == 3 * n
        assert telemetry.total_timed_out == n
        assert telemetry.total_reload_failures == n
        assert telemetry.queue_depth_high_water == n - 1
        assert telemetry.achieved_fps() == pytest.approx(2 * n / (n * 0.001))

    def test_rendering_names_precision_and_last_error(self):
        telemetry = ServeTelemetry()
        telemetry.set_precision("int8", weight_bits=8)
        telemetry.record_failure("RuntimeError: boom", count=2)
        summary = telemetry.summary()
        assert summary["weight_bits"] == 8.0
        text = format_telemetry(summary, last_error=telemetry.last_error)
        assert "int8 weights" in text
        assert "2 / 0" in text  # failed / timed out
        name, value = text.splitlines()[-1].split(":", 1)
        assert name.strip() == "last error" and value.strip() == "RuntimeError: boom"
        assert "last error" not in format_telemetry(summary)

    def test_activity_restarts_on_num_steps_change(self):
        """A hot-swapped timestep regime restarts activity, never raises."""
        from repro.runtime.activity import RuntimeActivity

        telemetry = ServeTelemetry()
        stat = RequestStat(latency_ms=1.0, queue_ms=0.0, batch_size=1, input_density=0.5)
        a = RuntimeActivity(num_steps=2)
        a.samples, a.layer_output_events = 1, {"lif1": 4.0}
        telemetry.record_batch([stat], a, started=0.0, done=0.001)
        b = RuntimeActivity(num_steps=4)
        b.samples, b.layer_output_events = 1, {"lif1": 8.0}
        telemetry.record_batch([stat], b, started=0.001, done=0.002)
        assert telemetry.activity.num_steps == 4
        assert telemetry.activity.layer_output_events == {"lif1": 8.0}
        assert telemetry.total_requests == 2  # counters continue across the swap

    def test_reset_activity_keeps_counters(self):
        telemetry = ServeTelemetry()
        stat = RequestStat(latency_ms=1.0, queue_ms=0.0, batch_size=1, input_density=0.5)
        from repro.runtime.activity import RuntimeActivity

        activity = RuntimeActivity(num_steps=2)
        activity.samples = 1
        telemetry.record_batch([stat], activity, started=0.0, done=0.001)
        telemetry.reset_activity()
        assert telemetry.activity is None
        assert telemetry.total_requests == 1
        assert telemetry.latency_percentiles()["p50_ms"] == pytest.approx(1.0)

    def test_empty_telemetry_is_nan_and_zero(self):
        telemetry = ServeTelemetry()
        assert np.isnan(telemetry.latency_percentiles()["p50_ms"])
        assert telemetry.achieved_fps() == 0.0
        assert telemetry.activity is None

    def test_zero_admitted_summary_and_rendering(self):
        """A telemetry window with no admitted requests must still render."""
        telemetry = ServeTelemetry()
        summary = telemetry.summary()
        assert set(summary) == {
            "requests", "batches", "admitted", "shed", "queue_high_water",
            "deadline_dispatches", "failed", "timed_out", "reload_failures", "weight_bits",
            "achieved_fps", "mean_batch_size", "mean_input_density", "p50_ms", "p95_ms", "p99_ms",
        }
        assert summary["requests"] == 0 and summary["admitted"] == 0
        assert np.isnan(summary["p50_ms"]) and np.isnan(summary["p99_ms"])
        assert summary["shed"] == 0 and summary["timed_out"] == 0
        text = format_telemetry(summary)
        assert "requests" in text and "queue high-water" in text

    def test_shed_only_window(self):
        """Every arrival rejected: sheds counted, percentiles stay NaN."""
        telemetry = ServeTelemetry()
        for _ in range(4):
            telemetry.record_shed()
        summary = telemetry.summary()
        assert summary["shed"] == 4
        assert summary["admitted"] == 0 and summary["requests"] == 0
        assert np.isnan(summary["p99_ms"])
        rows = dict(line.split(":", 1) for line in format_telemetry(summary).splitlines()[2:])
        assert {name.strip(): value.strip() for name, value in rows.items()}["shed"] == "4"

    def test_format_helpers_render(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=4, max_wait_ms=10.0)
        futures = server.submit_many(images[:4])
        server.start()
        for future in futures:
            future.result(timeout=30)
        server.stop()
        text = format_telemetry(server.telemetry.summary())
        assert "achieved fps" in text and "latency p99" in text
        comparison = server.telemetry.hardware_comparison(model.layer_specs())
        assert comparison["modeled_fps"] > 0
        assert comparison["measured_fps"] > 0
        rendered = format_measured_vs_modeled(comparison)
        assert "throughput (measured)" in rendered and "modeled" in rendered

    def test_hardware_comparison_falls_back_to_stored_report(self):
        telemetry = ServeTelemetry()
        telemetry.record_batch(
            [RequestStat(latency_ms=2.0, queue_ms=0.5, batch_size=1, input_density=0.1)],
            None,
            started=0.0,
            done=0.002,
        )
        comparison = telemetry.hardware_comparison(
            [], modeled={"fps": 1000.0, "latency_ms": 0.5}
        )
        assert comparison["modeled_fps"] == 1000.0
        assert comparison["fps_ratio"] == pytest.approx(comparison["measured_fps"] / 1000.0)
