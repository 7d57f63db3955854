"""Chaos suite: deterministic failures across the serving/sweep stack.

Every failure mode this repo claims to tolerate is *induced* here, on a
seeded schedule, and the recovery contract asserted.  Serving failures
come from a stub compiled-plan pool (``conftest.StubPool``: kernel faults
and slow batches on chosen checkouts) and a torn checkpoint
(``conftest.tear_checkpoint``):

- a batch-level inference failure resolves only that batch's futures while
  subsequent batches keep serving;
- expired deadlines produce ``RequestTimedOut`` instead of late dispatch;
- a torn, malformed or unlowerable checkpoint republish degrades the
  gateway to the old weights (reload failure is an event, not an outage);
- a sweep with a poisoned cell aborts with the cells that finished before
  it already cached, so a re-run trains only the cells that are missing;
- corrupt cache files are *reported* by ``python -m repro.exec inspect``,
  never crash it.

``REPRO_FAULT_SEED`` (CI runs a small matrix) reseeds the rate-based storm
and the checkpoint tears; explicit-schedule tests are seed-independent by
construction.
"""

from __future__ import annotations

import gc
import io
import json
import os
import time
import warnings
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import KernelFault, StubPool, rewrite_checkpoint_header, tear_checkpoint

import repro.exec.executor as executor_mod
from repro.core.config import ExperimentConfig
from repro.core.experiment import make_dataset, make_encoder, make_model
from repro.exec import CellExecutionError, ExperimentCache, run_experiments
from repro.exec.cli import main as cache_cli_main
from repro.runtime import compile_network
from repro.serve import (
    InferenceServer,
    ModelRegistry,
    RequestTimedOut,
    ServeGateway,
)
from repro.neurons import NEURON_TYPES
from repro.training.checkpoint import (
    CheckpointIntegrityError,
    load_checkpoint,
    model_spec,
    read_checkpoint_metadata,
    read_checkpoint_quantization,
    save_checkpoint,
)

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


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


def _reference_counts(config, model, images, max_batch):
    """Offline counts for images encoded in submission order, FIFO chunks."""
    encoder = make_encoder(config)
    plan = compile_network(model)
    trains = [encoder(image[None]) for image in images]
    rows = []
    for i in range(0, len(trains), max_batch):
        chunk = trains[i : i + max_batch]
        spikes = chunk[0] if len(chunk) == 1 else np.concatenate(chunk, axis=1)
        rows.extend(np.asarray(plan.run(spikes, record_activity=False).counts))
    return np.stack(rows)


# --------------------------------------------------------------------- #
# Checkpoint integrity
# --------------------------------------------------------------------- #
class TestCheckpointIntegrity:
    def test_tear_checkpoint_is_deterministic(self, tmp_path, untrained, micro_config):
        model, encoder, _ = untrained
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        save_checkpoint(a, model, encoder)
        b.write_bytes(a.read_bytes())
        tear_checkpoint(a, seed=11)
        tear_checkpoint(b, seed=11)
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_bytes()) < len(save_checkpoint(tmp_path / "c.npz", model, encoder).read_bytes())

    def test_torn_file_raises_typed_integrity_error(self, tmp_path, untrained):
        model, encoder, _ = untrained
        path = save_checkpoint(tmp_path / "ck.npz", model, encoder)
        assert load_checkpoint(path)  # sanity: intact file loads
        tear_checkpoint(path, seed=FAULT_SEED)
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(path)
        with pytest.raises(CheckpointIntegrityError):
            read_checkpoint_metadata(path)

    def test_torn_file_is_closed_by_every_reader(self, tmp_path, untrained):
        """``np.load`` leaks its own handle on a torn archive; no reader may."""
        model, encoder, _ = untrained
        path = tear_checkpoint(save_checkpoint(tmp_path / "ck.npz", model, encoder), seed=FAULT_SEED)
        for reader in (load_checkpoint, read_checkpoint_metadata, read_checkpoint_quantization):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with pytest.raises(CheckpointIntegrityError):
                    reader(path)
                gc.collect()  # finalize a leaked file object held in a reference cycle
            leaked = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
            assert not leaked, f"{reader.__name__}: {leaked}"

    def test_checksum_mismatch_raises_integrity_error(self, tmp_path, untrained):
        model, encoder, _ = untrained
        path = save_checkpoint(tmp_path / "ck.npz", model, encoder)
        # Flip one weight bit but keep the original header: a valid archive
        # whose content no longer matches its recorded checksum.
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        header = str(arrays.pop("__checkpoint__")[()])
        target = next(key for key in arrays if key.startswith("param/"))
        tampered = arrays[target].copy()
        tampered.flat[0] += 1.0
        arrays[target] = tampered
        buffer = io.BytesIO()
        np.savez(buffer, **{"__checkpoint__": header}, **arrays)
        path.write_bytes(buffer.getvalue())
        with pytest.raises(CheckpointIntegrityError, match="checksum"):
            load_checkpoint(path)


# --------------------------------------------------------------------- #
# Scheduler: batch isolation, deadlines
# --------------------------------------------------------------------- #
class TestBatchFailures:
    def test_kernel_fault_fails_only_its_batch(self, micro_config, untrained):
        model, encoder, images = untrained
        images = (images * 2)[:12]  # micro scale ships 8 test images; need 3 batches
        pool = StubPool(model, fail={1})
        server = InferenceServer(pool, encoder, max_batch=4, max_wait_ms=0.0)
        futures = [server.submit(image) for image in images]
        server.start()
        reference = _reference_counts(micro_config, model, images, 4)
        # Batch 1 (requests 4..7): every future fails with the kernel fault.
        for future in futures[4:8]:
            with pytest.raises(KernelFault):
                future.result(timeout=30)
        # Batches 0 and 2 serve bit-identically; the server survived.
        for i in list(range(0, 4)) + list(range(8, 12)):
            np.testing.assert_array_equal(futures[i].result(timeout=30).counts, reference[i])
        telemetry = server.telemetry
        server.stop()
        assert telemetry.total_failed == 4
        assert "KernelFault" in telemetry.last_error

    def test_real_backend_exception_isolated_mid_batch(self, micro_config, untrained, monkeypatch):
        """Satellite: a genuine inference exception resolves only its batch."""
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=4, max_wait_ms=0.0)
        real_acquire = server.pool.acquire
        state = {"calls": 0}

        @contextmanager
        def flaky_acquire():
            state["calls"] += 1
            if state["calls"] == 1:
                raise RuntimeError("inference backend exploded")
            with real_acquire() as plan:
                yield plan

        monkeypatch.setattr(server.pool, "acquire", flaky_acquire)
        futures = [server.submit(image) for image in images[:8]]
        server.start()
        reference = _reference_counts(micro_config, model, images[:8], 4)
        for future in futures[:4]:
            with pytest.raises(RuntimeError, match="backend exploded"):
                future.result(timeout=30)
        for i in range(4, 8):
            np.testing.assert_array_equal(futures[i].result(timeout=30).counts, reference[i])
        telemetry = server.telemetry
        server.stop()
        assert telemetry.total_failed == 4
        assert telemetry.summary()["failed"] == 4.0
        assert "backend exploded" in telemetry.last_error

    def test_expired_deadline_times_out_instead_of_dispatching(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=2, max_wait_ms=0.0)
        doomed = server.submit(images[0], deadline_ms=5.0)
        healthy = server.submit(images[1])
        time.sleep(0.05)  # deadline passes while the server is not yet started
        server.start()
        with pytest.raises(RequestTimedOut):
            doomed.result(timeout=30)
        assert healthy.result(timeout=30).counts.shape
        telemetry = server.telemetry
        server.stop()
        assert telemetry.total_timed_out == 1
        assert telemetry.summary()["timed_out"] == 1.0

    def test_rate_based_storm_accounting_closes(self, untrained):
        """Seed-matrix leg: under a random storm every future still resolves."""
        model, encoder, images = untrained
        requests = images * 2
        # Each checkout draws its kernel-fault and slow-batch decisions from
        # its own stream, so the schedule does not depend on thread timing.
        draws = [np.random.default_rng([FAULT_SEED, i]).random(2) for i in range(len(requests))]
        pool = StubPool(
            model,
            fail={i for i, (fault, _) in enumerate(draws) if fault < 0.25},
            slow={i for i, (_, slow) in enumerate(draws) if slow < 0.2},
            slow_ms=2.0,
        )
        server = InferenceServer(pool, encoder, max_batch=2, max_wait_ms=0.0, workers=2)
        futures = [server.submit(image) for image in requests]
        server.start()
        served = failed = 0
        for future in futures:
            try:
                future.result(timeout=60)
                served += 1
            except KernelFault:
                failed += 1
        telemetry = server.telemetry
        server.stop()
        assert served + failed == len(futures)
        assert telemetry.total_failed == failed
        # Pre-queued FIFO chunks of two: one checkout per batch, and exactly
        # the drawn kernel faults fail their two requests each.
        assert pool.checkouts == len(requests) // 2
        assert failed == 2 * sum(i in pool.fail for i in range(pool.checkouts))
        assert telemetry.total_batches == pool.checkouts - failed // 2


# --------------------------------------------------------------------- #
# Gateway: degrade on torn republish
# --------------------------------------------------------------------- #
class TestGatewayDegradedReload:
    def _publish(self, registry, name, config):
        model = make_model(config)
        model.eval()
        registry.save(name, model, make_encoder(config), config=config)
        return model

    def test_torn_republish_keeps_serving_old_weights(self, tmp_path, micro_config, untrained):
        _, _, images = untrained
        registry = ModelRegistry(tmp_path)
        model_v1 = self._publish(registry, "m", micro_config)
        # Reference stream: one fresh encoder encoding six images in order
        # (the gateway's serving encoder advances the same way).
        reference = _reference_counts(micro_config, model_v1, images[:6], 1)
        with ServeGateway(registry, max_batch=4, max_wait_ms=1.0) as gateway:
            pre = np.stack(
                [gateway.submit("m", image).result(timeout=30).counts for image in images[:3]]
            )
            np.testing.assert_array_equal(pre, reference[:3])

            tear_checkpoint(registry.checkpoint_path("m"), seed=FAULT_SEED)
            assert gateway.refresh("m") is False  # reload failed, not crashed
            post = np.stack(
                [gateway.submit("m", image).result(timeout=30).counts for image in images[3:6]]
            )
            np.testing.assert_array_equal(post, reference[3:6])  # old weights live

            telemetry = gateway.telemetry("m")
            assert telemetry.total_reload_failures == 1
            assert "CheckpointIntegrityError" in gateway.last_errors()["m"]
            summary = gateway.summary()
            assert summary["totals"]["reload_failures"] == 1.0
            assert summary["models"]["m"]["reload_failures"] == 1.0

            # The next GOOD republish is picked up normally.
            config_v2 = micro_config.with_overrides(seed=1)
            model_v2 = self._publish(registry, "m", config_v2)
            assert gateway.refresh("m") is True
            served_v2 = np.stack(
                [gateway.submit("m", image).result(timeout=30).counts for image in images[:3]]
            )
            np.testing.assert_array_equal(
                served_v2, _reference_counts(config_v2, model_v2, images[:3], 1)
            )

    def test_unknown_substrate_republish_keeps_serving_old_weights(
        self, tmp_path, micro_config, untrained
    ):
        """A republish naming a neuron substrate this code lacks degrades like a torn one."""
        _, _, images = untrained
        registry = ModelRegistry(tmp_path)
        model_v1 = self._publish(registry, "m", micro_config)
        reference = _reference_counts(micro_config, model_v1, images[:3], 1)
        with ServeGateway(registry, max_batch=4, max_wait_ms=1.0) as gateway:
            served = [gateway.submit("m", images[0]).result(timeout=30).counts]
            kwargs = model_spec(model_v1)["kwargs"]
            rewrite_checkpoint_header(
                registry.checkpoint_path("m"),
                kwargs=dict(kwargs, neuron="synaptic", neuron_params={"alpha": 0.9}),
            )
            served += [gateway.submit("m", image).result(timeout=30).counts for image in images[1:3]]
            np.testing.assert_array_equal(np.stack(served), reference)  # old weights live
            assert gateway.telemetry("m").total_reload_failures == 1
            error = gateway.last_errors()["m"]
            assert error.startswith("CheckpointError") and str(NEURON_TYPES) in error
            assert gateway.summary()["totals"]["reload_failures"] == 1.0

    def test_torn_republish_does_not_rescan_every_submit(self, tmp_path, micro_config, untrained):
        _, _, images = untrained
        registry = ModelRegistry(tmp_path)
        self._publish(registry, "m", micro_config)
        with ServeGateway(registry, max_batch=4, max_wait_ms=1.0) as gateway:
            gateway.submit("m", images[0]).result(timeout=30)
            tear_checkpoint(registry.checkpoint_path("m"), seed=FAULT_SEED)
            for image in images[1:4]:
                gateway.submit("m", image).result(timeout=30)
            # One failure event for one bad publish, however many submits.
            assert gateway.telemetry("m").total_reload_failures == 1

    def test_malformed_quantization_republish_keeps_serving_old_weights(
        self, tmp_path, micro_config, untrained
    ):
        _, _, images = untrained
        registry = ModelRegistry(tmp_path)
        model_v1 = self._publish(registry, "m", micro_config)
        reference = _reference_counts(micro_config, model_v1, images[:4], 1)
        with ServeGateway(registry, max_batch=4, max_wait_ms=1.0) as gateway:
            served = [gateway.submit("m", images[0]).result(timeout=30).counts]
            # The registry refuses to publish an unknown precision, so the
            # bad republish is written as a bare checkpoint.
            model_v2 = make_model(micro_config.with_overrides(seed=1))
            model_v2.eval()
            save_checkpoint(
                registry.checkpoint_path("m"),
                model_v2,
                make_encoder(micro_config),
                metadata={
                    "registry": {"name": "m", "version": 2, "quantization": {"precision": "int4"}}
                },
            )
            assert gateway.refresh("m") is False
            served += [
                gateway.submit("m", image).result(timeout=30).counts for image in images[1:4]
            ]
            np.testing.assert_array_equal(np.stack(served), reference)  # old weights live
            assert gateway.version("m") == 1
            assert gateway.telemetry("m").total_reload_failures == 1
            assert "unknown precision" in gateway.last_errors()["m"]
            assert gateway.summary()["totals"]["reload_failures"] == 1.0

    def test_unlowerable_republish_keeps_serving_old_weights(
        self, tmp_path, micro_config, untrained
    ):
        """A republish whose new pool cannot compile degrades like a torn one."""
        _, _, images = untrained
        registry = ModelRegistry(tmp_path)
        model_v1 = self._publish(registry, "m", micro_config)
        reference = _reference_counts(micro_config, model_v1, images[:4], 1)
        with ServeGateway(registry, max_batch=4, max_wait_ms=1.0) as gateway:
            served = [gateway.submit("m", images[0]).result(timeout=30).counts]
            server = gateway._active["m"].server
            # A well-formed spec whose input scale compile_network refuses.
            model_v2 = make_model(micro_config.with_overrides(seed=1))
            model_v2.eval()
            save_checkpoint(
                registry.checkpoint_path("m"),
                model_v2,
                make_encoder(micro_config),
                metadata={
                    "registry": {
                        "name": "m",
                        "version": 2,
                        "quantization": {"precision": "int8", "input_scale": 2.0},
                    }
                },
            )
            assert gateway.refresh("m") is False
            served += [
                gateway.submit("m", image).result(timeout=30).counts for image in images[1:4]
            ]
            np.testing.assert_array_equal(np.stack(served), reference)  # old weights live
            assert gateway._active["m"].server is server
            assert gateway.version("m") == 1
            assert gateway.telemetry("m").total_reload_failures == 1
            error = gateway.last_errors()["m"]
            assert error.startswith("RuntimeCompileError") and "input_scale" in error

    def test_reload_failures_survive_a_replacing_reload(self, tmp_path, micro_config, untrained):
        """The count lives in the model's telemetry, which a new server inherits."""
        _, _, images = untrained
        registry = ModelRegistry(tmp_path)
        self._publish(registry, "m", micro_config)
        with ServeGateway(registry, max_batch=4, max_wait_ms=1.0) as gateway:
            gateway.submit("m", images[0]).result(timeout=30)
            server_before = gateway._active["m"].server
            tear_checkpoint(registry.checkpoint_path("m"), seed=FAULT_SEED)
            assert gateway.refresh("m") is False
            # beta lives outside the weights, so this republish replaces the server.
            self._publish(registry, "m", micro_config.with_overrides(beta=0.75))
            assert gateway.refresh("m") is True
            assert gateway._active["m"].server is not server_before
            gateway.submit("m", images[1]).result(timeout=30)
            assert gateway.telemetry("m").total_reload_failures == 1
            summary = gateway.summary()
            assert summary["models"]["m"]["reload_failures"] == 1.0
            assert summary["models"]["m"]["reloads"] == 1.0
            assert summary["totals"]["reload_failures"] == 1.0


# --------------------------------------------------------------------- #
# Executor: an aborted sweep resumes from the cache
# --------------------------------------------------------------------- #
class TestExecutorFailurePolicy:
    @pytest.fixture
    def micro_configs(self, micro_scale):
        return [
            ExperimentConfig(scale=micro_scale, seed=0, beta=0.25),
            ExperimentConfig(scale=micro_scale, seed=1, beta=0.5),
            ExperimentConfig(scale=micro_scale, seed=2, threshold=1.5),
        ]

    def test_failed_cells_are_never_cached(self, micro_configs, monkeypatch, tmp_path):
        """The cache holds what finished, so a fixed re-run trains only the rest."""
        train = executor_mod.run_experiment
        poisoned = micro_configs[1]

        def _poisoned_middle(config, **kwargs):
            if config == poisoned:
                raise RuntimeError("poisoned cell")
            return train(config, **kwargs)

        monkeypatch.setattr(executor_mod, "run_experiment", _poisoned_middle)
        cache = ExperimentCache(tmp_path)
        with pytest.raises(CellExecutionError, match="poisoned cell"):
            run_experiments(micro_configs, workers=1, cache=cache)
        assert len(cache) == 1
        assert cache.load(cache.key(micro_configs[0])) is not None

        monkeypatch.setattr(executor_mod, "run_experiment", train)  # the cell is fixed
        events = []
        run_experiments(micro_configs, workers=1, cache=cache, progress=events.append)
        assert [(event.kind, event.index) for event in events] == [
            ("cached", 0), ("start", 1), ("done", 1), ("start", 2), ("done", 2)
        ]
        assert len(cache) == 3


# --------------------------------------------------------------------- #
# Cache corruption through the CLI (satellite)
# --------------------------------------------------------------------- #
class TestCacheCorruptionCLI:
    def _store(self, root, config):
        cache = ExperimentCache(root)
        key = cache.key(config)
        path = cache.store(key, SimpleNamespace(config=config))
        return cache, key, path

    def test_inspect_reports_corrupt_sidecar_instead_of_crashing(
        self, tmp_path, micro_config, capsys
    ):
        _, _, path = self._store(tmp_path, micro_config)
        path.with_suffix(".json").write_text("{ not json !")
        assert cache_cli_main(["--root", str(tmp_path), "inspect"]) == 0
        out = capsys.readouterr().out
        assert "corrupt sidecar" in out

    def test_inspect_survives_corrupt_payload(self, tmp_path, micro_config, capsys):
        cache, key, path = self._store(tmp_path, micro_config)
        path.write_bytes(b"\x00garbage, not a pickle")
        assert cache_cli_main(["--root", str(tmp_path), "inspect"]) == 0
        assert key[:12] in capsys.readouterr().out
        # And the library treats the damaged payload as a miss, not an error.
        assert ExperimentCache(tmp_path).load(key) is None

    def test_inspect_reports_structurally_wrong_sidecar(self, tmp_path, micro_config, capsys):
        _, _, path = self._store(tmp_path, micro_config)
        path.with_suffix(".json").write_text(json.dumps({"config": ["not", "a", "dict"]}))
        assert cache_cli_main(["--root", str(tmp_path), "inspect"]) == 0
        assert "corrupt sidecar" in capsys.readouterr().out
