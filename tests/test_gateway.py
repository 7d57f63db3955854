"""Gateway: named routing, lazy activation, hot-reload, registry versioning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import make_dataset, make_encoder, make_model
from repro.runtime import compile_network
from repro.serve import (
    ModelRegistry,
    ModelUnavailable,
    RegistryError,
    ServeGateway,
    ServeTelemetry,
    ServerClosed,
    format_gateway_summary,
)
from repro.serve.gateway import SUBMIT_RELOAD_RETRIES


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


def _publish(registry: ModelRegistry, name: str, config: ExperimentConfig):
    """Publish an untrained (but deterministic-weight) model; returns it."""
    model = make_model(config)
    model.eval()
    registry.save(name, model, make_encoder(config), config=config)
    return model


def _single_image_counts(model, encoder, images):
    """Reference counts for each image served alone (batch size 1)."""
    plan = compile_network(model)
    return np.stack(
        [plan.run(encoder(image[None]), record_activity=False).counts[0] for image in images]
    )


def _serve_each(gateway, name, images):
    """Submit one image at a time (await each), so every batch has size 1."""
    return np.stack(
        [gateway.submit(name, image).result(timeout=30).counts for image in images]
    )


class TestRegistryVersioning:
    def test_version_increments_per_publish(self, tmp_path, micro_config):
        registry = ModelRegistry(tmp_path)
        assert registry.version("m") == 0
        for expected in (1, 2, 3):
            _publish(registry, "m", micro_config)
            assert registry.version("m") == expected
        assert registry.load("m").version == 3

    def test_signature_changes_on_republish(self, tmp_path, micro_config):
        registry = ModelRegistry(tmp_path)
        assert registry.checkpoint_signature("m") is None
        _publish(registry, "m", micro_config)
        first = registry.checkpoint_signature("m")
        assert first is not None
        _publish(registry, "m", micro_config)
        assert registry.checkpoint_signature("m") != first


class TestGatewayRouting:
    def test_routes_between_two_models(self, tmp_path, micro_config, images):
        registry = ModelRegistry(tmp_path)
        config_b = micro_config.with_overrides(seed=1)
        model_a = _publish(registry, "model-a", micro_config)
        model_b = _publish(registry, "model-b", config_b)

        with ServeGateway(registry, max_batch=4, max_wait_ms=1.0) as gateway:
            served_a = _serve_each(gateway, "model-a", images[:4])
            served_b = _serve_each(gateway, "model-b", images[:4])
            assert gateway.active_models() == ["model-a", "model-b"]
            assert gateway.telemetry("model-a").total_requests == 4
            assert gateway.telemetry("model-b").total_requests == 4
            summary = gateway.summary()

        np.testing.assert_array_equal(
            served_a, _single_image_counts(model_a, make_encoder(micro_config), images[:4])
        )
        np.testing.assert_array_equal(
            served_b, _single_image_counts(model_b, make_encoder(config_b), images[:4])
        )
        assert set(summary["models"]) == {"model-a", "model-b"}
        per_model_keys = set(ServeTelemetry().summary()) | {"version", "reloads"}
        assert all(set(per_model) == per_model_keys for per_model in summary["models"].values())
        assert set(summary["totals"]) == {
            "models", "requests", "admitted", "shed", "failed", "timed_out",
            "reloads", "reload_failures", "queue_high_water",
        }
        assert summary["totals"]["requests"] == 8
        assert summary["totals"]["models"] == 2
        rendered = format_gateway_summary(summary)
        assert "model-a" in rendered and "totals" in rendered

    def test_activation_is_lazy(self, tmp_path, micro_config, images):
        registry = ModelRegistry(tmp_path)
        _publish(registry, "model-a", micro_config)
        _publish(registry, "model-b", micro_config)
        with ServeGateway(registry) as gateway:
            assert gateway.active_models() == []
            gateway.submit("model-a", images[0]).result(timeout=30)
            assert gateway.active_models() == ["model-a"]

    def test_unknown_model_raises(self, tmp_path, images):
        with ServeGateway(ModelRegistry(tmp_path)) as gateway:
            with pytest.raises(RegistryError, match="no model named"):
                gateway.submit("ghost", images[0])
            with pytest.raises(RegistryError, match="not active"):
                gateway.telemetry("ghost")

    def test_a_server_that_keeps_retiring_exhausts_the_retry_budget(
        self, tmp_path, micro_config, images, monkeypatch
    ):
        registry = ModelRegistry(tmp_path)
        _publish(registry, "m", micro_config)
        with ServeGateway(registry) as gateway:
            gateway.submit("m", images[0]).result(timeout=30)
            # Stop the model's server while the gateway stays open, as a
            # reload that retires it between routing and submission does.
            server = gateway._active["m"].server
            server.stop()
            attempts = []
            real_submit = server.submit

            def counted_submit(*args, **kwargs):
                attempts.append(1)
                return real_submit(*args, **kwargs)

            monkeypatch.setattr(server, "submit", counted_submit)
            with pytest.raises(ModelUnavailable, match="model 'm'") as raised:
                gateway.submit("m", images[1])
            assert isinstance(raised.value.__cause__, ServerClosed)
            assert len(attempts) == SUBMIT_RELOAD_RETRIES
            assert gateway.telemetry("m").total_admitted == 1  # only the first request
            assert gateway.summary()["totals"]["admitted"] == 1.0

    def test_admission_knobs_forwarded_to_servers(self, tmp_path, micro_config, images):
        registry = ModelRegistry(tmp_path)
        _publish(registry, "m", micro_config)
        with pytest.raises(TypeError, match="overload"):
            ServeGateway(registry, overload="shed")
        with ServeGateway(registry, max_queue=7, workers=2) as gateway:
            gateway.submit("m", images[0]).result(timeout=30)
            server = gateway._active["m"].server
            assert server.max_queue == 7
            assert server.workers == 2
            assert "shed" in gateway.summary()["models"]["m"]
            with pytest.raises(TypeError, match="priority"):
                gateway.submit("m", images[1], priority=1)

    def test_batching_knobs_forwarded_to_servers(self, tmp_path, micro_config, images):
        registry = ModelRegistry(tmp_path)
        _publish(registry, "m", micro_config)
        with ServeGateway(registry, max_batch=3, max_wait_ms=7.0, workers=2) as gateway:
            gateway.submit("m", images[0]).result(timeout=30)
            server = gateway._active["m"].server
            assert server.max_batch == 3
            assert server.max_wait == pytest.approx(0.007)
            assert [thread.is_alive() for thread in server._worker_threads] == [True, True]
            assert server.pool.max_idle == 2  # one idle plan per worker

    def test_rendered_summary_counts_failed_reloads(self):
        summary = {
            "models": {"m": {"version": 2.0, "requests": 5.0}},
            "totals": {"models": 1.0, "requests": 5.0, "reloads": 1.0, "reload_failures": 1.0},
        }
        rendered = format_gateway_summary(summary)
        assert rendered.splitlines()[-1].endswith("1 reloads (1 failed)")
        assert rendered.splitlines()[3].split()[:3] == ["m", "2", "5"]

    def test_stop_closes_all_servers(self, tmp_path, micro_config, images):
        registry = ModelRegistry(tmp_path)
        _publish(registry, "m", micro_config)
        gateway = ServeGateway(registry)
        gateway.submit("m", images[0]).result(timeout=30)
        gateway.stop()
        with pytest.raises(ServerClosed):
            gateway.submit("m", images[0])
        gateway.stop()  # idempotent


class TestGatewayHotReload:
    def test_republish_served_bit_identical_without_restart(self, tmp_path, micro_config, images):
        registry = ModelRegistry(tmp_path)
        config_v2 = micro_config.with_overrides(seed=5)  # same arch, different weights
        model_v1 = _publish(registry, "m", micro_config)
        encoder = make_encoder(micro_config)

        with ServeGateway(registry) as gateway:
            pre = _serve_each(gateway, "m", images[:3])
            np.testing.assert_array_equal(
                pre, _single_image_counts(model_v1, encoder, images[:3])
            )
            assert gateway.version("m") == 1
            server_before = gateway._active["m"].server

            model_v2 = _publish(registry, "m", config_v2)
            post = _serve_each(gateway, "m", images[:3])

            # Served counts after the reload are bit-identical to a fresh
            # offline evaluation of the new checkpoint.
            reference = _single_image_counts(
                registry.load("m").model, make_encoder(config_v2), images[:3]
            )
            np.testing.assert_array_equal(post, reference)
            np.testing.assert_array_equal(
                post, _single_image_counts(model_v2, make_encoder(config_v2), images[:3])
            )
            assert gateway.version("m") == 2
            # Weight-only republish swaps in place: same server, same pool.
            assert gateway._active["m"].server is server_before
            assert gateway.summary()["models"]["m"]["reloads"] == 1

    def test_hyperparameter_change_replaces_server(self, tmp_path, micro_config, images):
        registry = ModelRegistry(tmp_path)
        _publish(registry, "m", micro_config)
        with ServeGateway(registry) as gateway:
            gateway.submit("m", images[0]).result(timeout=30)
            server_before = gateway._active["m"].server

            # beta lives outside the state dict — in-place patching would
            # silently serve the wrong dynamics, so the server is replaced.
            config_v2 = micro_config.with_overrides(beta=0.75)
            model_v2 = _publish(registry, "m", config_v2)
            served = _serve_each(gateway, "m", images[:3])

            np.testing.assert_array_equal(
                served, _single_image_counts(model_v2, make_encoder(config_v2), images[:3])
            )
            assert gateway._active["m"].server is not server_before
            assert gateway.version("m") == 2
            # Telemetry survives the server replacement: counters carry the
            # pre-reload request too, they never go backwards.
            assert gateway.telemetry("m").total_requests == 4
            assert gateway.telemetry("m") is server_before.telemetry

    def test_replacement_server_keeps_the_gateway_capacity(self, tmp_path, micro_config, images):
        registry = ModelRegistry(tmp_path)
        _publish(registry, "m", micro_config)
        with ServeGateway(registry, max_batch=3, workers=2, max_queue=5) as gateway:
            gateway.submit("m", images[0]).result(timeout=30)
            server_before = gateway._active["m"].server
            _publish(registry, "m", micro_config.with_overrides(beta=0.75))
            gateway.submit("m", images[1]).result(timeout=30)
            server = gateway._active["m"].server
            assert server is not server_before
            assert (server.max_batch, server.workers, server.max_queue) == (3, 2, 5)
            assert [thread.is_alive() for thread in server._worker_threads] == [True, True]
            assert server.pool.max_idle == 2
            # Drained and stopped.
            assert not any(thread.is_alive() for thread in server_before._worker_threads)

    def test_republish_without_encoder_keeps_serving(self, tmp_path, micro_config, images):
        registry = ModelRegistry(tmp_path)
        _publish(registry, "m", micro_config)
        with ServeGateway(registry) as gateway:
            gateway.submit("m", images[0]).result(timeout=30)
            encoder_before = gateway._active["m"].server.encoder

            # Publish v2 with no encoder at all (weight-only republish) —
            # the gateway must keep encoding through the current encoder.
            model_v2 = make_model(micro_config.with_overrides(seed=3))
            model_v2.eval()
            registry.save("m", model_v2)
            result = gateway.submit("m", images[1]).result(timeout=30)
            assert gateway.version("m") == 2
            assert gateway._active["m"].server.encoder is encoder_before
            np.testing.assert_array_equal(
                result.counts,
                _single_image_counts(model_v2, make_encoder(micro_config), [images[1]])[0],
            )

            # Same again across an architecture change: fresh server, old
            # encoder inherited, requests still servable.
            model_v3 = make_model(micro_config.with_overrides(beta=0.9))
            model_v3.eval()
            registry.save("m", model_v3)
            result = gateway.submit("m", images[2]).result(timeout=30)
            assert gateway.version("m") == 3
            assert result.counts.shape == (model_v3.num_classes,)

    def test_num_steps_change_replaces_server(self, tmp_path, micro_config, images):
        from repro.encoding import DirectEncoder

        registry = ModelRegistry(tmp_path)
        _publish(registry, "m", micro_config)
        steps_v2 = micro_config.scale.num_steps * 2
        with ServeGateway(registry) as gateway:
            gateway.submit("m", images[0]).result(timeout=30)
            server_before = gateway._active["m"].server

            # Same model spec but a longer spike train: an in-place swap
            # would coalesce (T, 1, ...) trains of different T, so the
            # server must be replaced instead.
            model_v2 = make_model(micro_config)
            model_v2.eval()
            registry.save("m", model_v2, DirectEncoder(num_steps=steps_v2, seed=17))
            result = gateway.submit("m", images[1]).result(timeout=30)

            assert gateway._active["m"].server is not server_before
            reference = (
                compile_network(model_v2)
                .run(DirectEncoder(num_steps=steps_v2, seed=17)(images[1][None]), record_activity=False)
                .counts[0]
            )
            np.testing.assert_array_equal(result.counts, reference)
            # Telemetry carried across the replacement; activity restarted
            # in the new timestep regime.
            telemetry = gateway.telemetry("m")
            assert telemetry.total_requests == 2
            assert telemetry.activity.num_steps == steps_v2

    def test_refresh_reports_reload(self, tmp_path, micro_config, images):
        registry = ModelRegistry(tmp_path)
        _publish(registry, "m", micro_config)
        with ServeGateway(registry) as gateway:
            gateway.submit("m", images[0]).result(timeout=30)
            assert gateway.refresh("m") is False  # nothing republished yet
            _publish(registry, "m", micro_config.with_overrides(seed=9))
            # An explicit refresh picks the republish up without a submit...
            assert gateway.refresh("m") is True
            assert gateway.version("m") == 2
            # ...and only once.
            assert gateway.refresh("m") is False
            assert gateway.summary()["models"]["m"]["reloads"] == 1
