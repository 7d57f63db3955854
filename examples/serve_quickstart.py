#!/usr/bin/env python3
"""Serving quickstart: train two models, route between them, hot-reload one.

Walks the deployment half of the pipeline (``repro.serve``) end to end:

1. train **two** configurations with the standard sweep recipe and publish
   each trained model — weights, encoder, modeled hardware report, publish
   version — into a :class:`~repro.serve.ModelRegistry`,
2. stand up a :class:`~repro.serve.ServeGateway` with ``max_queue``
   admission control and route named-model requests to both (each gets its own lazily
   started micro-batching server over the event-driven runtime),
3. **republish** one model while the gateway is live: the gateway notices
   the new registry version on the next request and swaps the weights into
   the running compiled kernels — no restart, version bump visible in the
   telemetry,
4. print the per-model gateway telemetry and the measured-vs-modeled
   accelerator comparison for the same traffic.

Run:
    python examples/serve_quickstart.py                 # bench scale
    REPRO_SCALE=smoke python examples/serve_quickstart.py   # fastest run
"""

from __future__ import annotations

import os
import tempfile

from repro.core import ExperimentConfig, resolve_scale
from repro.core.experiment import make_dataset
from repro.hardware.report import format_measured_vs_modeled
from repro.serve import (
    ModelRegistry,
    ServeGateway,
    ServerOverloaded,
    format_gateway_summary,
    train_and_register,
)


def submit_or_shed(gateway: ServeGateway, name: str, images) -> list:
    """Open-loop submission: keep futures for admitted requests, drop sheds.

    With ``max_queue`` set, a burst beyond the queue cap raises
    :class:`ServerOverloaded` per surplus request — that is the admission
    control working, not an error, so a load generator just moves on (the
    sheds are counted in the gateway telemetry).
    """
    admitted = []
    for image in images:
        try:
            admitted.append(gateway.submit(name, image))
        except ServerOverloaded:
            pass
    return admitted


def main() -> None:
    scale = resolve_scale(os.environ.get("REPRO_SCALE"))
    # Two operating points from the paper's Figure 2 cross-sweep: the
    # default setting and the latency-optimal balance point.
    config_a = ExperimentConfig(scale=scale, label="digits-default")
    config_b = ExperimentConfig(beta=0.5, threshold=1.5, scale=scale, label="digits-fast")

    # 1. Train and publish both.  A real deployment would use a persistent
    #    root (default: .repro_registry/models, or REPRO_REGISTRY_DIR).
    registry = ModelRegistry(tempfile.mkdtemp(prefix="repro-registry-"))
    for name, config in (("digits-default", config_a), ("digits-fast", config_b)):
        print(f"training {config.describe()} at scale={scale.name} ...")
        entry = train_and_register(registry, name, config)
        print(f"  published '{name}' v{entry.version} (accuracy {entry.meta['accuracy'] * 100:.1f}%)")

    _, test_loader = make_dataset(config_a)
    images = [image for batch, _ in test_loader for image in batch]

    # 2. One gateway, two models: servers spin up lazily per routed name,
    #    and max_queue bounds each model's queue under load.
    with ServeGateway(registry, max_batch=16, max_wait_ms=2.0, max_queue=64) as gateway:
        half = len(images) // 2
        futures = submit_or_shed(gateway, "digits-default", images[:half])
        futures += submit_or_shed(gateway, "digits-fast", images[half:])
        predictions = [future.result(timeout=120).prediction for future in futures]
        shed = gateway.summary()["totals"]["shed"]
        print(
            f"\nserved {len(predictions)} requests across {gateway.active_models()}"
            f" ({shed:.0f} shed by admission control)"
        )

        # 3. Hot-reload: republish digits-fast while the gateway is live.
        #    (Here we re-register the same config — in practice this is a
        #    freshly fine-tuned checkpoint.)  The next request notices the
        #    new registry version and swaps weights in place.
        print("\nrepublishing 'digits-fast' while serving ...")
        train_and_register(registry, "digits-fast", config_b)
        gateway.submit("digits-fast", images[0]).result(timeout=120)
        print(
            f"gateway now serves 'digits-fast' v{gateway.version('digits-fast')} "
            f"(reloads: {gateway.summary()['models']['digits-fast']['reloads']:.0f}, "
            "no restart, queued work preserved)"
        )

        # 4. Per-model telemetry + measured-vs-modeled for one model.
        print()
        print(format_gateway_summary(gateway.summary()))
        print()
        entry = registry.load("digits-default")
        comparison = gateway.telemetry("digits-default").hardware_comparison(
            entry.model.layer_specs(), modeled=entry.modeled_hardware()
        )
        print(format_measured_vs_modeled(comparison))
        print()
        print(
            "the gap between the two throughput numbers is the point of the "
            "paper:\nthe modeled row is the sparsity-aware accelerator, the "
            "measured row is\nthis host CPU serving the identical spike traffic."
        )


if __name__ == "__main__":
    main()
