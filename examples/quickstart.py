#!/usr/bin/env python3
"""Quickstart: train one spiking CNN and evaluate it on the hardware model.

This walks the full pipeline the paper uses, end to end, at a small scale:

1. generate a synthetic street-view digit dataset (SVHN stand-in),
2. build the paper's convolutional SNN (``XC3-MP2-XC3-MP2-H-10``) with a
   chosen surrogate gradient, ``beta`` and ``theta``,
3. train it with surrogate-gradient BPTT (Adam + cosine annealing),
4. measure its per-layer firing rates (through a compiled inference plan,
   ``repro.runtime``, which produces spike trains identical to the dense
   forward's), and
5. map it onto the sparsity-aware FPGA accelerator model to obtain latency,
   power and FPS/W.

See ``examples/hardware_mapping.py`` for the runtime API in isolation
(``compile_network`` / ``run_inference``) and
``benchmarks/bench_runtime_speedup.py`` for the dense forward timed
against the compiled plan.

Run:
    python examples/quickstart.py            # bench scale (~10 s)
    REPRO_SCALE=smoke python examples/quickstart.py   # fastest sanity run
"""

from __future__ import annotations

import os

from repro.core import ExperimentConfig, resolve_scale, run_experiment
from repro.hardware import format_report


def main() -> None:
    scale = resolve_scale(os.environ.get("REPRO_SCALE"))
    print(f"reproduction scale: {scale.name} "
          f"(image {scale.image_size}px, {scale.train_samples} train images, {scale.epochs} epochs)")

    # The paper's fine-tuned operating point: fast sigmoid at slope 0.25,
    # beta = 0.5, theta = 1.5 (the Figure 2 latency-optimal configuration).
    config = ExperimentConfig(
        surrogate="fast_sigmoid",
        surrogate_scale=0.25,
        beta=0.5,
        threshold=1.5,
        scale=scale,
        label="quickstart (fine-tuned point)",
    )

    print("training the spiking CNN ...")
    record = run_experiment(config, verbose=True)

    print()
    print(format_report(record.hardware, title=f"Hardware evaluation — {config.describe()}"))
    print()
    print("per-layer firing rates (spikes/neuron/timestep):")
    profile = record.sparsity_profile
    for layer, events in profile.layer_events_per_step.items():
        print(f"  {layer:8s} {profile.firing_rate(layer):.4f}  ({events:.1f} events/step)")
    print(f"  input    {profile.input_events_per_step:.1f} events/step")


if __name__ == "__main__":
    main()
