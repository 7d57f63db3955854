#!/usr/bin/env python3
"""Hardware-architect scenario: map one trained model onto several platforms.

Shows the hardware side of the library in isolation: a single trained model
is profiled once and then mapped onto

* the paper's sparsity-aware lock-step accelerator,
* a sparsity-oblivious (dense) configuration of the same platform,
* the prior-work accelerator model (Ye et al., TCAD 2022), and
* a sweep of PE budgets on the sparsity-aware platform,

reporting latency, power, FPS/W and FPGA resource utilisation for each.

The final section demonstrates the event-driven inference runtime
(:mod:`repro.runtime`): a network is compiled into a graph-free plan,
executed on a spike sequence, and the activity the runtime *measures while
executing* is turned directly into a hardware workload — no separate
profiling pass, and per-layer input events are the post-pooling counts the
accelerator would really see.

Run:
    python examples/hardware_mapping.py
"""

from __future__ import annotations

import os

from repro.core import ExperimentConfig, resolve_scale, run_experiment
from repro.hardware import (
    AcceleratorConfig,
    DenseBaselineAccelerator,
    PriorWorkAccelerator,
    SparsityAwareAccelerator,
    evaluate_on_hardware,
    format_comparison,
)
from repro.runtime import compile_network, make_reduced_cnn, make_spike_sequence, measure_speedup


def main() -> None:
    scale = resolve_scale(os.environ.get("REPRO_SCALE"))
    config = ExperimentConfig(
        surrogate="fast_sigmoid", surrogate_scale=0.25, beta=0.7, threshold=1.5,
        scale=scale, label="fine-tuned model",
    )
    print(f"training the model once at scale '{scale.name}' ...")
    record = run_experiment(config)
    workload = record.hardware.run.workload
    accuracy = record.accuracy

    print("\nworkload extracted from the trained model:")
    for layer in workload:
        print(
            f"  {layer.name:6s} {layer.kind:4s} neurons={layer.num_neurons:6d} "
            f"dense MACs/step={layer.dense_macs_per_step:9d} "
            f"events/step={layer.avg_input_events_per_step:8.1f} "
            f"density={layer.input_density:.2%}"
        )
    print(f"  network sparsity: {workload.overall_sparsity():.1%}")

    reports = {
        "sparsity-aware (paper)": evaluate_on_hardware(workload, SparsityAwareAccelerator(), accuracy),
        "dense baseline": evaluate_on_hardware(workload, DenseBaselineAccelerator(), accuracy),
        "prior work [6]": evaluate_on_hardware(workload, PriorWorkAccelerator(), accuracy),
    }
    print()
    print(format_comparison(reports, baseline_key="prior work [6]",
                            title="Same trained model on three platforms"))

    print("\nPE-budget sweep on the sparsity-aware platform:")
    print(f"  {'PEs':>6} {'latency_ms':>12} {'FPS':>10} {'FPS/W':>10} {'LUT util':>9}")
    for total_pes in (256, 512, 1024, 2048, 4096):
        accelerator = SparsityAwareAccelerator(AcceleratorConfig(total_pes=total_pes))
        run = accelerator.run(workload)
        util = run.resources.utilisation()["luts"]
        print(
            f"  {total_pes:>6} {run.latency_ms:>12.4f} {run.fps:>10.1f} "
            f"{run.fps_per_watt:>10.1f} {util:>8.1%}"
        )

    runtime_section()


def runtime_section() -> None:
    """Event-driven runtime: measured activity straight into the hardware model."""
    print("\nevent-driven runtime (repro.runtime):")
    model = make_reduced_cnn()
    model.eval()
    spikes = make_spike_sequence(
        (8, model.in_channels, model.image_size, model.image_size),
        density=0.1,
        num_steps=8,
        seed=0,
    )

    compiled = compile_network(model)
    result = compiled.run(spikes)
    activity = result.activity
    print(f"  compiled {len(compiled.kernels)} fused kernels; "
          f"predictions for batch of {activity.samples}: {result.predictions().tolist()}")

    # Per-layer input events as *measured during execution* (post-pooling),
    # versus the chained convention that reuses the previous layer's output.
    measured = activity.to_workload(model.layer_specs(), measured_inputs=True)
    chained = activity.to_workload(model.layer_specs(), measured_inputs=False)
    print(f"  {'layer':>6} {'measured ev/step':>17} {'chained ev/step':>16} {'density':>8}")
    for m_layer, c_layer in zip(measured, chained):
        print(
            f"  {m_layer.name:>6} {m_layer.avg_input_events_per_step:>17.1f} "
            f"{c_layer.avg_input_events_per_step:>16.1f} {m_layer.input_density:>7.1%}"
        )

    run = SparsityAwareAccelerator().run(measured)
    print(f"  mapped measured workload: latency {run.latency_ms:.4f} ms, "
          f"{run.fps:.1f} FPS, {run.fps_per_watt:.1f} FPS/W")

    speed = measure_speedup(model, spikes=spikes, repeats=3)
    print(f"  dense forward {speed.dense_seconds * 1e3:.2f} ms vs runtime "
          f"{speed.runtime_seconds * 1e3:.2f} ms -> {speed.speedup:.2f}x "
          f"(identical outputs: {speed.equivalent})")


if __name__ == "__main__":
    main()
