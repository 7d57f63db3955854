"""Benchmark — quantized (int8) vs float64 reference execution.

Measures what the quantized runtime path actually buys at serving time:

1. **Latency sweep** (``test_quantized_latency``) — the reduced paper CNN
   compiled twice from the same weights, once at ``fp64`` (the reference
   precision the accuracy gate compares against) and once at ``int8``,
   timed on identical Bernoulli spike sequences across input density
   levels.  Predictions of the two plans are compared on every density
   before timing.  Acceptance bar (full mode): **int8 >= 1.3x** faster
   than fp64 at bench scale.
2. **Accuracy gate** (``test_quantized_accuracy_gate``) — runs the
   accuracy gate (:func:`repro.runtime.check_accuracy_delta`) for
   int8 and int16 on a :class:`~repro.core.network.SpikingMLP` behind a
   :class:`~repro.encoding.DirectEncoder`, labelling each sample with the
   fp64 plan's own prediction so the reported accuracy drop *is* the
   quantized-vs-reference disagreement rate.  Both precisions must pass
   their budget.

Runs in smoke mode by default (seconds under plain pytest); set
``REPRO_BENCH_FULL=1`` for larger batches and more timing repetitions.
Results merge into ``benchmarks/results/BENCH_quant.json`` (sections
``latency`` and ``accuracy_gate``; see ``docs/BENCHMARKS.md``) plus the
headline speedup in ``benchmarks/results/measured.json``.
"""

from __future__ import annotations

import time

import numpy as np

from .conftest import run_once, update_bench_json
from repro.core.network import SpikingMLP
from repro.encoding import DirectEncoder
from repro.runtime import check_accuracy_delta, compile_network
from repro.runtime.bench import make_reduced_cnn, make_spike_sequence

#: Input spike densities for the latency sweep; the paper's operating
#: points sit at the sparse end, the dense end bounds the worst case.
DENSITIES = (0.05, 0.10, 0.30)

#: Full-mode acceptance bar: int8 wall-clock speedup over fp64 at bench
#: scale, quoted at the paper's sparse operating points (density <= 0.10);
#: the dense 30% point is reported but only has to not lose.
TARGET_INT8_SPEEDUP = 1.3

#: Accuracy budget per precision for the gate leg (top-1 drop vs fp64).
#: Untrained random weights are the worst case for int8 — spike-count
#: margins between classes are razor thin, so the int8 budget is wider
#: than ``check_accuracy_delta``'s default of 0.02.
ACCURACY_BUDGETS = {"int8": 0.10, "int16": 0.02}


def _time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _format_latency_table(rows) -> str:
    lines = [f"  {'density':>8} {'fp64_ms':>9} {'int8_ms':>9} {'speedup':>8} {'agree':>6}"]
    for row in rows:
        lines.append(
            f"  {row['density']:>8.3f} {row['fp64_ms']:>9.3f} {row['int8_ms']:>9.3f} "
            f"{row['speedup']:>7.2f}x {row['agreement']:>6.3f}"
        )
    return "\n".join(lines)


def test_quantized_latency(benchmark, bench_smoke, results_store):
    """int8 vs fp64 plan latency on the reduced CNN across input densities."""
    if bench_smoke:
        num_steps, batch_size, repeats = 8, 8, 3
        model = make_reduced_cnn(seed=0)
    else:
        num_steps, batch_size, repeats = 16, 64, 10
        model = make_reduced_cnn(channels=16, hidden=128, seed=0)
    fp64_plan = compile_network(model, precision="fp64")
    int8_plan = compile_network(model, precision="int8")
    shape = (batch_size, model.in_channels, model.image_size, model.image_size)

    def run():
        rows = []
        for density in DENSITIES:
            spikes = make_spike_sequence(shape, density, num_steps, seed=17)
            ref = fp64_plan.run(spikes, record_activity=False)
            quant = int8_plan.run(spikes, record_activity=False)
            agreement = float(np.mean(ref.predictions() == quant.predictions()))
            fp64_s = _time_best(lambda: fp64_plan.run(spikes, record_activity=False), repeats)
            int8_s = _time_best(lambda: int8_plan.run(spikes, record_activity=False), repeats)
            rows.append(
                {
                    "density": density,
                    "fp64_ms": fp64_s * 1e3,
                    "int8_ms": int8_s * 1e3,
                    "speedup": fp64_s / int8_s if int8_s > 0 else float("inf"),
                    "agreement": agreement,
                }
            )
        return rows

    rows = run_once(benchmark, run)
    mode = "smoke" if bench_smoke else "full"
    speedups = [row["speedup"] for row in rows]

    print()
    print(f"[quantized-runtime] reduced CNN, T={num_steps}, N={batch_size}, mode={mode}")
    print(_format_latency_table(rows))

    results_store.add(
        "quantized_runtime",
        f"reduced_cnn_{mode}",
        {
            "min_speedup": min(speedups),
            "max_speedup": max(speedups),
            "min_agreement": min(row["agreement"] for row in rows),
        },
    )
    update_bench_json(
        "BENCH_quant.json",
        "latency",
        {
            "experiment": "quantized_runtime",
            "mode": mode,
            "num_steps": num_steps,
            "batch_size": batch_size,
            "repeats": repeats,
            "rows": rows,
        },
    )

    # The hard 1.3x bar is quoted at bench scale (full mode) and at the
    # sparse operating points, where the float32-carrier GEMMs dominate and
    # timing noise cannot hide the precision difference.  Smoke shapes are
    # overhead-dominated (a few ms per forward), so smoke only records.
    if not bench_smoke:
        assert min(speedups) > 1.0, f"int8 should never lose to fp64, got {min(speedups):.2f}x"
        sparse = [row["speedup"] for row in rows if row["density"] <= 0.10]
        assert sparse, "no sparse operating point measured"
        assert min(sparse) >= TARGET_INT8_SPEEDUP, (
            f"expected >={TARGET_INT8_SPEEDUP}x int8 speedup at sparse density, "
            f"got {min(sparse):.2f}x"
        )


def test_quantized_accuracy_gate(benchmark, bench_smoke, results_store):
    """Publish-time accuracy gate for int8/int16 vs the fp64 reference."""
    samples = 64 if bench_smoke else 256
    model = SpikingMLP(in_features=32, hidden_units=64, num_classes=10, seed=0, threshold=0.5)
    model.eval()
    encoder = DirectEncoder(num_steps=8)
    rng = np.random.default_rng(3)
    images = rng.random((samples, 32), dtype=np.float32)

    # Label every sample with the fp64 plan's own prediction, so the gate's
    # "accuracy drop" reads directly as quantized-vs-reference disagreement.
    reference = compile_network(model, precision="fp64")
    labels = reference.run(encoder(images), record_activity=False).predictions()
    loader = [(images[i : i + 32], labels[i : i + 32]) for i in range(0, samples, 32)]

    def run():
        deltas = {}
        for precision, budget in ACCURACY_BUDGETS.items():
            deltas[precision] = check_accuracy_delta(
                model,
                encoder,
                loader,
                precision=precision,
                max_accuracy_drop=budget,
                raise_on_fail=False,
            )
        return deltas

    deltas = run_once(benchmark, run)
    mode = "smoke" if bench_smoke else "full"

    print()
    print(f"[quantized-gate] SpikingMLP/direct, samples={samples}, mode={mode}")
    for precision, delta in deltas.items():
        print(
            f"  {precision:>6}: baseline={delta.baseline_accuracy:.3f} "
            f"quantized={delta.quantized_accuracy:.3f} drop={delta.drop:.4f} "
            f"agreement={delta.agreement:.3f} passed={delta.passed}"
        )

    update_bench_json(
        "BENCH_quant.json",
        "accuracy_gate",
        {
            "experiment": "quantized_runtime",
            "mode": mode,
            "samples": samples,
            **{
                f"{precision}_{key}": value
                for precision, delta in deltas.items()
                for key, value in (
                    ("drop", delta.drop),
                    ("agreement", delta.agreement),
                    ("budget", delta.max_accuracy_drop),
                )
            },
        },
    )

    for precision, delta in deltas.items():
        assert delta.passed, (
            f"{precision} failed the accuracy gate: drop={delta.drop:.4f} "
            f"> budget={delta.max_accuracy_drop}"
        )
