"""Human-readable rendering of hardware reports and comparisons."""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.hardware.efficiency import HardwareReport


def format_report(report: HardwareReport, title: str = "Hardware evaluation") -> str:
    """Render one :class:`HardwareReport` as an aligned text block."""
    lines = [title, "-" * len(title)]
    rows = [
        ("accuracy", f"{report.accuracy * 100:.2f} %"),
        ("firing rate", f"{report.firing_rate:.4f} spikes/neuron/step"),
        ("sparsity", f"{report.sparsity * 100:.1f} %"),
        ("latency", f"{report.latency_ms:.3f} ms"),
        ("throughput", f"{report.fps:.1f} FPS"),
        ("power", f"{report.power_w:.3f} W"),
        ("efficiency", f"{report.fps_per_watt:.1f} FPS/W"),
        ("energy / inference", f"{report.energy_per_inference_mj:.3f} mJ"),
    ]
    width = max(len(name) for name, _ in rows)
    lines.extend(f"  {name.ljust(width)} : {value}" for name, value in rows)
    return "\n".join(lines)


def format_measured_vs_modeled(
    comparison: Mapping[str, float],
    title: str = "Serving: measured vs modeled",
) -> str:
    """Render a serving measured-vs-modeled comparison as an aligned block.

    ``comparison`` is the flat dict produced by
    :meth:`repro.serve.ServeTelemetry.hardware_comparison`: measured serving
    numbers (``measured_fps``, ``p50_ms``/``p95_ms``/``p99_ms``) next to the
    accelerator model's prediction for the same spike traffic
    (``modeled_fps``, ``modeled_latency_ms``) and their ratio.  The measured
    side runs on a host CPU, so the ratio is the software-to-accelerator
    gap the paper's hardware argument quantifies — not an error in either
    number.  ``measured_fps`` counts only the time batches were running,
    summed over batches, so when several workers run at once it is one
    worker's rate, not the server's.
    """

    def fmt(key: str, pattern: str = "{:.1f}") -> str:
        value = comparison.get(key, float("nan"))
        return "n/a" if value is None or (isinstance(value, float) and math.isnan(value)) else pattern.format(value)

    lines = [title, "-" * len(title)]
    rows = [
        ("throughput (measured)", f"{fmt('measured_fps')} FPS"),
        ("throughput (modeled)", f"{fmt('modeled_fps')} FPS"),
        ("measured / modeled", f"{fmt('fps_ratio', '{:.3f}')}x"),
        ("latency p50 (measured)", f"{fmt('p50_ms', '{:.3f}')} ms"),
        ("latency p95 (measured)", f"{fmt('p95_ms', '{:.3f}')} ms"),
        ("latency p99 (measured)", f"{fmt('p99_ms', '{:.3f}')} ms"),
        ("latency / inference (modeled)", f"{fmt('modeled_latency_ms', '{:.3f}')} ms"),
    ]
    width = max(len(name) for name, _ in rows)
    lines.extend(f"  {name.ljust(width)} : {value}" for name, value in rows)
    return "\n".join(lines)


def format_comparison(
    reports: Mapping[str, HardwareReport],
    baseline_key: str,
    title: str = "Comparison",
) -> str:
    """Render several reports side by side with ratios against a baseline.

    Parameters
    ----------
    reports:
        Mapping from configuration label to report.
    baseline_key:
        Key of the configuration every other row is normalised against.
    """
    if baseline_key not in reports:
        raise KeyError(f"baseline '{baseline_key}' not among reports {sorted(reports)}")
    baseline = reports[baseline_key]
    header = (
        f"{'configuration':<28} {'acc %':>7} {'fire':>7} {'lat ms':>8} "
        f"{'FPS':>9} {'W':>7} {'FPS/W':>9} {'vs base':>8}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for label, report in reports.items():
        ratio = report.fps_per_watt / baseline.fps_per_watt if baseline.fps_per_watt else float("nan")
        lines.append(
            f"{label:<28} {report.accuracy * 100:>7.2f} {report.firing_rate:>7.3f} "
            f"{report.latency_ms:>8.3f} {report.fps:>9.1f} {report.power_w:>7.3f} "
            f"{report.fps_per_watt:>9.1f} {ratio:>7.2f}x"
        )
    return "\n".join(lines)
