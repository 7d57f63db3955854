"""Figure 1: surrogate function / derivative-scale sweep.

The paper sweeps the derivative scaling factor of both surrogates
(``alpha`` for arctangent, ``k`` for fast sigmoid) over ``[0.5, 32]`` with
``beta`` and ``theta`` at their defaults (0.25 and 1.0) and reports, per
scale, the model accuracy and the accelerator efficiency (FPS/W), plus the
prior-work accuracy as a horizontal reference line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.plots import ascii_line_plot
from repro.analysis.tables import format_table
from repro.core.config import ExperimentConfig, ReproScale, resolve_scale
from repro.core.experiment import ExperimentRecord
from repro.hardware.accelerator import SparsityAwareAccelerator
from repro.hardware.prior_work import PRIOR_WORK_REFERENCE

#: The scale values the paper sweeps (0.5 to 32, roughly log-spaced).
PAPER_SCALE_SWEEP: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: The two surrogates Figure 1 compares.
PAPER_SURROGATES: Sequence[str] = ("arctan", "fast_sigmoid")


@dataclass
class SurrogateSweepResult:
    """All records produced by the Figure 1 sweep.

    Attributes
    ----------
    records:
        ``records[surrogate][i]`` is the experiment record for
        ``scales[i]`` under that surrogate.
    scales:
        The swept derivative scaling factors.
    prior_work_accuracy:
        The reference accuracy line from prior work [6].
    """

    records: Dict[str, List[ExperimentRecord]]
    scales: List[float]
    prior_work_accuracy: float = PRIOR_WORK_REFERENCE.accuracy

    # ------------------------------------------------------------------ #
    def accuracy_series(self, surrogate: str) -> List[float]:
        return [r.accuracy for r in self.records[surrogate]]

    def efficiency_series(self, surrogate: str) -> List[float]:
        return [r.hardware.fps_per_watt for r in self.records[surrogate]]

    def firing_rate_series(self, surrogate: str) -> List[float]:
        return [r.hardware.firing_rate for r in self.records[surrogate]]

    def mean_firing_rate(self, surrogate: str) -> float:
        return float(np.mean(self.firing_rate_series(surrogate)))

    def mean_efficiency(self, surrogate: str) -> float:
        return float(np.mean(self.efficiency_series(surrogate)))

    def best_accuracy(self, surrogate: str) -> float:
        return max(self.accuracy_series(surrogate))

    def efficiency_advantage(self) -> float:
        """Mean FPS/W of fast sigmoid relative to arctangent (paper: ~1.11x)."""
        arct = self.mean_efficiency("arctan")
        fast = self.mean_efficiency("fast_sigmoid")
        return fast / arct if arct > 0 else float("nan")

    def rows(self) -> List[Dict[str, float]]:
        """Flat result rows (one per surrogate x scale) for CSV export."""
        out = []
        for surrogate, records in self.records.items():
            for scale, record in zip(self.scales, records):
                row = {"surrogate": surrogate, "scale": scale}
                row.update(
                    {
                        "accuracy": record.accuracy,
                        "firing_rate": record.hardware.firing_rate,
                        "sparsity": record.hardware.sparsity,
                        "fps": record.hardware.fps,
                        "power_w": record.hardware.power_w,
                        "fps_per_watt": record.hardware.fps_per_watt,
                        "latency_ms": record.hardware.latency_ms,
                    }
                )
                out.append(row)
        return out


def run_surrogate_sweep(
    scales: Optional[Sequence[float]] = None,
    surrogates: Optional[Sequence[str]] = None,
    base_config: Optional[ExperimentConfig] = None,
    scale_preset: Optional[str] = None,
    accelerator: Optional[SparsityAwareAccelerator] = None,
    verbose: bool = False,
    workers: Optional[int] = None,
    cache=None,
) -> SurrogateSweepResult:
    """Run the Figure 1 sweep.

    Parameters
    ----------
    scales:
        Derivative scaling factors to sweep (default: the paper's 0.5–32).
    surrogates:
        Surrogate names to compare (default: arctangent and fast sigmoid).
    base_config:
        Configuration template; the sweep overrides ``surrogate`` and
        ``surrogate_scale`` and keeps ``beta``/``theta`` at the paper's
        defaults (0.25 / 1.0) unless the template overrides them.
    scale_preset:
        Repro scale preset name (defaults to ``REPRO_SCALE`` or ``bench``).
    workers, cache:
        Forwarded to :func:`repro.exec.run_experiments`: the process-pool
        size (default serial) and the experiment result cache (default
        disabled; pass ``True``, a path, or an ``ExperimentCache``).
    """
    from repro.exec import run_experiments

    scales = list(scales) if scales is not None else list(PAPER_SCALE_SWEEP)
    surrogates = list(surrogates) if surrogates is not None else list(PAPER_SURROGATES)
    repro_scale = resolve_scale(scale_preset)
    if base_config is None:
        base_config = ExperimentConfig(scale=repro_scale)
    elif scale_preset is not None:
        base_config = base_config.with_overrides(scale=repro_scale)

    configs = [
        base_config.with_overrides(
            surrogate=surrogate,
            surrogate_scale=float(value),
            label=f"{surrogate}(scale={value:g})",
        )
        for surrogate in surrogates
        for value in scales
    ]
    flat = run_experiments(
        configs,
        workers=workers,
        cache=cache,
        accelerator=accelerator,
        verbose=verbose,
    )
    records: Dict[str, List[ExperimentRecord]] = {}
    for pos, surrogate in enumerate(surrogates):
        records[surrogate] = flat[pos * len(scales) : (pos + 1) * len(scales)]
    return SurrogateSweepResult(records=records, scales=[float(s) for s in scales])


def format_figure1(result: SurrogateSweepResult) -> str:
    """Render the Figure 1 reproduction: accuracy and FPS/W vs derivative scale."""
    sections = []
    accuracy_series = {name: result.accuracy_series(name) for name in result.records}
    accuracy_series["prior work [6]"] = [result.prior_work_accuracy] * len(result.scales)
    sections.append(
        ascii_line_plot(
            result.scales,
            accuracy_series,
            title="Figure 1a (reproduced): accuracy vs derivative scaling factor",
            y_label="test accuracy",
        )
    )
    efficiency_series = {name: result.efficiency_series(name) for name in result.records}
    sections.append(
        ascii_line_plot(
            result.scales,
            efficiency_series,
            title="Figure 1b (reproduced): accelerator efficiency vs derivative scaling factor",
            y_label="FPS/W",
        )
    )
    headers = ["surrogate", "scale", "accuracy", "firing_rate", "sparsity", "FPS/W", "latency_ms"]
    rows = [
        [
            row["surrogate"],
            row["scale"],
            row["accuracy"],
            row["firing_rate"],
            row["sparsity"],
            row["fps_per_watt"],
            row["latency_ms"],
        ]
        for row in result.rows()
    ]
    sections.append(format_table(headers, rows, title="Figure 1 data (reproduced)"))
    sections.append(
        "fast sigmoid vs arctangent: "
        f"mean firing rate {result.mean_firing_rate('fast_sigmoid'):.4f} vs "
        f"{result.mean_firing_rate('arctan'):.4f}; "
        f"mean FPS/W advantage {result.efficiency_advantage():.2f}x "
        "(paper reports ~1.11x)"
    )
    return "\n\n".join(sections)
