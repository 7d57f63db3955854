"""Prior-work comparison (Sec. III-B, in-text claims).

Two claims anchor the comparison against Ye et al. [6]:

* both tuned surrogates exceed the prior work's accuracy on the same
  network/dataset, with the fast sigmoid ~11% more efficient in FPS/W than
  the arctangent (Figure 1 discussion), and
* the fine-tuned configuration (fast sigmoid, ``beta = 0.7``,
  ``theta = 1.5``) achieves **1.72x** the prior accelerator's FPS/W without
  degrading accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.tables import format_table
from repro.core.config import ExperimentConfig, PAPER_COMPARISON_POINT, PAPER_DEFAULT
from repro.core.experiment import ExperimentRecord
from repro.core.sweeps import at_scale
from repro.hardware.accelerator import SparsityAwareAccelerator
from repro.hardware.efficiency import HardwareReport, evaluate_on_hardware
from repro.hardware.prior_work import PriorWorkAccelerator


@dataclass
class PriorWorkComparison:
    """Results of comparing the fine-tuned model against the prior accelerator.

    Attributes
    ----------
    tuned:
        Record of the fine-tuned configuration on the paper's platform.
    default:
        Record of the default-hyperparameter configuration on the paper's
        platform (context for how much the tuning itself contributes).
    prior_hardware:
        Hardware report of the *same default-hyperparameter model* executed
        on the prior-work accelerator model.
    """

    tuned: ExperimentRecord
    default: ExperimentRecord
    prior_hardware: HardwareReport

    @property
    def efficiency_gain(self) -> float:
        """FPS/W of the tuned configuration relative to the prior accelerator (paper: 1.72x)."""
        prior = self.prior_hardware.fps_per_watt
        return self.tuned.hardware.fps_per_watt / prior if prior > 0 else float("nan")

    @property
    def efficiency_gain_from_tuning(self) -> float:
        """FPS/W of the tuned configuration relative to the default configuration on the same platform."""
        base = self.default.hardware.fps_per_watt
        return self.tuned.hardware.fps_per_watt / base if base > 0 else float("nan")

    @property
    def accuracy_delta(self) -> float:
        """Accuracy of the tuned configuration minus the default configuration."""
        return self.tuned.accuracy - self.default.accuracy


def run_prior_work_comparison(
    tuned_config: Optional[ExperimentConfig] = None,
    default_config: Optional[ExperimentConfig] = None,
    scale_preset: Optional[str] = None,
    verbose: bool = False,
    workers: Optional[int] = None,
    cache=None,
) -> PriorWorkComparison:
    """Reproduce the paper's comparison against the prior-work accelerator.

    The default-hyperparameter model is evaluated twice: on the paper's
    sparsity-aware platform (as the "default" row) and on the prior-work
    accelerator model (as the comparison baseline).  The tuned model uses
    the paper's fine-tuned point (fast sigmoid, ``beta=0.7``, ``theta=1.5``).
    Both configs follow the sweeps' scale rule (:func:`~repro.core.sweeps.at_scale`):
    a given config keeps its scale unless ``scale_preset`` names one.  Both
    trainings route through :func:`repro.exec.run_experiments`, so they can
    run in parallel (``workers=2``) and reuse cached records.
    """
    from repro.exec import run_experiments

    tuned_config = at_scale(tuned_config, scale_preset, PAPER_COMPARISON_POINT)
    default_config = at_scale(default_config, scale_preset, PAPER_DEFAULT)

    paper_platform = SparsityAwareAccelerator()
    prior_platform = PriorWorkAccelerator()

    tuned, default = run_experiments(
        [tuned_config, default_config],
        workers=workers,
        cache=cache,
        accelerator=paper_platform,
        verbose=verbose,
    )

    # Same default model, mapped onto the prior-work accelerator.
    default_workload = build_workload_from_record(default)
    prior_hardware = evaluate_on_hardware(default_workload, prior_platform, default.accuracy)

    return PriorWorkComparison(tuned=tuned, default=default, prior_hardware=prior_hardware)


def build_workload_from_record(record: ExperimentRecord):
    """Rebuild the hardware workload captured inside an experiment record."""
    if record.hardware.run is None:
        raise ValueError("experiment record does not carry a hardware run")
    return record.hardware.run.workload


def format_comparison_table(comparison: PriorWorkComparison) -> str:
    """Render the comparison as the table the paper's Section III-B describes."""
    rows = [
        [
            "prior work [6] (dense accel.)",
            comparison.prior_hardware.accuracy,
            comparison.prior_hardware.firing_rate,
            comparison.prior_hardware.latency_ms,
            comparison.prior_hardware.fps,
            comparison.prior_hardware.power_w,
            comparison.prior_hardware.fps_per_watt,
            1.0,
        ],
        [
            "default (beta=0.25, theta=1.0)",
            comparison.default.accuracy,
            comparison.default.hardware.firing_rate,
            comparison.default.hardware.latency_ms,
            comparison.default.hardware.fps,
            comparison.default.hardware.power_w,
            comparison.default.hardware.fps_per_watt,
            comparison.default.hardware.fps_per_watt / comparison.prior_hardware.fps_per_watt
            if comparison.prior_hardware.fps_per_watt
            else float("nan"),
        ],
        [
            "fine-tuned (beta=0.7, theta=1.5)",
            comparison.tuned.accuracy,
            comparison.tuned.hardware.firing_rate,
            comparison.tuned.hardware.latency_ms,
            comparison.tuned.hardware.fps,
            comparison.tuned.hardware.power_w,
            comparison.tuned.hardware.fps_per_watt,
            comparison.efficiency_gain,
        ],
    ]
    headers = ["configuration", "accuracy", "firing_rate", "latency_ms", "FPS", "power_W", "FPS/W", "vs prior"]
    table = format_table(headers, rows, title="Prior-work comparison (reproduced)")
    summary = (
        f"\nefficiency gain vs prior work: {comparison.efficiency_gain:.2f}x (paper: 1.72x)\n"
        f"efficiency gain from tuning alone: {comparison.efficiency_gain_from_tuning:.2f}x\n"
        f"accuracy delta (tuned - default): {comparison.accuracy_delta:+.2%} (paper: no degradation)"
    )
    return table + summary
