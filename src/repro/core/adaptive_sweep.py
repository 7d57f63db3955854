"""Adaptation-strength x beta sweep over the adaptive-threshold substrate.

The paper's hardware analysis prices inference by how often neurons fire;
its companion characterization study singles out threshold adaptation as
the hyperparameter axis that moves firing rates most directly (every spike
raises the spiking threshold by ``adaptation_step``, throttling busy
neurons).  This sweep trains the paper's network on the
:class:`~repro.neurons.AdaptiveLIF` substrate over an adaptation-strength x
beta grid — with the ``adaptation_step = 0`` column as the built-in LIF
baseline, to which the substrate reduces exactly — and reports how the
firing-rate shift lands on the accuracy/latency/energy Pareto front.

Every cell runs through :func:`repro.exec.run_experiments` (process-pool
training, experiment cache) and evaluates through the event-driven runtime,
whose measured :class:`~repro.runtime.RuntimeActivity` feeds the hardware
cost models — so the reported Pareto points use *executed* sparsity, not
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.plots import ascii_heatmap
from repro.analysis.tables import format_table
from repro.core.config import ExperimentConfig, resolve_scale
from repro.core.experiment import ExperimentRecord
from repro.hardware.accelerator import SparsityAwareAccelerator

#: Default adaptation-strength grid.  0.0 is the exact LIF baseline column
#: (an AdaptiveLIF with step 0 is bit-identical to LIF); the non-zero points
#: span a gentle to an aggressive threshold raise per spike.
ADAPTATION_STEP_GRID: Sequence[float] = (0.0, 0.2, 0.5)

#: Default membrane-leak grid: the paper's default setting and its
#: latency-optimal point.
ADAPTIVE_BETA_GRID: Sequence[float] = (0.25, 0.5)

#: Threshold-increment decay factor shared by every cell.
DEFAULT_ADAPTATION_DECAY = 0.9


@dataclass
class AdaptiveSweepResult:
    """Sweep records indexed by ``(adaptation_step, beta)``.

    Attributes
    ----------
    records:
        ``records[(step, beta)]`` is the experiment record for that cell.
    steps, betas:
        The grid axes, in sweep order.
    adaptation_decay:
        The decay factor every cell shared.
    """

    records: Dict[Tuple[float, float], ExperimentRecord]
    steps: List[float]
    betas: List[float]
    adaptation_decay: float

    # ------------------------------------------------------------------ #
    def grid(self, metric: str) -> np.ndarray:
        """Return a ``len(steps) x len(betas)`` grid of a hardware/accuracy metric."""
        out = np.zeros((len(self.steps), len(self.betas)))
        for i, step in enumerate(self.steps):
            for j, beta in enumerate(self.betas):
                record = self.records[(step, beta)]
                if metric == "accuracy":
                    out[i, j] = record.accuracy
                else:
                    out[i, j] = record.hardware.as_dict()[metric]
        return out

    def baseline_record(self, beta: float) -> ExperimentRecord:
        """The LIF-equivalent cell (``adaptation_step = 0``) for ``beta``.

        Raises ``KeyError`` when the sweep was run without the baseline
        column.
        """
        return self.records[(0.0, beta)]

    def firing_rate_shift(self, step: float, beta: float) -> float:
        """Relative firing-rate change of a cell vs its LIF baseline column.

        Negative values mean the adaptive threshold sparsified the network
        (fewer spikes per neuron per timestep than plain LIF at the same
        beta).
        """
        baseline = self.baseline_record(beta).hardware.firing_rate
        if baseline <= 0:
            return 0.0
        return self.records[(step, beta)].hardware.firing_rate / baseline - 1.0

    def pareto_rows(self) -> List[Dict[str, float]]:
        """Flat per-cell rows (accuracy + hardware metrics + rate shift)."""
        out = []
        for (step, beta), record in sorted(self.records.items()):
            row = {
                "adaptation_step": step,
                "beta": beta,
                "accuracy": record.accuracy,
                "firing_rate": record.hardware.firing_rate,
                "latency_ms": record.hardware.latency_ms,
                "fps": record.hardware.fps,
                "fps_per_watt": record.hardware.fps_per_watt,
            }
            if (0.0, beta) in self.records:
                row["firing_rate_shift"] = self.firing_rate_shift(step, beta)
            out.append(row)
        return out


def run_adaptive_threshold_sweep(
    adaptation_steps: Optional[Sequence[float]] = None,
    betas: Optional[Sequence[float]] = None,
    adaptation_decay: float = DEFAULT_ADAPTATION_DECAY,
    base_config: Optional[ExperimentConfig] = None,
    scale_preset: Optional[str] = None,
    accelerator: Optional[SparsityAwareAccelerator] = None,
    verbose: bool = False,
    workers: Optional[int] = None,
    cache=None,
) -> AdaptiveSweepResult:
    """Train and evaluate the adaptation-strength x beta grid.

    Each cell is the paper's training recipe with ``neuron="adaptive"`` and
    the cell's ``(adaptation_step, beta)``; the ``adaptation_step = 0``
    column (include it in the grid to get baselines) is dynamically exactly
    LIF, so every comparison against it isolates the adaptation effect.
    ``workers`` / ``cache`` are forwarded to
    :func:`repro.exec.run_experiments` like the other sweep front-ends.
    """
    from repro.exec import run_experiments

    steps = [float(s) for s in (adaptation_steps if adaptation_steps is not None else ADAPTATION_STEP_GRID)]
    betas = [float(b) for b in (betas if betas is not None else ADAPTIVE_BETA_GRID)]
    repro_scale = resolve_scale(scale_preset)
    if base_config is None:
        base_config = ExperimentConfig(scale=repro_scale)
    elif scale_preset is not None:
        base_config = base_config.with_overrides(scale=repro_scale)

    cells = [(step, beta) for step in steps for beta in betas]
    configs = [
        base_config.with_overrides(
            neuron="adaptive",
            adaptation_step=step,
            adaptation_decay=float(adaptation_decay),
            beta=beta,
            label=f"adaptive step={step:g}, beta={beta:g}",
        )
        for step, beta in cells
    ]
    flat = run_experiments(
        configs,
        workers=workers,
        cache=cache,
        accelerator=accelerator,
        verbose=verbose,
    )
    records: Dict[Tuple[float, float], ExperimentRecord] = dict(zip(cells, flat))
    return AdaptiveSweepResult(
        records=records, steps=steps, betas=betas, adaptation_decay=float(adaptation_decay)
    )


def format_adaptive_sweep(result: AdaptiveSweepResult) -> str:
    """Render the sweep: accuracy/firing-rate grids plus the Pareto table."""
    sections = []
    sections.append(
        ascii_heatmap(
            result.grid("accuracy"),
            row_labels=[f"s={s:g}" for s in result.steps],
            col_labels=[f"b={b:g}" for b in result.betas],
            title="Adaptive-threshold sweep: accuracy over the step x beta grid",
        )
    )
    sections.append(
        ascii_heatmap(
            result.grid("firing_rate"),
            row_labels=[f"s={s:g}" for s in result.steps],
            col_labels=[f"b={b:g}" for b in result.betas],
            title="Adaptive-threshold sweep: measured firing rate over the step x beta grid",
        )
    )
    headers = ["step", "beta", "accuracy", "firing_rate", "rate_shift", "latency_ms", "FPS", "FPS/W"]
    rows = []
    for row in result.pareto_rows():
        shift = row.get("firing_rate_shift")
        rows.append(
            [
                row["adaptation_step"],
                row["beta"],
                row["accuracy"],
                row["firing_rate"],
                "n/a" if shift is None else f"{shift:+.1%}",
                row["latency_ms"],
                row["fps"],
                row["fps_per_watt"],
            ]
        )
    sections.append(format_table(headers, rows, title="Adaptive-threshold Pareto points"))
    return "\n\n".join(sections)
