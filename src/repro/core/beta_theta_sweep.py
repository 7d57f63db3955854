"""Figure 2: beta x theta cross-sweep.

With the fast-sigmoid surrogate fixed at slope 0.25 (the paper's choice for
this experiment), the paper sweeps the membrane leak ``beta`` against the
firing threshold ``theta`` and reports accuracy and hardware latency over
the grid.  Its headline finding: the ``beta = 0.5, theta = 1.5`` point cuts
inference latency by 48% while losing only 2.88% accuracy relative to the
best-accuracy configuration.
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

#: Grids matching the paper's Figure 2 axes.
PAPER_BETA_GRID: Sequence[float] = (0.25, 0.5, 0.7, 0.95)
PAPER_THETA_GRID: Sequence[float] = (0.5, 1.0, 1.5, 2.5)

#: Fast-sigmoid slope the paper fixes for this experiment.
PAPER_FIGURE2_SLOPE = 0.25


@dataclass
class BetaThetaSweepResult:
    """Cross-sweep records indexed by (beta, theta).

    Attributes
    ----------
    records:
        ``records[(beta, theta)]`` is the experiment record for that cell.
    betas, thetas:
        The grid axes, in sweep order.
    """

    records: Dict[Tuple[float, float], ExperimentRecord]
    betas: List[float]
    thetas: List[float]

    # ------------------------------------------------------------------ #
    def grid(self, metric: str) -> np.ndarray:
        """Return a ``len(betas) x len(thetas)`` grid of a hardware/accuracy metric."""
        out = np.zeros((len(self.betas), len(self.thetas)))
        for i, beta in enumerate(self.betas):
            for j, theta in enumerate(self.thetas):
                record = self.records[(beta, theta)]
                if metric == "accuracy":
                    out[i, j] = record.accuracy
                else:
                    out[i, j] = record.hardware.as_dict()[metric]
        return out

    def best_accuracy_config(self) -> Tuple[float, float]:
        """(beta, theta) of the highest-accuracy cell."""
        return max(self.records, key=lambda key: self.records[key].accuracy)

    def best_latency_config(self) -> Tuple[float, float]:
        """(beta, theta) of the lowest-latency cell."""
        return min(self.records, key=lambda key: self.records[key].hardware.latency_ms)

    def optimal_tradeoff_config(self, max_accuracy_loss: float = 0.05) -> Tuple[float, float]:
        """Lowest-latency cell whose accuracy stays within ``max_accuracy_loss``.

        This is the paper's selection rule: pick the configuration with the
        best hardware latency among those that give up no more than a small
        accuracy margin versus the best-accuracy configuration (the paper
        accepts 2.88%).
        """
        best_acc = self.records[self.best_accuracy_config()].accuracy
        admissible = [
            key for key, record in self.records.items() if best_acc - record.accuracy <= max_accuracy_loss
        ]
        if not admissible:
            return self.best_accuracy_config()
        return min(admissible, key=lambda key: self.records[key].hardware.latency_ms)

    def latency_reduction(self, config: Tuple[float, float]) -> float:
        """Fractional latency reduction of ``config`` vs the best-accuracy cell."""
        reference = self.records[self.best_accuracy_config()].hardware.latency_ms
        candidate = self.records[config].hardware.latency_ms
        if reference <= 0:
            return 0.0
        return 1.0 - candidate / reference

    def latency_reduction_vs(self, config: Tuple[float, float], reference: Tuple[float, float]) -> float:
        """Fractional latency reduction of ``config`` vs an arbitrary reference cell.

        Useful for reporting the gain over the paper's *default setting*
        (``beta = 0.25, theta = 1.0``) in addition to the gain over the
        best-accuracy cell.
        """
        if reference not in self.records or config not in self.records:
            raise KeyError("both configurations must be cells of the sweep grid")
        ref_latency = self.records[reference].hardware.latency_ms
        candidate = self.records[config].hardware.latency_ms
        if ref_latency <= 0:
            return 0.0
        return 1.0 - candidate / ref_latency

    def accuracy_loss(self, config: Tuple[float, float]) -> float:
        """Absolute accuracy drop of ``config`` vs the best-accuracy cell."""
        return self.records[self.best_accuracy_config()].accuracy - self.records[config].accuracy

    def rows(self) -> List[Dict[str, float]]:
        out = []
        for (beta, theta), record in sorted(self.records.items()):
            row = {"beta": beta, "theta": theta, "accuracy": record.accuracy}
            row.update(
                {
                    "firing_rate": record.hardware.firing_rate,
                    "latency_ms": record.hardware.latency_ms,
                    "fps": record.hardware.fps,
                    "fps_per_watt": record.hardware.fps_per_watt,
                }
            )
            out.append(row)
        return out


def run_beta_theta_sweep(
    betas: Optional[Sequence[float]] = None,
    thetas: Optional[Sequence[float]] = None,
    base_config: Optional[ExperimentConfig] = None,
    scale_preset: Optional[str] = None,
    accelerator: Optional[SparsityAwareAccelerator] = None,
    verbose: bool = False,
    workers: Optional[int] = None,
    cache=None,
) -> BetaThetaSweepResult:
    """Run the Figure 2 cross-sweep.

    Defaults follow the paper: fast sigmoid at slope 0.25, ``beta`` and
    ``theta`` grids spanning the published ranges.  ``workers`` and
    ``cache`` are forwarded to :func:`repro.exec.run_experiments`, which
    trains grid cells across a process pool and serves unchanged cells
    from the experiment cache.
    """
    from repro.exec import run_experiments

    betas = [float(b) for b in (betas if betas is not None else PAPER_BETA_GRID)]
    thetas = [float(t) for t in (thetas if thetas is not None else PAPER_THETA_GRID)]
    repro_scale = resolve_scale(scale_preset)
    if base_config is None:
        base_config = ExperimentConfig(
            surrogate="fast_sigmoid",
            surrogate_scale=PAPER_FIGURE2_SLOPE,
            scale=repro_scale,
        )
    elif scale_preset is not None:
        base_config = base_config.with_overrides(scale=repro_scale)

    cells = [(beta, theta) for beta in betas for theta in thetas]
    configs = [
        base_config.with_overrides(
            beta=beta,
            threshold=theta,
            label=f"beta={beta:g}, theta={theta:g}",
        )
        for beta, theta in cells
    ]
    flat = run_experiments(
        configs,
        workers=workers,
        cache=cache,
        accelerator=accelerator,
        verbose=verbose,
    )
    records: Dict[Tuple[float, float], ExperimentRecord] = dict(zip(cells, flat))
    return BetaThetaSweepResult(records=records, betas=betas, thetas=thetas)


def format_figure2(result: BetaThetaSweepResult, max_accuracy_loss: float = 0.05) -> str:
    """Render the Figure 2 reproduction: accuracy/latency grids plus the trade-off summary."""
    sections = []
    sections.append(
        ascii_heatmap(
            result.grid("accuracy"),
            row_labels=[f"b={b:g}" for b in result.betas],
            col_labels=[f"t={t:g}" for t in result.thetas],
            title="Figure 2a (reproduced): accuracy over the beta x theta grid",
        )
    )
    sections.append(
        ascii_heatmap(
            result.grid("latency_ms"),
            row_labels=[f"b={b:g}" for b in result.betas],
            col_labels=[f"t={t:g}" for t in result.thetas],
            title="Figure 2b (reproduced): hardware latency (ms) over the beta x theta grid",
        )
    )
    headers = ["beta", "theta", "accuracy", "firing_rate", "latency_ms", "FPS", "FPS/W"]
    rows = [
        [row["beta"], row["theta"], row["accuracy"], row["firing_rate"], row["latency_ms"], row["fps"], row["fps_per_watt"]]
        for row in result.rows()
    ]
    sections.append(format_table(headers, rows, title="Figure 2 data (reproduced)"))

    best_acc = result.best_accuracy_config()
    optimal = result.optimal_tradeoff_config(max_accuracy_loss=max_accuracy_loss)
    sections.append(
        "best-accuracy configuration: beta={:g}, theta={:g} (accuracy {:.2%})\n"
        "selected trade-off configuration: beta={:g}, theta={:g}\n"
        "latency reduction vs best accuracy: {:.1%} (paper: 48%)\n"
        "accuracy loss vs best accuracy: {:.2%} (paper: 2.88%)".format(
            best_acc[0],
            best_acc[1],
            result.records[best_acc].accuracy,
            optimal[0],
            optimal[1],
            result.latency_reduction(optimal),
            result.accuracy_loss(optimal),
        )
    )
    return "\n\n".join(sections)
