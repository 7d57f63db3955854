"""Hyperparameter grid sweeps: one runner behind every figure.

Every result the paper reports is a grid of training runs that differ in
one or two :class:`~repro.core.config.ExperimentConfig` fields: surrogate
function x derivative scale (Figure 1) and ``beta`` x ``theta`` (Figure 2),
plus the extensions' adaptation strength x ``beta`` over the
adaptive-threshold substrate and the input-encoder ablation.
:func:`run_sweep` trains such a grid through
:func:`repro.exec.run_experiments` (process pool, experiment cache) and
returns a :class:`Sweep`, which keys every record by its axis values.  Each
experiment below is a front-end that fixes its axes and a formatter that
renders the result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.plots import ascii_heatmap, ascii_line_plot
from repro.analysis.tables import format_table
from repro.core.config import PAPER_DEFAULT, ExperimentConfig, resolve_scale
from repro.core.experiment import ExperimentRecord
from repro.hardware.accelerator import SparsityAwareAccelerator
from repro.hardware.prior_work import PRIOR_WORK_REFERENCE

#: Figure 1: the derivative scaling factors the paper sweeps (0.5 to 32,
#: roughly log-spaced) and the two surrogates it compares.
PAPER_SCALE_SWEEP: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
PAPER_SURROGATES: Sequence[str] = ("arctan", "fast_sigmoid")

#: Figure 2: the ``beta`` and ``theta`` axes.
PAPER_BETA_GRID: Sequence[float] = (0.25, 0.5, 0.7, 0.95)
PAPER_THETA_GRID: Sequence[float] = (0.5, 1.0, 1.5, 2.5)

#: Adaptive-threshold sweep.  Step 0.0 is the exact LIF baseline column (an
#: AdaptiveLIF with step 0 is bit-identical to LIF); the non-zero steps span
#: a gentle to an aggressive threshold raise per spike.  The betas are the
#: paper's default setting and its latency-optimal point, and every cell
#: shares one threshold-increment decay factor.
ADAPTATION_STEP_GRID: Sequence[float] = (0.0, 0.2, 0.5)
ADAPTIVE_BETA_GRID: Sequence[float] = (0.25, 0.5)
DEFAULT_ADAPTATION_DECAY = 0.9

#: Encoders compared by the encoding ablation.
DEFAULT_ENCODERS: Sequence[str] = ("rate", "latency", "direct")

#: Table headers for the row keys not shown under their own name.
_HEADERS = {
    "surrogate_scale": "scale", "threshold": "theta", "adaptation_step": "step", "fps": "FPS", "fps_per_watt": "FPS/W"
}


def at_scale(
    config: Optional[ExperimentConfig], scale_preset: Optional[str], default: ExperimentConfig = PAPER_DEFAULT
) -> ExperimentConfig:
    """The scale rule every front-end shares.

    A given ``config`` keeps its own scale unless ``scale_preset`` names
    one; without a config, ``default`` runs at ``resolve_scale(scale_preset)``
    (the preset, else ``$REPRO_SCALE``, else ``bench``).
    """
    if config is not None and scale_preset is None:
        return config
    return (default if config is None else config).with_overrides(scale=resolve_scale(scale_preset))


@dataclass
class Sweep:
    """The records of a grid sweep, keyed by their axis values.

    A metric ``name`` is a :class:`~repro.hardware.efficiency.HardwareReport`
    field: ``"accuracy"``, ``"firing_rate"``, ``"latency_ms"``,
    ``"fps_per_watt"``...

    Attributes
    ----------
    axes:
        ``ExperimentConfig`` field -> swept values, in sweep order.
    records:
        Tuple of one value per axis (in ``axes`` order) -> record, in grid
        order: the last axis varies fastest.
    """

    axes: Dict[str, List[Any]]
    records: Dict[Tuple, ExperimentRecord]

    def _value(self, key: Tuple, name: str) -> float:
        return getattr(self.records[key].hardware, name)

    def metric(self, name: str, **where: Any) -> List[float]:
        """``name`` of every cell whose axis values equal ``where``, in grid order."""
        position = {field: i for i, field in enumerate(self.axes)}
        return [
            self._value(key, name)
            for key in self.records
            if all(key[position[field]] == value for field, value in where.items())
        ]

    def grid(self, name: str) -> np.ndarray:
        """``name`` over the grid, one array dimension per axis."""
        return np.reshape(self.metric(name), [len(values) for values in self.axes.values()])

    def rows(self) -> List[Dict[str, Any]]:
        """One flat row per cell, in grid order: axis values, then every hardware metric."""
        return [{**dict(zip(self.axes, key)), **r.hardware.as_dict()} for key, r in self.records.items()]

    def best(self) -> Tuple:
        """Key of the highest-accuracy cell (the first in grid order on ties)."""
        return max(self.records, key=lambda key: self._value(key, "accuracy"))

    def accuracy_loss(self, key: Tuple) -> float:
        """Absolute accuracy drop of cell ``key`` vs the best-accuracy cell."""
        return self._value(self.best(), "accuracy") - self._value(key, "accuracy")

    def tradeoff(self, max_accuracy_loss: float = 0.05) -> Tuple:
        """Lowest-latency cell within ``max_accuracy_loss`` of the best accuracy.

        This is the paper's selection rule: the best hardware latency among
        the configurations that give up no more than a small accuracy margin
        (the paper accepts 2.88%) versus the best-accuracy configuration.
        """
        best = self.best()
        top = self._value(best, "accuracy")
        admissible = [key for key in self.records if top - self._value(key, "accuracy") <= max_accuracy_loss]
        return min(admissible or [best], key=lambda key: self._value(key, "latency_ms"))

    def latency_reduction(self, key: Tuple, reference: Optional[Tuple] = None) -> float:
        """Fractional latency reduction of cell ``key`` vs ``reference`` (default: the best-accuracy cell)."""
        reference_ms = self._value(self.best() if reference is None else reference, "latency_ms")
        if reference_ms <= 0:
            return 0.0
        return 1.0 - self._value(key, "latency_ms") / reference_ms


def run_sweep(
    axes: Dict[str, Sequence[Any]],
    base_config: Optional[ExperimentConfig] = None,
    scale_preset: Optional[str] = None,
    accelerator: Optional[SparsityAwareAccelerator] = None,
    verbose: bool = False,
    workers: Optional[int] = None,
    cache=None,
) -> Sweep:
    """Train and evaluate every cell of the grid ``axes`` spans.

    ``axes`` maps ``ExperimentConfig`` fields to the values to sweep; each
    cell overrides those fields of ``at_scale(base_config, scale_preset)``
    and is labelled ``field=value, ...`` (labels reach progress lines and
    records, never cache keys or worker seeds).  ``accelerator`` is
    the hardware model (default: the paper's sparsity-aware one).
    ``verbose``, ``workers`` and ``cache`` are forwarded to
    :func:`repro.exec.run_experiments`: progress printing, the process-pool
    size (default serial) and the experiment result cache (default
    disabled; pass ``True``, a path, or an ``ExperimentCache``).
    """
    from repro.exec import run_experiments

    axes = {field: list(values) for field, values in axes.items()}
    base = at_scale(base_config, scale_preset)
    keys = list(itertools.product(*axes.values()))
    configs = []
    for key in keys:
        cell = dict(zip(axes, key))
        label = ", ".join(f"{f}={v:g}" if isinstance(v, float) else f"{f}={v}" for f, v in cell.items())
        configs.append(base.with_overrides(**cell, label=label))
    records = run_experiments(configs, workers=workers, cache=cache, accelerator=accelerator, verbose=verbose)
    return Sweep(axes=axes, records=dict(zip(keys, records)))


def _table(title: str, keys: Sequence[str], rows: List[Dict[str, Any]]) -> str:
    """Render the ``keys`` columns of ``rows`` as a titled table."""
    headers = [_HEADERS.get(key, key) for key in keys]
    return format_table(headers, [[row[key] for key in keys] for row in rows], title=title)


def _heatmap(sweep: Sweep, name: str, prefixes: Tuple[str, str], title: str) -> str:
    """Render a two-axis sweep's ``name`` grid, labelling each axis value ``prefix=value``."""
    rows, cols = ([f"{p}={v:g}" for v in values] for p, values in zip(prefixes, sweep.axes.values()))
    return ascii_heatmap(sweep.grid(name), row_labels=rows, col_labels=cols, title=title)


def run_surrogate_sweep(
    scales: Optional[Sequence[float]] = None, surrogates: Optional[Sequence[str]] = None, **options: Any
) -> Sweep:
    """Run Figure 1: each surrogate at each derivative scaling factor.

    The defaults are the paper's 0.5-32 scales and its two surrogates;
    ``beta`` and ``theta`` stay at the base config's values (the paper's
    defaults, 0.25 and 1.0).  ``options`` go to :func:`run_sweep`.
    """
    axes = {
        "surrogate": list(PAPER_SURROGATES if surrogates is None else surrogates),
        "surrogate_scale": [float(s) for s in (PAPER_SCALE_SWEEP if scales is None else scales)],
    }
    return run_sweep(axes, **options)


def efficiency_advantage(sweep: Sweep) -> float:
    """Mean FPS/W of the fast sigmoid over the arctangent's in a Figure 1 sweep (paper: ~1.11x)."""
    fast, arctan = (np.mean(sweep.metric("fps_per_watt", surrogate=s)) for s in ("fast_sigmoid", "arctan"))
    return float(fast / arctan) if arctan > 0 else float("nan")


def format_figure1(sweep: Sweep) -> str:
    """Render the Figure 1 reproduction: accuracy and FPS/W vs derivative scale.

    The fast-sigmoid-vs-arctangent summary line needs both surrogates swept.
    """
    surrogates, scales = sweep.axes["surrogate"], sweep.axes["surrogate_scale"]
    accuracy = {name: sweep.metric("accuracy", surrogate=name) for name in surrogates}
    accuracy["prior work [6]"] = [PRIOR_WORK_REFERENCE.accuracy] * len(scales)
    efficiency = {name: sweep.metric("fps_per_watt", surrogate=name) for name in surrogates}
    columns = ("surrogate", "surrogate_scale", "accuracy", "firing_rate", "sparsity", "fps_per_watt", "latency_ms")
    sections = [
        ascii_line_plot(
            scales, accuracy, title="Figure 1a (reproduced): accuracy vs derivative scaling factor",
            y_label="test accuracy",
        ),
        ascii_line_plot(
            scales, efficiency, title="Figure 1b (reproduced): accelerator efficiency vs derivative scaling factor",
            y_label="FPS/W",
        ),
        _table("Figure 1 data (reproduced)", columns, sweep.rows()),
    ]
    if set(PAPER_SURROGATES) <= set(surrogates):
        fast, arctan = (np.mean(sweep.metric("firing_rate", surrogate=s)) for s in ("fast_sigmoid", "arctan"))
        sections.append(
            f"fast sigmoid vs arctangent: mean firing rate {fast:.4f} vs {arctan:.4f}; "
            f"mean FPS/W advantage {efficiency_advantage(sweep):.2f}x (paper reports ~1.11x)"
        )
    return "\n\n".join(sections)


def run_beta_theta_sweep(
    betas: Optional[Sequence[float]] = None, thetas: Optional[Sequence[float]] = None, **options: Any
) -> Sweep:
    """Run Figure 2: the membrane leak ``beta`` against the threshold ``theta``.

    The default base config is the paper's fast sigmoid at slope 0.25, and
    the default axes span its published ranges.  ``options`` go to
    :func:`run_sweep`.
    """
    axes = {
        "beta": [float(b) for b in (PAPER_BETA_GRID if betas is None else betas)],
        "threshold": [float(t) for t in (PAPER_THETA_GRID if thetas is None else thetas)],
    }
    return run_sweep(axes, **options)


def format_figure2(sweep: Sweep, max_accuracy_loss: float = 0.05) -> str:
    """Render the Figure 2 reproduction: accuracy/latency grids plus the trade-off summary.

    The paper's headline: ``beta = 0.5, theta = 1.5`` cuts inference
    latency by 48% for a 2.88% accuracy loss vs the best-accuracy cell.
    """
    best, chosen = sweep.best(), sweep.tradeoff(max_accuracy_loss)
    columns = ("beta", "threshold", "accuracy", "firing_rate", "latency_ms", "fps", "fps_per_watt")
    grid = "over the beta x theta grid"
    summary = (
        "best-accuracy configuration: beta={:g}, theta={:g} (accuracy {:.2%})\n"
        "selected trade-off configuration: beta={:g}, theta={:g}\n"
        "latency reduction vs best accuracy: {:.1%} (paper: 48%)\n"
        "accuracy loss vs best accuracy: {:.2%} (paper: 2.88%)"
    ).format(
        *best, sweep.records[best].accuracy, *chosen, sweep.latency_reduction(chosen), sweep.accuracy_loss(chosen)
    )
    sections = [
        _heatmap(sweep, "accuracy", ("b", "t"), f"Figure 2a (reproduced): accuracy {grid}"),
        _heatmap(sweep, "latency_ms", ("b", "t"), f"Figure 2b (reproduced): hardware latency (ms) {grid}"),
        _table("Figure 2 data (reproduced)", columns, sweep.rows()),
        summary,
    ]
    return "\n\n".join(sections)


def run_adaptive_threshold_sweep(
    adaptation_steps: Optional[Sequence[float]] = None,
    betas: Optional[Sequence[float]] = None,
    adaptation_decay: float = DEFAULT_ADAPTATION_DECAY,
    base_config: Optional[ExperimentConfig] = None,
    scale_preset: Optional[str] = None,
    **options: Any,
) -> Sweep:
    """Train the adaptation-strength x ``beta`` grid on the adaptive-threshold substrate.

    The companion characterization study singles out threshold adaptation
    as the axis that moves firing rates most directly: every spike raises
    the threshold by ``adaptation_step``, throttling busy neurons.  Each
    cell is the paper's recipe with ``neuron="adaptive"``; the step-0
    column is dynamically exactly LIF, so a comparison against it
    (:func:`firing_rate_shift`) isolates the adaptation effect.  ``options``
    go to :func:`run_sweep`.
    """
    base = at_scale(base_config, scale_preset)
    base = base.with_overrides(neuron="adaptive", adaptation_decay=float(adaptation_decay))
    steps = ADAPTATION_STEP_GRID if adaptation_steps is None else adaptation_steps
    axes = {
        "adaptation_step": [float(s) for s in steps],
        "beta": [float(b) for b in (ADAPTIVE_BETA_GRID if betas is None else betas)],
    }
    return run_sweep(axes, base, **options)


def firing_rate_shift(sweep: Sweep, step: float, beta: float) -> float:
    """Relative firing-rate change of the adaptive cell ``(step, beta)`` vs its step-0 (LIF) cell.

    Negative values mean adaptation sparsified the network.  Raises
    ``KeyError`` when the sweep has no step-0 cell at ``beta``.
    """
    baseline = sweep.records[(0.0, beta)].hardware.firing_rate
    if baseline <= 0:
        return 0.0
    return sweep.records[(step, beta)].hardware.firing_rate / baseline - 1.0


def format_adaptive_sweep(sweep: Sweep) -> str:
    """Render the adaptive sweep: accuracy/firing-rate grids plus the Pareto table."""
    rows = sweep.rows()
    for row in rows:
        step, beta = row["adaptation_step"], row["beta"]
        has_baseline = (0.0, beta) in sweep.records
        row["rate_shift"] = f"{firing_rate_shift(sweep, step, beta):+.1%}" if has_baseline else "n/a"
    columns = ("adaptation_step", "beta", "accuracy", "firing_rate", "rate_shift", "latency_ms", "fps", "fps_per_watt")
    grid = "over the step x beta grid"
    sections = [
        _heatmap(sweep, "accuracy", ("s", "b"), f"Adaptive-threshold sweep: accuracy {grid}"),
        _heatmap(sweep, "firing_rate", ("s", "b"), f"Adaptive-threshold sweep: measured firing rate {grid}"),
        _table("Adaptive-threshold Pareto points", columns, rows),
    ]
    return "\n\n".join(sections)


def run_encoding_ablation(encoders: Optional[Sequence[str]] = None, **options: Any) -> Sweep:
    """Train the same configuration under several input encoders.

    The paper's introduction names the input coding scheme as what mainly
    sets SNN sparsity, with hyperparameter tuning as a complementary knob;
    this extension measures how much of the firing-rate budget the encoder
    controls.  ``options`` go to :func:`run_sweep`.
    """
    return run_sweep({"encoder": list(DEFAULT_ENCODERS if encoders is None else encoders)}, **options)


def format_encoding_ablation(sweep: Sweep) -> str:
    """Render the encoding ablation as one table row per encoder."""
    columns = ("encoder", "accuracy", "firing_rate", "sparsity", "latency_ms", "fps_per_watt")
    return _table("Encoding ablation (extension)", columns, sweep.rows())
