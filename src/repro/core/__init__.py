"""The paper's core contribution: hyperparameter fine-tuning for hardware efficiency.

This package ties the substrates together into the paper's methodology:

1. build the convolutional SNN (:mod:`repro.core.network`),
2. train it under a specific hyperparameter configuration
   (:mod:`repro.core.experiment`),
3. profile its firing behaviour and evaluate it on the hardware model, and
4. sweep the hyperparameters the paper studies as grids of config fields
   (:mod:`repro.core.sweeps`: :func:`run_sweep` returns a :class:`Sweep`) —
   surrogate function x derivative scale (Figure 1), beta x theta
   (Figure 2), adaptation strength x beta over the adaptive-threshold
   substrate and the input encoder, each a front-end with its formatter —
   and compare against prior work (:mod:`repro.core.comparison`).
"""

from repro.core.config import ExperimentConfig, ReproScale, SCALE_PRESETS, resolve_scale
from repro.core.network import SpikingCNN, SpikingMLP
from repro.core.experiment import (
    ExperimentRecord,
    evaluate_trained_model,
    run_experiment,
)
from repro.core.sweeps import (
    Sweep,
    efficiency_advantage,
    firing_rate_shift,
    format_adaptive_sweep,
    format_encoding_ablation,
    format_figure1,
    format_figure2,
    run_adaptive_threshold_sweep,
    run_beta_theta_sweep,
    run_encoding_ablation,
    run_surrogate_sweep,
    run_sweep,
)
from repro.core.comparison import PriorWorkComparison, run_prior_work_comparison, format_comparison_table
from repro.core.results import ResultStore

__all__ = [
    "ExperimentConfig",
    "ReproScale",
    "SCALE_PRESETS",
    "resolve_scale",
    "SpikingCNN",
    "SpikingMLP",
    "ExperimentRecord",
    "run_experiment",
    "evaluate_trained_model",
    "Sweep",
    "run_sweep",
    "run_surrogate_sweep",
    "format_figure1",
    "efficiency_advantage",
    "run_beta_theta_sweep",
    "format_figure2",
    "run_adaptive_threshold_sweep",
    "format_adaptive_sweep",
    "firing_rate_shift",
    "PriorWorkComparison",
    "run_prior_work_comparison",
    "format_comparison_table",
    "run_encoding_ablation",
    "format_encoding_ablation",
    "ResultStore",
]
