"""The paper's core contribution: hyperparameter fine-tuning for hardware efficiency.

This package ties the substrates together into the paper's methodology:

1. build the convolutional SNN (:mod:`repro.core.network`),
2. train it under a specific hyperparameter configuration
   (:mod:`repro.core.experiment`),
3. profile its firing behaviour and evaluate it on the hardware model, and
4. sweep the hyperparameters the paper studies —
   surrogate function / derivative scale (:mod:`repro.core.surrogate_sweep`,
   Figure 1), beta x theta (:mod:`repro.core.beta_theta_sweep`, Figure 2),
   adaptation strength x beta over the adaptive-threshold substrate
   (:mod:`repro.core.adaptive_sweep`) —
   and compare against prior work (:mod:`repro.core.comparison`).
"""

from repro.core.config import ExperimentConfig, ReproScale, SCALE_PRESETS, resolve_scale
from repro.core.network import SpikingCNN, SpikingMLP, build_paper_network
from repro.core.experiment import (
    ExperimentRecord,
    evaluate_trained_model,
    run_experiment,
)
from repro.core.surrogate_sweep import SurrogateSweepResult, run_surrogate_sweep, format_figure1
from repro.core.beta_theta_sweep import BetaThetaSweepResult, run_beta_theta_sweep, format_figure2
from repro.core.adaptive_sweep import (
    AdaptiveSweepResult,
    format_adaptive_sweep,
    run_adaptive_threshold_sweep,
)
from repro.core.comparison import PriorWorkComparison, run_prior_work_comparison, format_comparison_table
from repro.core.encoding_ablation import EncodingAblationResult, run_encoding_ablation
from repro.core.results import ResultStore

__all__ = [
    "ExperimentConfig",
    "ReproScale",
    "SCALE_PRESETS",
    "resolve_scale",
    "SpikingCNN",
    "SpikingMLP",
    "build_paper_network",
    "ExperimentRecord",
    "run_experiment",
    "evaluate_trained_model",
    "SurrogateSweepResult",
    "run_surrogate_sweep",
    "format_figure1",
    "BetaThetaSweepResult",
    "run_beta_theta_sweep",
    "format_figure2",
    "AdaptiveSweepResult",
    "run_adaptive_threshold_sweep",
    "format_adaptive_sweep",
    "PriorWorkComparison",
    "run_prior_work_comparison",
    "format_comparison_table",
    "EncodingAblationResult",
    "run_encoding_ablation",
    "ResultStore",
]
