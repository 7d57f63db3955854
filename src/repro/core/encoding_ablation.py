"""Encoding ablation (extension experiment).

The paper's introduction identifies the input coding scheme as the primary
driver of SNN sparsity and positions hyperparameter tuning as a complementary
knob.  This ablation quantifies that claim on the reproduction: the same
network and hyperparameters are trained under different input encoders and
evaluated on the hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.core.config import ExperimentConfig, resolve_scale
from repro.core.experiment import ExperimentRecord
from repro.hardware.accelerator import SparsityAwareAccelerator

#: Encoders compared by the ablation.
DEFAULT_ENCODERS: Sequence[str] = ("rate", "latency", "direct")


@dataclass
class EncodingAblationResult:
    """Records of the encoder ablation, keyed by encoder name."""

    records: Dict[str, ExperimentRecord]

    def rows(self) -> List[Dict[str, float]]:
        out = []
        for encoder, record in self.records.items():
            out.append(
                {
                    "encoder": encoder,
                    "accuracy": record.accuracy,
                    "firing_rate": record.hardware.firing_rate,
                    "sparsity": record.hardware.sparsity,
                    "latency_ms": record.hardware.latency_ms,
                    "fps_per_watt": record.hardware.fps_per_watt,
                }
            )
        return out

    def format(self) -> str:
        headers = ["encoder", "accuracy", "firing_rate", "sparsity", "latency_ms", "FPS/W"]
        rows = [
            [r["encoder"], r["accuracy"], r["firing_rate"], r["sparsity"], r["latency_ms"], r["fps_per_watt"]]
            for r in self.rows()
        ]
        return format_table(headers, rows, title="Encoding ablation (extension)")


def run_encoding_ablation(
    encoders: Optional[Sequence[str]] = None,
    base_config: Optional[ExperimentConfig] = None,
    scale_preset: Optional[str] = None,
    accelerator: Optional[SparsityAwareAccelerator] = None,
    verbose: bool = False,
    workers: Optional[int] = None,
    cache=None,
) -> EncodingAblationResult:
    """Train the same configuration under several input encoders.

    ``workers`` and ``cache`` are forwarded to
    :func:`repro.exec.run_experiments` (process-pool parallelism and the
    experiment result cache).
    """
    from repro.exec import run_experiments

    encoders = list(encoders) if encoders is not None else list(DEFAULT_ENCODERS)
    repro_scale = resolve_scale(scale_preset)
    if base_config is None:
        base_config = ExperimentConfig(scale=repro_scale)
    elif scale_preset is not None:
        base_config = base_config.with_overrides(scale=repro_scale)

    configs = [
        base_config.with_overrides(encoder=encoder, label=f"encoder={encoder}")
        for encoder in encoders
    ]
    flat = run_experiments(
        configs,
        workers=workers,
        cache=cache,
        accelerator=accelerator,
        verbose=verbose,
    )
    return EncodingAblationResult(records=dict(zip(encoders, flat)))
