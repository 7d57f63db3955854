#!/usr/bin/env python3
"""Extension scenario: plug a custom surrogate gradient into the pipeline.

The paper frames the surrogate function as a first-class hardware
hyperparameter.  This example shows how a user extends the library with a
new surrogate (a Gaussian-derivative surrogate), registers it, and runs the
same train-profile-map pipeline to see where it lands between the paper's
arctangent and fast sigmoid.

Run:
    python examples/custom_surrogate.py
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.analysis import format_table
from repro.core import ExperimentConfig, resolve_scale, run_experiment
from repro.surrogate import SurrogateFunction, register_surrogate


#: The error function, element by element (NumPy has none of its own).
_erf = np.vectorize(math.erf, otypes=[np.float64])


@register_surrogate
class GaussianSurrogate(SurrogateFunction):
    """Gaussian surrogate: dS/dU = scale * exp(-(scale * U)^2 / 2) / sqrt(2 pi)."""

    name = "gaussian"

    def __init__(self, scale: float = 1.0) -> None:
        super().__init__(scale)

    def forward_smooth(self, u: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 + _erf(self.scale * np.asarray(u) / np.sqrt(2.0)))

    def derivative(self, u: np.ndarray) -> np.ndarray:
        # A new array each call: the spike's backward may write into it.
        z = self.scale * np.asarray(u)
        return self.scale * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def main() -> None:
    scale = resolve_scale(os.environ.get("REPRO_SCALE"))
    rows = []
    for surrogate_name in ("arctan", "fast_sigmoid", "gaussian"):
        config = ExperimentConfig(
            surrogate=surrogate_name,
            surrogate_scale=0.5,
            scale=scale,
            label=f"{surrogate_name}(0.5)",
        )
        print(f"training with the {surrogate_name} surrogate ...")
        record = run_experiment(config)
        rows.append(
            [
                surrogate_name,
                record.accuracy,
                record.hardware.firing_rate,
                record.hardware.sparsity,
                record.hardware.latency_ms,
                record.hardware.fps_per_watt,
            ]
        )

    print()
    print(
        format_table(
            ["surrogate", "accuracy", "firing_rate", "sparsity", "latency_ms", "FPS/W"],
            rows,
            title="Custom surrogate vs the paper's two (same scale factor, same data)",
        )
    )


if __name__ == "__main__":
    main()
