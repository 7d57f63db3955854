#!/usr/bin/env python3
"""Figure 2 scenario: cross-sweep beta and theta to find the latency optimum.

Reproduces the paper's second experiment: with the fast-sigmoid surrogate
fixed at slope 0.25, sweep the membrane leak ``beta`` against the firing
threshold ``theta``, render the accuracy and latency grids, and apply the
paper's selection rule (lowest latency within a small accuracy budget) to
pick the deployment configuration.  The paper's selection (``beta = 0.5``,
``theta = 1.5``) cut latency by 48% for a 2.88% accuracy loss.

Run:
    python examples/beta_theta_tuning.py
    python examples/beta_theta_tuning.py --betas 0.25 0.5 0.7 --thetas 1.0 1.5 2.5 --budget 0.03
    python examples/beta_theta_tuning.py --workers 4 --cache   # parallel + cached
"""

from __future__ import annotations

import argparse
import os

from repro.analysis import pareto_front, save_csv
from repro.core import format_figure2, run_beta_theta_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--betas", type=float, nargs="+", default=[0.25, 0.5, 0.7])
    parser.add_argument("--thetas", type=float, nargs="+", default=[1.0, 1.5, 2.5])
    parser.add_argument(
        "--budget",
        type=float,
        default=0.05,
        help="maximum accuracy loss accepted when selecting the trade-off point",
    )
    parser.add_argument("--output-csv", default=None)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size for the sweep (default serial, or REPRO_SWEEP_WORKERS)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="cache trained cells under .repro_cache/ so re-runs and grid "
        "extensions only train new configurations",
    )
    args = parser.parse_args()

    scale_preset = os.environ.get("REPRO_SCALE", "bench")
    print(
        f"running the Figure 2 cross-sweep at scale '{scale_preset}' "
        f"over beta={args.betas}, theta={args.thetas}"
    )
    sweep = run_beta_theta_sweep(
        betas=args.betas,
        thetas=args.thetas,
        scale_preset=scale_preset,
        workers=args.workers,
        cache=args.cache,
    )

    print()
    print(format_figure2(sweep, max_accuracy_loss=args.budget))

    # Accuracy/latency Pareto front over the grid (latency negated: lower is better).
    records = list(sweep.records.items())
    front = pareto_front(records, objectives=lambda kv: (kv[1].accuracy, -kv[1].hardware.latency_ms))
    print("\nPareto-optimal (accuracy, latency) configurations:")
    for (beta, theta), record in front:
        print(
            f"  beta={beta:g}, theta={theta:g}: accuracy {record.accuracy:.2%}, "
            f"latency {record.hardware.latency_ms:.4f} ms, {record.hardware.fps_per_watt:.0f} FPS/W"
        )

    if args.output_csv:
        path = save_csv(sweep.rows(), args.output_csv)
        print(f"\nwrote grid results to {path}")


if __name__ == "__main__":
    main()
