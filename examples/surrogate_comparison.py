#!/usr/bin/env python3
"""Figure 1 scenario: compare surrogate gradients and their scaling factors.

Reproduces the paper's first experiment at a configurable scale: sweep the
derivative scaling factor for the arctangent and fast-sigmoid surrogates
(with ``beta``/``theta`` at their defaults) and report accuracy, firing rate
and accelerator efficiency per point, including the prior-work accuracy
reference line.

Run:
    python examples/surrogate_comparison.py                  # bench scale
    REPRO_SCALE=smoke python examples/surrogate_comparison.py  # fast sanity run
    REPRO_SCALE=full python examples/surrogate_comparison.py   # closer to the paper

The sweep grid can be narrowed/widened with --scales.
"""

from __future__ import annotations

import argparse
import os

from repro.analysis import save_csv
from repro.core import format_figure1, run_surrogate_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scales",
        type=float,
        nargs="+",
        default=[0.5, 2.0, 8.0, 32.0],
        help="derivative scaling factors to sweep (paper: 0.5 ... 32)",
    )
    parser.add_argument(
        "--output-csv",
        default=None,
        help="optional path to write the per-point results as CSV",
    )
    args = parser.parse_args()

    scale_preset = os.environ.get("REPRO_SCALE", "bench")
    print(f"running the Figure 1 sweep at scale '{scale_preset}' over factors {args.scales}")
    sweep = run_surrogate_sweep(scales=args.scales, scale_preset=scale_preset)

    print()
    print(format_figure1(sweep))

    if args.output_csv:
        path = save_csv(sweep.rows(), args.output_csv)
        print(f"\nwrote per-point results to {path}")


if __name__ == "__main__":
    main()
