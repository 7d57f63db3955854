"""Analysis and reporting utilities.

* :mod:`repro.analysis.sparsity` — the per-layer firing-rate record that
  bridges training and the hardware model (measured by the runtime).
* :mod:`repro.analysis.pareto` — accuracy-vs-efficiency Pareto fronts.
* :mod:`repro.analysis.tables` — aligned ASCII tables for terminal output.
* :mod:`repro.analysis.plots` — dependency-free ASCII line/heatmap plots for
  the figures (no matplotlib available offline).
* :mod:`repro.analysis.io` — CSV/JSON result serialisation.
"""

from repro.analysis.sparsity import SparsityProfile
from repro.analysis.pareto import pareto_front, dominates
from repro.analysis.tables import format_table
from repro.analysis.plots import ascii_line_plot, ascii_heatmap
from repro.analysis.io import save_json, load_json, save_csv

__all__ = [
    "SparsityProfile",
    "pareto_front",
    "dominates",
    "format_table",
    "ascii_line_plot",
    "ascii_heatmap",
    "save_json",
    "load_json",
    "save_csv",
]
