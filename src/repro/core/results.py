"""Persistent store for experiment results.

Sweeps are expensive (each cell trains a network), so the harness persists
every record to JSON as soon as it is available.  The benchmarks append
their headline numbers to one (``benchmarks/results/measured.json``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Union

from repro.analysis.io import load_json, save_json

PathLike = Union[str, Path]


@dataclass
class StoredResult:
    """One flattened result row with provenance.

    Attributes
    ----------
    experiment:
        Experiment identifier (e.g. ``"figure1"``, ``"figure2"``).
    label:
        Configuration label within the experiment.
    metrics:
        Flat metric dictionary (accuracy, latency, FPS/W, ...).
    """

    experiment: str
    label: str
    metrics: Dict[str, float]


class ResultStore:
    """Append-only JSON-backed store of experiment results.

    Parameters
    ----------
    path:
        JSON file backing the store.  Created on first save.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._results: List[StoredResult] = []
        if self.path.exists():
            for item in load_json(self.path):
                self._results.append(StoredResult(**item))

    def __len__(self) -> int:
        return len(self._results)

    def add(self, experiment: str, label: str, metrics: Dict[str, float]) -> StoredResult:
        """Add one result row and persist the store."""
        result = StoredResult(
            experiment=experiment,
            label=label,
            metrics={k: float(v) for k, v in metrics.items() if isinstance(v, (int, float))},
        )
        self._results.append(result)
        self.save()
        return result

    def save(self) -> Path:
        return save_json([asdict(r) for r in self._results], self.path)
