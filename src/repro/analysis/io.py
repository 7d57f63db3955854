"""Result serialisation (JSON and CSV)."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

import numpy as np

PathLike = Union[str, Path]


def _to_serialisable(value):
    """Convert NumPy scalars/arrays to plain Python types for JSON."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _to_serialisable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_serialisable(v) for v in value]
    return value


def save_json(data, path: PathLike) -> Path:
    """Write ``data`` as pretty-printed JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(_to_serialisable(data), handle, indent=2, sort_keys=True)
    return path


def load_json(path: PathLike):
    """Load JSON written by :func:`save_json`."""
    with open(Path(path)) as handle:
        return json.load(handle)


def save_csv(rows: Sequence[Dict[str, object]], path: PathLike) -> Path:
    """Write a list of flat dictionaries as CSV (union of keys as header)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return path
    fieldnames: List[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _to_serialisable(v) for k, v in row.items()})
    return path
