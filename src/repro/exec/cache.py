"""Content-addressed on-disk cache for experiment records.

A sweep cell is fully determined by its resolved
:class:`~repro.core.config.ExperimentConfig` (every RNG in the pipeline —
dataset synthesis, train/test split, weight init, encoders, batch shuffling —
is seeded from config fields), the accelerator model it is evaluated on, and
the code that trains it.  The cache key is therefore a SHA-256 digest over:

* the full config as a nested dict (including the :class:`ReproScale`),
* a fingerprint of the accelerator (class name + its dataclass config),
* code-relevant versions: the package version, NumPy's version, the cache
  schema version, and :data:`TRAINING_CODE_VERSION` — a marker that must be
  bumped whenever a change alters training numerics (optimizer math, LIF
  step semantics, loss definitions, ...), which invalidates every cached
  record at once.

Records are stored as pickles (they are plain dataclass trees).

Layout::

    <root>/<key[:2]>/<key>.pkl    # pickled ExperimentRecord

The default root is ``.repro_cache/experiments`` under the current working
directory, overridable with the ``REPRO_CACHE_DIR`` environment variable or
the ``root`` argument.  The cache is only that directory: delete it to clear
the cache or to free space.  A :data:`TRAINING_CODE_VERSION` bump leaves
the old records on disk, unreachable, until then.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

import numpy as np

from repro.utils import atomic_write

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import ExperimentConfig
    from repro.core.experiment import ExperimentRecord

#: Bump when what a hit reads changes: the pickle path or the key payload's
#: structure.  Records stored under an older schema are then never read.
CACHE_SCHEMA_VERSION = 2

#: Bump whenever a code change alters training/evaluation numerics, so that
#: stale records can never be served for results the current code would not
#: reproduce.  The suffix names the change that last required a bump.
TRAINING_CODE_VERSION = "5-tall-image-conv"

PathLike = Union[str, Path]


def jsonable(value: Any) -> Any:
    """Coerce a value into something ``json.dumps`` renders deterministically.

    Arrays are rendered as a shape/dtype/content digest (their repr elides
    elements, which could make distinct values collide); anything else
    unrecognised falls back to ``repr``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return {
            "ndarray": {
                "shape": list(value.shape),
                "dtype": str(value.dtype),
                "sha256": hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest(),
            }
        }
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _accelerator_fingerprint(accelerator: Any) -> Optional[Dict[str, Any]]:
    """Stable description of the hardware model a record was evaluated on.

    Covers every public attribute (for the repo's accelerators these are all
    dataclasses: config, power/cost/latency models, mapping config), so a
    differently-calibrated platform never collides with a cached record.  An
    exotic attribute whose repr is not stable merely makes the key unstable
    — a cache miss and a retrain, never a stale hit.
    """
    if accelerator is None:
        return None
    fingerprint: Dict[str, Any] = {"class": type(accelerator).__name__}
    attrs = {
        name: jsonable(value)
        for name, value in sorted(vars(accelerator).items())
        if not name.startswith("_")
    }
    if attrs:
        fingerprint["attrs"] = attrs
    return fingerprint


def _key_payload(config: "ExperimentConfig", accelerator: Any = None) -> Dict[str, Any]:
    """Everything the cache key covers, hashed by :func:`experiment_cache_key`."""
    import repro

    config_dict = jsonable(config)
    # The label is a cosmetic report string with no effect on training, and
    # different sweeps label identical hyperparameters differently (e.g. the
    # Figure 2 grid cell "beta=0.7, theta=1.5" vs the comparison's
    # "beta=0.7, theta=1.5 (vs prior work)").  Excluding it lets those
    # sweeps share cached trainings; the executor re-labels served records.
    config_dict.pop("label", None)
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "code": TRAINING_CODE_VERSION,
        "repro_version": repro.__version__,
        "numpy_version": np.__version__,
        "config": config_dict,
        "accelerator": _accelerator_fingerprint(accelerator),
    }


def experiment_cache_key(config: "ExperimentConfig", accelerator: Any = None) -> str:
    """SHA-256 content key for one experiment cell (see module docstring)."""
    payload = _key_payload(config, accelerator=accelerator)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ExperimentCache:
    """Content-addressed store of :class:`ExperimentRecord` pickles.

    Parameters
    ----------
    root:
        Cache directory.  Defaults to ``$REPRO_CACHE_DIR`` or
        ``.repro_cache/experiments`` under the current working directory.

    Attributes
    ----------
    hits, misses, stores:
        Running counts for this cache instance, kept nowhere else (used by
        benchmarks and the warm-rerun acceptance test: a fully warm sweep
        re-run must report ``misses == 0``).
    """

    def __init__(self, root: Optional[PathLike] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or Path(".repro_cache") / "experiments"
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------ #
    def key(self, config: "ExperimentConfig", accelerator: Any = None) -> str:
        """The content key a record for this configuration is stored under."""
        return experiment_cache_key(config, accelerator=accelerator)

    def path_for(self, key: str) -> Path:
        """On-disk pickle path for ``key`` (``<root>/<key[:2]>/<key>.pkl``)."""
        return self.root / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------ #
    def load(self, key: str) -> Optional["ExperimentRecord"]:
        """Return the cached record for ``key``, or ``None`` on a miss.

        A corrupt or unreadable entry counts as a miss (it will be
        re-trained and overwritten) rather than failing the sweep.
        """
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            with open(path, "rb") as fh:
                record = pickle.load(fh)
        except Exception:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def store(self, key: str, record: "ExperimentRecord") -> Path:
        """Persist one record under its content key (atomic rename).

        The pickle is published with a unique temp file and ``os.replace``,
        so concurrent sweeps sharing a cache directory can both store the
        same key (last writer wins) and it can never be observed
        half-written.
        """
        path = self.path_for(key)
        atomic_write(path, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        self.stores += 1
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExperimentCache(root={str(self.root)!r}, hits={self.hits}, misses={self.misses})"
