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

Records are stored as pickles (they are plain dataclass trees) next to a
small JSON sidecar holding the hashed payload, so a cache directory can be
audited without unpickling anything.

Layout::

    <root>/<key[:2]>/<key>.pkl    # pickled ExperimentRecord
    <root>/<key[:2]>/<key>.json   # human-readable key payload

The default root is ``.repro_cache/experiments`` under the current working
directory, overridable with the ``REPRO_CACHE_DIR`` environment variable or
the ``root`` argument.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

import numpy as np

from repro.obs.metrics import default_registry
from repro.utils import atomic_write

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import ExperimentConfig
    from repro.core.experiment import ExperimentRecord

#: Bump when the on-disk layout or key payload structure changes.
CACHE_SCHEMA_VERSION = 2

#: Bump whenever a code change alters training/evaluation numerics, so that
#: stale records can never be served for results the current code would not
#: reproduce.  The suffix names the change that last required a bump.
TRAINING_CODE_VERSION = "5-tall-image-conv"

PathLike = Union[str, Path]


@dataclass(frozen=True)
class CacheEntry:
    """One stored record as seen by the inspection/eviction machinery.

    Attributes
    ----------
    key:
        Full content key (the pickle's stem).
    size_bytes:
        Pickle plus sidecar size on disk.
    last_used:
        POSIX timestamp of the last store *or cache hit* (loads touch the
        pickle's mtime, which is what makes the sweep LRU rather than FIFO).
    summary:
        Human-readable hyperparameter summary parsed from the JSON sidecar
        (empty when the sidecar is missing or unreadable).
    """

    key: str
    size_bytes: int
    last_used: float
    summary: str = ""


def _summarise_sidecar(sidecar: Path) -> str:
    """One-line config summary from a key-payload sidecar (best effort).

    A *missing* sidecar yields an empty summary; one that exists but cannot
    be parsed is reported as corrupt rather than silently blank, so
    ``repro.exec inspect`` surfaces on-disk damage instead of hiding it.
    """
    try:
        payload = json.loads(sidecar.read_text())
    except OSError:
        return "<unreadable sidecar>" if sidecar.exists() else ""
    except ValueError:
        return "<corrupt sidecar (not valid JSON)>"
    config = payload.get("config", {})
    if not isinstance(config, dict):
        return "<corrupt sidecar (unexpected structure)>"
    parts = []
    for field_name in ("surrogate", "surrogate_scale", "beta", "threshold", "encoder"):
        if field_name in config:
            parts.append(f"{field_name}={config[field_name]}")
    scale = config.get("scale")
    if isinstance(scale, dict) and "name" in scale:
        parts.append(f"scale={scale['name']}")
    return " ".join(str(p) for p in parts)


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
    """Everything the cache key covers — hashed by :func:`experiment_cache_key`
    and written verbatim (pretty-printed) as the audit sidecar."""
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


def key_payload_json(config: "ExperimentConfig", accelerator: Any = None) -> str:
    """The pretty-printed key payload, written as the sidecar for auditing."""
    payload = _key_payload(config, accelerator=accelerator)
    return json.dumps(payload, sort_keys=True, indent=2)


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
        Running counters for this cache instance (used by benchmarks and the
        warm-rerun acceptance test: a fully warm sweep re-run must report
        ``misses == 0``).
    """

    def __init__(self, root: Optional[PathLike] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or Path(".repro_cache") / "experiments"
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        # Per-instance attribute counters above stay the benchmark/test API;
        # the process-wide registry instruments below aggregate across every
        # cache instance for /metrics scrapes.
        registry = default_registry()
        self._m_hits = registry.counter(
            "repro_exec_cache_hits_total", "Experiment-cache lookups served from disk."
        )
        self._m_misses = registry.counter(
            "repro_exec_cache_misses_total",
            "Experiment-cache lookups that missed (absent or unreadable entry).",
        )
        self._m_stores = registry.counter(
            "repro_exec_cache_stores_total", "Experiment records persisted to the cache."
        )

    # ------------------------------------------------------------------ #
    def key(self, config: "ExperimentConfig", accelerator: Any = None) -> str:
        """The content key a record for this configuration is stored under."""
        return experiment_cache_key(config, accelerator=accelerator)

    def path_for(self, key: str) -> Path:
        """On-disk pickle path for ``key`` (``<root>/<key[:2]>/<key>.pkl``)."""
        return self.root / key[:2] / f"{key}.pkl"

    def contains(self, key: str) -> bool:
        """Whether a record is stored under ``key`` (no unpickling)."""
        return self.path_for(key).exists()

    # ------------------------------------------------------------------ #
    def load(self, key: str) -> Optional["ExperimentRecord"]:
        """Return the cached record for ``key``, or ``None`` on a miss.

        A corrupt or unreadable entry counts as a miss (it will be
        re-trained and overwritten) rather than failing the sweep.
        """
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            self._m_misses.inc()
            return None
        try:
            with open(path, "rb") as fh:
                record = pickle.load(fh)
        except Exception:
            self.misses += 1
            self._m_misses.inc()
            return None
        # Touch the entry so the size-budget sweep evicts least-recently
        # *used* records, not merely least-recently written ones.
        with contextlib.suppress(OSError):
            os.utime(path)
        self.hits += 1
        self._m_hits.inc()
        return record

    def store(self, key: str, record: "ExperimentRecord", accelerator: Any = None) -> Path:
        """Persist one record under its content key (atomic rename).

        Both the pickle and its JSON audit sidecar are published with the
        same unique-temp-file + ``os.replace`` pattern, so concurrent sweeps
        sharing a cache directory can both store the same key (last writer
        wins) and neither file can ever be observed half-written.
        """
        path = self.path_for(key)
        atomic_write(path, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        atomic_write(
            path.with_suffix(".json"),
            key_payload_json(record.config, accelerator=accelerator).encode("utf-8"),
        )
        self.stores += 1
        self._m_stores.inc()
        return path

    # ------------------------------------------------------------------ #
    # Inspection and eviction
    # ------------------------------------------------------------------ #
    def entries(self) -> List[CacheEntry]:
        """Every stored record, most recently used first."""
        found: List[CacheEntry] = []
        if not self.root.exists():
            return found
        for path in self.root.glob("*/*.pkl"):
            sidecar = path.with_suffix(".json")
            try:
                stat = path.stat()
            except OSError:
                continue  # racing remover
            size = stat.st_size
            with contextlib.suppress(OSError):
                size += sidecar.stat().st_size
            found.append(
                CacheEntry(
                    key=path.stem,
                    size_bytes=size,
                    last_used=stat.st_mtime,
                    summary=_summarise_sidecar(sidecar),
                )
            )
        found.sort(key=lambda entry: entry.last_used, reverse=True)
        return found

    def total_bytes(self) -> int:
        """Bytes occupied by every pickle + sidecar under the root."""
        return sum(entry.size_bytes for entry in self.entries())

    def remove(self, key: str) -> bool:
        """Delete one entry (pickle + sidecar); returns whether it existed."""
        path = self.path_for(key)
        existed = path.exists()
        path.unlink(missing_ok=True)
        path.with_suffix(".json").unlink(missing_ok=True)
        return existed

    def sweep(self, max_bytes: int) -> List[CacheEntry]:
        """Evict least-recently-used entries until the cache fits ``max_bytes``.

        Returns the evicted entries (oldest first).  A ``max_bytes`` of zero
        clears everything; a budget the cache already fits evicts nothing.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        entries = self.entries()
        total = sum(entry.size_bytes for entry in entries)
        evicted: List[CacheEntry] = []
        for entry in reversed(entries):  # least recently used first
            if total <= max_bytes:
                break
            self.remove(entry.key)
            total -= entry.size_bytes
            evicted.append(entry)
        return evicted

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every cached entry; returns how many records were removed.

        Also reclaims stale ``*.tmp`` files orphaned by killed writers,
        which :meth:`entries` (and therefore :meth:`sweep`) never see.
        """
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.pkl"):
            sidecar = path.with_suffix(".json")
            path.unlink(missing_ok=True)
            sidecar.unlink(missing_ok=True)
            removed += 1
        for stale in self.root.glob("*/*.tmp"):
            stale.unlink(missing_ok=True)
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExperimentCache(root={str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
