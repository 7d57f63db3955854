"""On-disk registry of servable models.

The registry is the hand-off point between the offline world (sweeps,
training runs) and the serving layer: a trained model is published once
under a name, and any number of serving processes can then load it and
serve it through fp32 compiled plans (:mod:`repro.runtime`).

Layout (one directory per model under the root)::

    <root>/<name>/checkpoint.npz   # weights + architecture + encoder spec + meta
    <root>/<name>/meta.json        # audit copy of the meta (human-readable)

The checkpoint is the single source of truth — the registry meta (config,
metrics, modeled hardware report) rides *inside* it, so one atomic
``os.replace`` publishes weights and meta together and a serving process
can never pair a republished model with the previous model's report.  The
``meta.json`` sidecar is a human-readable audit copy only.  The default
root is ``.repro_registry/models`` under the current working directory,
overridable with ``REPRO_REGISTRY_DIR`` or the ``root`` argument.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.config import ExperimentConfig
from repro.core.experiment import evaluate_trained_model, train_model
from repro.encoding import Encoder
from repro.exec.cache import jsonable
from repro.utils import atomic_write
from repro.nn.module import Module
from repro.training.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_checkpoint_metadata,
    save_checkpoint,
)

PathLike = Union[str, Path]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class RegistryError(KeyError):
    """Raised for unknown model names and malformed registry entries."""


@dataclass
class RegisteredModel:
    """One loaded registry entry, ready to serve.

    Attributes
    ----------
    name:
        Registry name the entry was published under.
    model:
        The reconstructed model (eval mode, weights loaded).
    encoder:
        The input encoder saved with it (``None`` if published without one).
    meta:
        The registry meta stored inside the checkpoint: ``config`` (resolved experiment
        config as plain data), ``accuracy``, ``hardware`` (the *modeled*
        :meth:`~repro.hardware.efficiency.HardwareReport.as_dict` metrics
        used for measured-vs-modeled serving comparisons), ``version``
        (monotonic publish counter for this name), and caller ``metadata``.
    """

    name: str
    model: Module
    encoder: Optional[Encoder]
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def version(self) -> int:
        """Monotonic publish counter (1 = first publish under this name)."""
        return int(self.meta.get("version", 1))

    def modeled_hardware(self) -> Optional[Dict[str, float]]:
        """The modeled hardware metrics published with the model, if any."""
        hardware = self.meta.get("hardware")
        return dict(hardware) if isinstance(hardware, dict) else None


class ModelRegistry:
    """Directory-backed store of named, servable model checkpoints."""

    def __init__(self, root: Optional[PathLike] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_REGISTRY_DIR") or Path(".repro_registry") / "models"
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    def _entry_dir(self, name: str) -> Path:
        if not _NAME_RE.match(name):
            raise RegistryError(
                f"invalid model name {name!r}; use letters, digits, '.', '_', '-' "
                "(must not start with a separator)"
            )
        return self.root / name

    def checkpoint_path(self, name: str) -> Path:
        """Path of ``name``'s single-file checkpoint (the source of truth)."""
        return self._entry_dir(name) / "checkpoint.npz"

    def meta_path(self, name: str) -> Path:
        """Path of ``name``'s human-readable ``meta.json`` audit sidecar."""
        return self._entry_dir(name) / "meta.json"

    def version(self, name: str) -> int:
        """Current publish version of ``name`` (0 when never published).

        The version is a per-name counter maintained by :meth:`save`: the
        first publish is version 1, every republish increments it.  It
        rides inside the checkpoint (atomic with the weights), so a reader
        can never observe a new version paired with old weights or vice
        versa.  Reading it decodes only the checkpoint header, not the
        parameter arrays.

        The increment is a read-modify-write, so it is monotonic under the
        normal one-publisher-per-name workflow but *not* race-free:
        concurrent publishers to the same name can record duplicate
        version numbers (the last atomic replace wins).  Change detection
        must therefore use :meth:`checkpoint_signature`, which is reliable
        regardless; the version is provenance metadata.
        """
        path = self.checkpoint_path(name)
        if not path.exists():
            return 0
        try:
            meta = read_checkpoint_metadata(path).get("registry")
        except CheckpointError:
            # A torn/corrupt entry must not brick republishing over it:
            # the counter restarts, but change detection never relied on
            # it (checkpoint_signature is the reload trigger).
            return 0
        if not isinstance(meta, dict):
            return 0
        return int(meta.get("version", 1))

    def checkpoint_signature(self, name: str) -> Optional[Tuple[int, int, int]]:
        """Cheap change-detection token for ``name``'s checkpoint file.

        Returns ``(st_ino, st_mtime_ns, st_size)`` of the checkpoint — one
        ``stat`` call, no file reads.  Because publishes go through
        ``os.replace`` of a fresh temp file, any republish changes the
        inode, so a signature mismatch is a reliable "something new was
        published" signal (the gateway's hot-reload trigger).  ``None``
        when the model is not registered.
        """
        try:
            stat = self.checkpoint_path(name).stat()
        except OSError:
            return None
        return (stat.st_ino, stat.st_mtime_ns, stat.st_size)

    # ------------------------------------------------------------------ #
    def save(
        self,
        name: str,
        model: Module,
        encoder: Optional[Encoder] = None,
        config: Optional[ExperimentConfig] = None,
        accuracy: Optional[float] = None,
        hardware: Optional[Any] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Publish a model under ``name`` (atomic; replaces any previous entry).

        Every publish bumps the entry's monotonic ``version`` (stored inside
        the checkpoint, atomic with the weights) — the signal a running
        :class:`~repro.serve.gateway.ServeGateway` uses to hot-reload.

        Parameters
        ----------
        name:
            Registry name (letters, digits, ``.``, ``_``, ``-``).
        model, encoder:
            The trained model and the encoder inference requests go through.
        config:
            The experiment configuration that produced the model (stored as
            plain data for auditing).
        accuracy:
            Test accuracy measured offline.
        hardware:
            The modeled :class:`~repro.hardware.efficiency.HardwareReport`
            (or an equivalent ``as_dict()``-style mapping) for this model —
            the prediction that serving telemetry compares measured numbers
            against.
        metadata:
            Free-form JSON-serialisable payload.
        """
        entry = self._entry_dir(name)
        entry.mkdir(parents=True, exist_ok=True)
        hardware_dict: Optional[Dict[str, Any]] = None
        if hardware is not None:
            hardware_dict = dict(hardware.as_dict()) if hasattr(hardware, "as_dict") else dict(hardware)
        meta = {
            "name": name,
            "version": self.version(name) + 1,
            "config": jsonable(config) if config is not None else None,
            "accuracy": float(accuracy) if accuracy is not None else None,
            "hardware": hardware_dict,
            "metadata": metadata or {},
        }
        # The meta rides inside the checkpoint so weights + meta publish in
        # ONE atomic replace; the JSON sidecar is an audit copy only.
        path = save_checkpoint(self.checkpoint_path(name), model, encoder, metadata={"registry": meta})
        atomic_write(self.meta_path(name), json.dumps(meta, sort_keys=True, indent=2).encode("utf-8"))
        return path

    def load(self, name: str) -> RegisteredModel:
        """Reconstruct a registered model (eval mode) with its encoder and meta."""
        path = self.checkpoint_path(name)
        if not path.exists():
            raise RegistryError(f"no model named {name!r} in registry at {self.root}")
        model, encoder, checkpoint_meta = load_checkpoint(path)
        # Meta comes from the checkpoint itself (atomic with the weights),
        # never from the audit sidecar.
        meta = checkpoint_meta.get("registry") if isinstance(checkpoint_meta, dict) else None
        return RegisteredModel(name=name, model=model, encoder=encoder, meta=meta or {})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelRegistry(root={str(self.root)!r})"


def train_and_register(
    registry: ModelRegistry,
    name: str,
    config: ExperimentConfig,
    accelerator: Any = None,
    verbose: bool = False,
) -> "RegisteredModel":
    """Train one configuration and publish the trained model for serving.

    Runs the exact sweep recipe (:func:`repro.core.experiment.train_model` +
    :func:`~repro.core.experiment.evaluate_trained_model`), then stores the
    trained model, its encoder, the resolved config, the measured accuracy
    and the *modeled* hardware report in the registry — everything the
    serving layer needs to run the model and compare measured throughput
    against the accelerator prediction.  Returns the entry as
    ``registry.load(name)`` yields it (checkpoint round-trip included).
    """
    model, encoder, test_loader, training = train_model(config, verbose=verbose)
    accuracy = training.final_val_accuracy
    _, hardware = evaluate_trained_model(
        model, encoder, test_loader, accelerator=accelerator, accuracy=accuracy
    )
    registry.save(
        name,
        model,
        encoder,
        config=config,
        accuracy=accuracy,
        hardware=hardware,
        metadata={"epochs_run": training.epochs_run},
    )
    return registry.load(name)
