"""On-disk registry of servable models.

The registry is the hand-off point between the offline world (sweeps,
training runs) and the serving layer: a trained model is published once
under a name, and any number of serving processes can then load it, compile
it into an inference plan (:mod:`repro.runtime`), and keep a pool of
reusable compiled plans for it.

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
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.config import ExperimentConfig
from repro.core.experiment import evaluate_trained_model, train_model
from repro.encoding import Encoder
from repro.exec.cache import jsonable
from repro.hardware.quantization import QuantizationConfig, quantize_model
from repro.utils import atomic_write
from repro.nn.module import Module
from repro.runtime.engine import (
    AccuracyDelta,
    AccuracyGateError,
    INT_PRECISION_BITS,
    compile_network,
    default_input_scale,
)
from repro.runtime.pool import CompiledNetworkPool
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


def quantization_pool_kwargs(spec: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Translate a published quantization spec into compile/pool arguments.

    A spec is the plain JSON dict stored by :meth:`ModelRegistry.save`
    (``precision``, ``weight_bits``, ``clip_percentile``, ``input_scale``).
    Returns the keyword arguments
    :class:`~repro.runtime.pool.CompiledNetworkPool` (and
    :func:`~repro.runtime.engine.compile_network`) take — empty for ``None``
    (full-precision serving).  Raises :class:`RegistryError` on malformed
    specs so a bad publish fails at activation, not mid-batch.
    """
    if spec is None:
        return {}
    if not isinstance(spec, dict):
        raise RegistryError(f"malformed quantization spec (expected a dict): {spec!r}")
    precision = spec.get("precision")
    if precision not in INT_PRECISION_BITS:
        raise RegistryError(
            f"quantization spec has unknown precision {precision!r}; "
            f"supported: {sorted(INT_PRECISION_BITS)}"
        )
    bits = INT_PRECISION_BITS[precision]
    if int(spec.get("weight_bits", bits)) != bits:
        raise RegistryError(
            f"quantization spec weight_bits={spec.get('weight_bits')} does not "
            f"match precision {precision!r} ({bits} bits)"
        )
    config = QuantizationConfig(
        weight_bits=bits,
        clip_percentile=float(spec.get("clip_percentile", 100.0)),
    )
    return {
        "precision": precision,
        "quantization": config,
        "input_scale": float(spec.get("input_scale", 1.0)),
    }


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

    @property
    def quantization(self) -> Optional[Dict[str, Any]]:
        """The quantization spec the entry was published with (``None`` = full precision)."""
        spec = self.meta.get("quantization")
        return dict(spec) if isinstance(spec, dict) else None

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

    def __contains__(self, name: str) -> bool:
        try:
            return self.checkpoint_path(name).exists()
        except RegistryError:
            return False

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

    def names(self) -> List[str]:
        """Registered model names, sorted."""
        if not self.root.exists():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and (entry / "checkpoint.npz").exists()
        )

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
        quantization: Optional[Dict[str, Any]] = None,
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
        quantization:
            Optional quantization spec (see :func:`quantization_pool_kwargs`)
            declaring the precision the published weights should be served
            at.  Validated here so a malformed spec fails the publish, and
            stored both in the registry meta and in the checkpoint header
            (:func:`~repro.training.checkpoint.read_checkpoint_quantization`).
            Prefer :meth:`save_quantized`, which also enforces the accuracy
            gate before the spec can go live.
        """
        if quantization is not None:
            quantization_pool_kwargs(quantization)  # validate before writing anything
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
            "quantization": quantization,
        }
        # The meta rides inside the checkpoint so weights + meta publish in
        # ONE atomic replace; the JSON sidecar is an audit copy only.  The
        # spec is duplicated into the checkpoint header so standalone
        # checkpoint readers see it without registry conventions.
        path = save_checkpoint(
            self.checkpoint_path(name),
            model,
            encoder,
            metadata={"registry": meta},
            quantization=quantization,
        )
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

    def compiled_pool(self, name: str, max_idle: int = 4) -> Tuple[RegisteredModel, CompiledNetworkPool]:
        """Load a model and wrap it in a :class:`CompiledNetworkPool`.

        The pool compiles at the precision the entry was *published* at: a
        model saved through :meth:`save_quantized` comes back as a pool of
        int8/int16 plans, a plain :meth:`save` as the default float path.
        """
        entry = self.load(name)
        kwargs = quantization_pool_kwargs(entry.quantization)
        return entry, CompiledNetworkPool(entry.model, max_idle=max_idle, **kwargs)

    def save_quantized(
        self,
        name: str,
        model: Module,
        encoder: Encoder,
        loader: Any,
        precision: str = "int8",
        max_accuracy_drop: float = 0.02,
        clip_percentile: float = 100.0,
        max_batches: Optional[int] = None,
        config: Optional[ExperimentConfig] = None,
        hardware: Optional[Any] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Tuple[Path, AccuracyDelta]:
        """Quantize ``model`` and publish it — gated on the accuracy budget.

        The publish-time arm of the accuracy-delta gate:

        1. every batch from ``loader`` is encoded **once** and the float64
           reference plan is evaluated on those spike trains (fully, before
           any mutation — compiled plans reference the weights live);
        2. the model is fake-quantized in place
           (:func:`~repro.hardware.quantization.quantize_model`, which
           snapshots the originals), and the ``precision`` integer plan is
           evaluated on the *same* spike trains;
        3. if the top-1 drop exceeds ``max_accuracy_drop``, the snapshot is
           restored — the caller's model is returned to its exact original
           weights — and :class:`~repro.runtime.engine.AccuracyGateError`
           is raised: nothing is published;
        4. otherwise the quantized weights are published with a
           ``quantization`` spec recording precision, scales policy, input
           scale, the budget and both measured accuracies — and the
           caller's model is *also* restored, so a successful publish does
           not leave the training-side model quantized.

        Publishing the fake-quantized weights (the exact integer lattice in
        float form) makes the round trip faithful: integer re-quantization
        of these weights is idempotent, so the plans a gateway compiles from
        the checkpoint execute exactly the lattice that passed the gate.

        Returns ``(checkpoint_path, delta)``.
        """
        if precision not in INT_PRECISION_BITS:
            raise RegistryError(
                f"save_quantized publishes integer precisions, got {precision!r}"
            )
        qconfig = QuantizationConfig(
            weight_bits=INT_PRECISION_BITS[precision], clip_percentile=clip_percentile
        )
        input_scale = default_input_scale(encoder)

        # Encode once; both plans must see identical spike trains (encoders
        # may be stochastic).  Bound memory with max_batches on large sets.
        encoded: List[Tuple[Any, np.ndarray]] = []
        for images, labels in loader:
            encoded.append((encoder(images), np.asarray(labels)))
            if max_batches is not None and len(encoded) >= max_batches:
                break
        if not encoded:
            raise ValueError("loader yielded no samples to gate on")

        baseline_plan = compile_network(model, precision="fp64")
        base_results = [
            (baseline_plan.run(spikes, record_activity=False).predictions(), labels)
            for spikes, labels in encoded
        ]

        report = quantize_model(model, qconfig)
        try:
            quant_plan = compile_network(
                model, precision=precision, quantization=qconfig, input_scale=input_scale
            )
            total = base_correct = quant_correct = agree = 0
            for (base_preds, labels), (spikes, _) in zip(base_results, encoded):
                quant_preds = quant_plan.run(spikes, record_activity=False).predictions()
                base_correct += int((base_preds == labels).sum())
                quant_correct += int((quant_preds == labels).sum())
                agree += int((base_preds == quant_preds).sum())
                total += len(labels)
            delta = AccuracyDelta(
                baseline_accuracy=base_correct / total,
                quantized_accuracy=quant_correct / total,
                precision=precision,
                baseline_precision="fp64",
                samples=total,
                agreement=agree / total,
                max_accuracy_drop=float(max_accuracy_drop),
            )
            if not delta.passed:
                raise AccuracyGateError(delta)
            spec = {
                "precision": precision,
                "weight_bits": qconfig.weight_bits,
                "clip_percentile": qconfig.clip_percentile,
                "input_scale": input_scale,
                "max_accuracy_drop": float(max_accuracy_drop),
                "baseline_accuracy": delta.baseline_accuracy,
                "quantized_accuracy": delta.quantized_accuracy,
            }
            path = self.save(
                name,
                model,
                encoder,
                config=config,
                accuracy=delta.quantized_accuracy,
                hardware=hardware,
                metadata=metadata,
                quantization=spec,
            )
        finally:
            # Success or failure, the caller's model leaves with its
            # original (unquantized) weights — the rollback the snapshot
            # exists for.
            report.restore(model)
        return path, delta

    def remove(self, name: str) -> bool:
        """Delete a registry entry; returns whether it existed."""
        entry = self._entry_dir(name)
        if not entry.exists():
            return False
        shutil.rmtree(entry)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelRegistry(root={str(self.root)!r}, models={self.names()})"


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
