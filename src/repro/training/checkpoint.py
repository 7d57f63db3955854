"""Single-file model checkpoints (weights + architecture + encoder spec).

A checkpoint is one ``.npz`` archive holding every parameter from
``model.state_dict()`` plus a JSON header describing how to rebuild the
model (class, constructor arguments, the neurons' reset rule), the input
encoder it was trained with, and free-form caller metadata.  Loading
reconstructs the model with :func:`~repro.nn.module.Module.load_state_dict`,
so a reloaded model is *bit-identical* to the saved one: its dense forward,
and the inference plan compiled from it, produce exactly the spike
trains of the original (``tests/test_checkpoint.py``).

Only the repo's two classifier architectures (:class:`SpikingCNN`,
:class:`SpikingMLP`) are supported — the same set the runtime can compile —
keeping the header plain data rather than pickled code.  Stochastic
encoders (rate) are restored from their construction seed: the reloaded
encoder restarts its spike stream from the beginning rather than from the
saved generator mid-state.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

import repro
from repro.core.network import SpikingCNN, SpikingMLP
from repro.encoding import DeltaEncoder, DirectEncoder, Encoder, LatencyEncoder, RateEncoder
from repro.neurons.base import RESET_MECHANISMS, SpikingNeuron
from repro.neurons.factory import neuron_descriptor
from repro.nn.module import Module
from repro.utils import atomic_write

#: Bump when the archive layout or header structure changes.
#: 2: content checksum over the parameter arrays added to the header.
CHECKPOINT_FORMAT_VERSION = 2

#: Prefix distinguishing parameter arrays from the header inside the archive.
_PARAM_PREFIX = "param/"
_HEADER_KEY = "__checkpoint__"

PathLike = Union[str, Path]


class CheckpointError(ValueError):
    """Raised when a checkpoint cannot be written or reconstructed."""


class CheckpointIntegrityError(CheckpointError):
    """Raised when a checkpoint file is torn, unreadable, or fails its checksum.

    This is the typed signal the serving layer degrades on: a gateway
    hot-reload that hits it keeps serving the previous weights (the reload
    failure becomes a telemetry event, not an outage), instead of treating
    a corrupt republish like a fatal server error.
    """


# ---------------------------------------------------------------------- #
# Encoder spec
# ---------------------------------------------------------------------- #
_ENCODER_CLASSES = {
    "rate": RateEncoder,
    "latency": LatencyEncoder,
    "delta": DeltaEncoder,
    "direct": DirectEncoder,
}


def encoder_spec(encoder: Encoder) -> Dict[str, Any]:
    """Plain-data description from which :func:`build_encoder` reconstructs."""
    name = getattr(encoder, "name", None)
    if name not in _ENCODER_CLASSES or type(encoder) is not _ENCODER_CLASSES[name]:
        raise CheckpointError(
            f"cannot checkpoint encoder {type(encoder).__name__}; "
            f"supported: {sorted(_ENCODER_CLASSES)}"
        )
    spec: Dict[str, Any] = {"name": name, "num_steps": encoder.num_steps, "seed": encoder.seed}
    if isinstance(encoder, RateEncoder):
        spec["gain"] = encoder.gain
    elif isinstance(encoder, LatencyEncoder):
        spec["threshold"] = encoder.threshold
    elif isinstance(encoder, DeltaEncoder):
        spec["delta_threshold"] = encoder.delta_threshold
    return spec


def build_encoder(spec: Dict[str, Any]) -> Encoder:
    """Reconstruct an encoder from :func:`encoder_spec` output."""
    kwargs = dict(spec)
    name = kwargs.pop("name", None)
    if name not in _ENCODER_CLASSES:
        raise CheckpointError(f"unknown encoder '{name}' in checkpoint; supported: {sorted(_ENCODER_CLASSES)}")
    return _ENCODER_CLASSES[name](**kwargs)


# ---------------------------------------------------------------------- #
# Model spec
# ---------------------------------------------------------------------- #
def _spiking_layers(model: Module):
    return [m for m in model.modules() if isinstance(m, SpikingNeuron)]


def model_spec(model: Module) -> Dict[str, Any]:
    """Plain-data description from which :func:`build_model` reconstructs.

    Captures the constructor arguments — including the spiking substrate
    (``neuron`` + ``neuron_params``, see :mod:`repro.neurons.factory`) —
    plus the neuron setting the constructors do not take
    (``reset_mechanism``), which is re-applied to every spiking layer on
    load.
    """
    lifs = _spiking_layers(model)
    if not lifs:
        raise CheckpointError(f"{type(model).__name__} has no spiking layers to checkpoint")
    lif = lifs[0]
    try:
        neuron, neuron_params = neuron_descriptor(lif)
    except TypeError as exc:
        raise CheckpointError(f"cannot checkpoint {type(model).__name__}: {exc}") from None
    # The spec stores ONE set of neuron settings and re-applies it to every
    # layer on load; a per-layer-mutated model would silently round-trip to
    # a different model, so heterogeneity is a loud error instead.
    for i, other in enumerate(lifs[1:], start=1):
        try:
            other_descriptor = neuron_descriptor(other)
        except TypeError as exc:
            raise CheckpointError(f"cannot checkpoint {type(model).__name__}: {exc}") from None
        same = (
            other_descriptor == (neuron, neuron_params)
            and other.beta == lif.beta
            and other.threshold == lif.threshold
            and other.reset_mechanism == lif.reset_mechanism
            and other.surrogate == lif.surrogate
        )
        if not same:
            raise CheckpointError(
                f"cannot checkpoint {type(model).__name__}: spiking layer {i} differs from "
                "layer 0 (substrate/beta/threshold/reset/surrogate must match across layers)"
            )
    surrogate = lif.surrogate
    common = {
        "beta": float(lif.beta),
        "threshold": float(lif.threshold),
        "surrogate_name": surrogate.name,
        "surrogate_scale": float(surrogate.scale),
        "neuron": neuron,
        "neuron_params": neuron_params,
    }
    if isinstance(model, SpikingCNN):
        kwargs = {
            "image_size": model.image_size,
            "in_channels": model.in_channels,
            "conv_channels": list(model.conv_channels),
            "hidden_units": model.hidden_units,
            "num_classes": model.num_classes,
            **common,
        }
        cls_name = "SpikingCNN"
    elif isinstance(model, SpikingMLP):
        kwargs = {
            "in_features": model.in_features,
            "hidden_units": model.hidden_units,
            "num_classes": model.num_classes,
            **common,
        }
        cls_name = "SpikingMLP"
    else:
        raise CheckpointError(
            f"cannot checkpoint {type(model).__name__}; supported: SpikingCNN, SpikingMLP"
        )
    return {"class": cls_name, "kwargs": kwargs, "reset_mechanism": lif.reset_mechanism}


def build_model(spec: Dict[str, Any]) -> Module:
    """Reconstruct an (untrained) model skeleton from :func:`model_spec`.

    Checkpoints written before the substrate field existed carry no
    ``neuron`` key in their kwargs; the constructors' ``neuron="lif"``
    default makes those load to exactly the model they saved.  Older
    headers also carry a ``use_fused`` flag, which is ignored: every LIF
    step runs the fused kernel, whose results the composed one matched bit
    for bit.
    """
    classes = {"SpikingCNN": SpikingCNN, "SpikingMLP": SpikingMLP}
    cls = classes.get(spec.get("class"))
    if cls is None:
        raise CheckpointError(f"unknown model class '{spec.get('class')}' in checkpoint")
    reset = spec.get("reset_mechanism", "subtract")
    if reset not in RESET_MECHANISMS:
        raise CheckpointError(
            f"unknown reset_mechanism {reset!r} in checkpoint; supported: {RESET_MECHANISMS}"
        )
    kwargs = dict(spec.get("kwargs", {}))
    if "conv_channels" in kwargs:
        kwargs["conv_channels"] = tuple(kwargs["conv_channels"])
    try:
        model = cls(**kwargs)
    except (TypeError, ValueError) as exc:
        # E.g. a neuron substrate this code does not have (the message
        # names the supported ones).
        raise CheckpointError(f"cannot rebuild {spec['class']} from checkpoint: {exc}") from None
    for lif in _spiking_layers(model):
        lif.reset_mechanism = reset
    return model


# ---------------------------------------------------------------------- #
# Save / load
# ---------------------------------------------------------------------- #
def state_checksum(arrays: Mapping[str, np.ndarray]) -> str:
    """Content sha-256 over a named array mapping (order-independent).

    The digest covers each array's name, shape, dtype and raw bytes in
    sorted-name order, so any bit flip in any parameter — or a renamed,
    reshaped or re-typed parameter — changes the checksum.  Stored in the
    checkpoint header at save time and re-verified on load.
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(value.tobytes())
    return digest.hexdigest()


def save_checkpoint(
    path: PathLike,
    model: Module,
    encoder: Optional[Encoder] = None,
    metadata: Optional[Dict[str, Any]] = None,
    quantization: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write a single-file checkpoint (atomic rename, ``.npz`` archive).

    Parameters
    ----------
    path:
        Destination file.  The archive is published via a temp file +
        ``os.replace``, so a reader never sees a partial checkpoint.
    model:
        A :class:`SpikingCNN` or :class:`SpikingMLP`.
    encoder:
        Optional input encoder saved alongside the weights.
    metadata:
        Optional JSON-serialisable caller payload (config, metrics, ...).
    quantization:
        Optional quantization spec (plain JSON dict — ``precision``,
        ``weight_bits``, ``clip_percentile``, ``input_scale``, ...)
        describing the precision the stored weights should be *served* at.
        The field is additive: checkpoints written without it (including
        every pre-existing format-2 file) read back unchanged, with
        :func:`read_checkpoint_quantization` returning ``None``.
    """
    state = model.state_dict()
    header = {
        "format": CHECKPOINT_FORMAT_VERSION,
        "repro_version": repro.__version__,
        "model": model_spec(model),
        "encoder": encoder_spec(encoder) if encoder is not None else None,
        "metadata": metadata or {},
        "quantization": quantization,
        "checksum": state_checksum(state),
    }
    try:
        header_json = json.dumps(header, sort_keys=True)
    except TypeError as exc:
        raise CheckpointError(f"checkpoint metadata is not JSON-serialisable: {exc}") from None
    arrays = {_PARAM_PREFIX + name: value for name, value in state.items()}

    path = Path(path)
    buffer = io.BytesIO()
    np.savez(buffer, **{_HEADER_KEY: header_json}, **arrays)
    atomic_write(path, buffer.getvalue())
    return path


def _read_archive(path: PathLike, with_params: bool) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """The JSON header of the checkpoint at ``path`` and, ``with_params``, its parameters.

    The file is opened here, not by ``np.load``, which leaves its own
    handle open when the archive cannot be read.  A torn or unreadable
    archive raises the typed :class:`CheckpointIntegrityError` the gateway
    degrades on, not a raw zipfile/numpy exception.
    """
    try:
        with open(path, "rb") as file, np.load(file, allow_pickle=False) as archive:
            if _HEADER_KEY not in archive.files:
                raise CheckpointError(f"{path} is not a repro checkpoint (missing header)")
            header = json.loads(str(archive[_HEADER_KEY][()]))
            state = {
                key[len(_PARAM_PREFIX):]: archive[key]
                for key in archive.files
                if with_params and key.startswith(_PARAM_PREFIX)
            }
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointIntegrityError(f"cannot read checkpoint {path}: {exc}") from exc
    return header, state


def read_checkpoint_metadata(path: PathLike) -> Dict[str, Any]:
    """Read just the caller metadata from a checkpoint, without the weights.

    Opens the archive and decodes only the JSON header member — the
    parameter arrays are never touched — so callers that need publish-time
    metadata (e.g. the registry's version counter) do not pay a full model
    reconstruction.
    """
    header, _ = _read_archive(path, with_params=False)
    return header.get("metadata", {})


def read_checkpoint_quantization(path: PathLike) -> Optional[Dict[str, Any]]:
    """Read just the quantization spec from a checkpoint header (or ``None``).

    Header-only, like :func:`read_checkpoint_metadata` — the parameter
    arrays are never decoded.  Returns ``None`` for checkpoints published
    without a spec (full-precision serving), including all pre-quantization
    format-2 checkpoints.
    """
    header, _ = _read_archive(path, with_params=False)
    spec = header.get("quantization")
    return dict(spec) if isinstance(spec, dict) else None


def load_checkpoint(path: PathLike) -> Tuple[Module, Optional[Encoder], Dict[str, Any]]:
    """Rebuild ``(model, encoder, metadata)`` from :func:`save_checkpoint`.

    The returned model is in eval mode with the saved weights loaded;
    ``encoder`` is ``None`` when the checkpoint was saved without one.
    """
    path = Path(path)
    header, state = _read_archive(path, with_params=True)
    if header.get("format") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format {header.get('format')!r} "
            f"(this code reads format {CHECKPOINT_FORMAT_VERSION})"
        )
    expected = header.get("checksum")
    if expected is not None and state_checksum(state) != expected:
        raise CheckpointIntegrityError(
            f"checkpoint {path} failed its content checksum (file corrupted in place?)"
        )
    model = build_model(header["model"])
    model.load_state_dict(state)
    model.eval()
    encoder = build_encoder(header["encoder"]) if header.get("encoder") else None
    return model, encoder, header.get("metadata", {})
