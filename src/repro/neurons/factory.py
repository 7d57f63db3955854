"""Construction and introspection of spiking substrates by name.

The experiment pipeline selects its neuron model with a plain string (the
``neuron`` field of :class:`~repro.core.config.ExperimentConfig`, the
``neuron=`` argument of :class:`~repro.core.network.SpikingCNN` /
:class:`~repro.core.network.SpikingMLP`, the checkpoint header).  This
module is the single mapping between those names and the neuron classes:

* :func:`build_neuron` constructs a fresh (stateful) layer instance from a
  name plus the shared LIF hyperparameters and the substrate-specific
  extras, and
* :func:`neuron_descriptor` inverts it — given a live layer it returns the
  ``(name, params)`` pair :func:`build_neuron` would need to rebuild it —
  which is what the checkpoint writer and the runtime compiler key on.

Every name in :data:`NEURON_TYPES` compiles into an inference plan
(:mod:`repro.runtime`) with spike trains bit-identical to the dense
forward: both run :func:`repro.autograd.ops_spiking.lif_forward`, and the
cross-substrate matrix in ``tests/test_runtime_neurons.py`` checks it for
each of them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.neurons.adaptive import AdaptiveLIF
from repro.neurons.base import SpikingNeuron
from repro.neurons.lif import LIF
from repro.surrogate.base import SurrogateFunction

#: Neuron substrate names accepted by :func:`build_neuron` (and therefore by
#: ``ExperimentConfig.neuron`` and the network constructors).
NEURON_TYPES = ("lif", "adaptive")

#: Substrate-specific constructor parameters (and defaults) per neuron name.
#: ``lif`` takes none; the extras ride in the ``params`` mapping of
#: :func:`build_neuron` and in checkpoints' ``neuron_params`` header field.
NEURON_PARAM_DEFAULTS: Dict[str, Dict[str, float]] = {
    "lif": {},
    "adaptive": {"adaptation_step": 0.2, "adaptation_decay": 0.9},
}


def resolve_neuron_params(neuron: str, params: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Merge ``params`` over the substrate's defaults, rejecting unknown keys.

    Returns the complete parameter dict for ``neuron`` (empty for the
    parameterless ``lif`` substrate).  Raises ``ValueError`` for an
    unknown substrate name or a parameter the substrate does not take, so a
    typo'd sweep axis fails at configuration time rather than silently
    training the default dynamics.
    """
    if neuron not in NEURON_TYPES:
        raise ValueError(f"unknown neuron type '{neuron}'; supported: {NEURON_TYPES}")
    defaults = NEURON_PARAM_DEFAULTS[neuron]
    merged = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise ValueError(
                f"neuron '{neuron}' does not take parameter '{key}' "
                f"(supported: {sorted(defaults) or 'none'})"
            )
        merged[key] = float(value)
    return merged


def build_neuron(
    neuron: str = "lif",
    beta: float = 0.25,
    threshold: float = 1.0,
    surrogate: Optional[SurrogateFunction] = None,
    params: Optional[Dict[str, float]] = None,
) -> SpikingNeuron:
    """Construct one spiking layer of the named substrate.

    ``beta``, ``threshold`` and ``surrogate`` are the hyperparameters every
    substrate shares; ``params`` carries the substrate-specific extras (see
    :data:`NEURON_PARAM_DEFAULTS`).
    """
    resolved = resolve_neuron_params(neuron, params)
    if neuron == "lif":
        return LIF(beta=beta, threshold=threshold, surrogate=surrogate)
    return AdaptiveLIF(
        beta=beta,
        threshold=threshold,
        surrogate=surrogate,
        adaptation_step=resolved["adaptation_step"],
        adaptation_decay=resolved["adaptation_decay"],
    )


def neuron_descriptor(layer: SpikingNeuron) -> Tuple[str, Dict[str, float]]:
    """Return the ``(name, params)`` pair that rebuilds ``layer``'s substrate.

    The inverse of :func:`build_neuron` for every supported neuron class;
    raises ``TypeError`` for layer types outside :data:`NEURON_TYPES` (the
    checkpoint writer turns that into a loud :class:`CheckpointError`).
    """
    if isinstance(layer, AdaptiveLIF):
        return "adaptive", {
            "adaptation_step": float(layer.adaptation_step),
            "adaptation_decay": float(layer.adaptation_decay),
        }
    if isinstance(layer, LIF):
        return "lif", {}
    raise TypeError(f"no neuron descriptor for {type(layer).__name__}")
