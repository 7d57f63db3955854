"""Name-based registry of surrogate gradient functions.

The sweep harness in :mod:`repro.core` refers to surrogates by name
(``"arctan"``, ``"fast_sigmoid"``) so experiment configurations remain
plain serialisable data.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.surrogate.arctan import ArcTan
from repro.surrogate.base import SurrogateFunction
from repro.surrogate.fast_sigmoid import FastSigmoid

_REGISTRY: Dict[str, Type[SurrogateFunction]] = {}


def register_surrogate(cls: Type[SurrogateFunction]) -> Type[SurrogateFunction]:
    """Register a surrogate class under its ``name`` attribute.

    Can be used as a decorator for user-defined surrogates::

        @register_surrogate
        class MySurrogate(SurrogateFunction):
            name = "my_surrogate"
            ...

    The class's ``derivative`` should return a new array each call (see
    :meth:`SurrogateFunction.derivative`): the spike's backward may write
    the incoming gradient into it.
    """
    if not getattr(cls, "name", None):
        raise ValueError("surrogate classes must define a non-empty 'name' attribute")
    _REGISTRY[cls.name] = cls
    return cls


def get_surrogate(name: str, scale: float | None = None) -> SurrogateFunction:
    """Instantiate a registered surrogate by name.

    Parameters
    ----------
    name:
        Registered surrogate name (see :func:`available_surrogates`).
    scale:
        Derivative scaling factor (``alpha`` / ``k``).  When ``None`` the
        surrogate's default is used.
    """
    key = name.lower().replace("-", "_").replace(" ", "_")
    if key not in _REGISTRY:
        raise KeyError(f"unknown surrogate '{name}'; available: {sorted(_REGISTRY)}")
    cls = _REGISTRY[key]
    return cls() if scale is None else cls(scale=scale)


def available_surrogates() -> List[str]:
    """Names of all registered surrogates, sorted."""
    return sorted(_REGISTRY)


for _cls in (ArcTan, FastSigmoid):
    register_surrogate(_cls)
