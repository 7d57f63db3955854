"""Module and Parameter base classes (the ``torch.nn.Module`` analogue)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.autograd.tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable parameter."""

    def __init__(self, data, dtype=np.float32) -> None:
        super().__init__(np.asarray(data, dtype=dtype), requires_grad=True)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape})"


class Module:
    """Base class for all layers and models.

    Handles parameter/submodule registration via ``__setattr__`` (like
    PyTorch), recursive parameter collection, train/eval mode, state dicts
    for checkpointing, and recursive spiking-state resets.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a submodule under a name not suitable as an attribute."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        """All trainable parameters of this module and its submodules."""
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        """This module and every descendant, depth first."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    # ------------------------------------------------------------------ #
    # Modes and state
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        """Switch the whole tree between training and evaluation mode."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of every parameter in the tree."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return int(sum(p.size for p in self.parameters()))

    def reset_spiking_state(self) -> None:
        """Reset the membrane state of every spiking layer."""
        from repro.neurons.base import SpikingNeuron

        for module in self.modules():
            if isinstance(module, SpikingNeuron):
                module.reset_state()

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values previously captured by :meth:`state_dict`.

        All-or-nothing: every key and shape is validated before any
        parameter is written, so a mismatched state dict raises without
        leaving the model half-updated (live consumers such as
        :class:`~repro.runtime.pool.CompiledNetworkPool` rely on never
        observing torn weights).
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state_dict mismatch; missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        converted = {}
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.shape:
                raise ValueError(f"shape mismatch for '{name}': {value.shape} vs {param.shape}")
            converted[name] = value
        for name, param in own.items():
            param.data[...] = converted[name]

    # ------------------------------------------------------------------ #
    # Calling
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, module in self._modules.items():
            child = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else f"{type(self).__name__}({self.extra_repr()})"
