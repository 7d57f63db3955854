"""Weight initialisation schemes (Kaiming uniform, PyTorch-style bias, constants)."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Fan-in / fan-out of a weight tensor (dense or convolutional)."""
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    if len(shape) == 4:
        c_out, c_in, kh, kw = shape
        receptive = kh * kw
        return c_in * receptive, c_out * receptive
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_uniform(shape: Tuple[int, ...], rng: np.random.Generator, gain: float = math.sqrt(5.0)) -> np.ndarray:
    """Kaiming (He) uniform initialisation, PyTorch's default for conv/linear.

    Bounded uniform in ``[-bound, bound]`` with ``bound = gain * sqrt(3 / fan_in)``
    scaled for leaky-ReLU-style gains; works well for surrogate-gradient SNNs
    because pre-threshold potentials stay in the surrogate's active region.
    """
    fan_in, _ = _fan_in_out(shape)
    std = gain / math.sqrt(fan_in)
    bound = math.sqrt(3.0) * std / math.sqrt((1.0 + gain ** 2) / 2.0)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def bias_uniform(shape: Tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """PyTorch-style bias initialisation: uniform in ``[-1/sqrt(fan_in), 1/sqrt(fan_in)]``."""
    bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
