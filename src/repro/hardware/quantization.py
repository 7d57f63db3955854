"""Post-training weight quantization for FPGA deployment.

The modelled accelerator stores weights on-chip at reduced precision (the
resource model assumes 8-bit weights).  This module provides the software
side of that deployment step: symmetric per-tensor integer quantization of
a trained model's weights, clipped at each tensor's largest magnitude.
:func:`quantize_array_int` returns the integer lattice plus its scale, the
form :mod:`repro.runtime`'s int8/int16 plans execute directly (integer
weights, integer accumulation); :func:`repro.runtime.check_accuracy_delta`
measures what that costs in accuracy against the fp64 reference plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class QuantizationConfig:
    """Symmetric per-tensor quantization settings.

    Attributes
    ----------
    weight_bits:
        Integer precision for weights (the accelerator model assumes 8).
    """

    weight_bits: int = 8

    def __post_init__(self) -> None:
        if not 2 <= self.weight_bits <= 32:
            raise ValueError("weight_bits must lie in [2, 32]")

    @property
    def levels(self) -> int:
        """Number of representable signed levels on each side of zero."""
        return 2 ** (self.weight_bits - 1) - 1

    def storage_dtype(self) -> np.dtype:
        """Smallest NumPy integer dtype that holds the signed lattice."""
        if self.weight_bits <= 8:
            return np.dtype(np.int8)
        if self.weight_bits <= 16:
            return np.dtype(np.int16)
        return np.dtype(np.int32)


def quantize_array_int(values: np.ndarray, config: QuantizationConfig) -> Tuple[np.ndarray, float]:
    """Quantize one array onto its signed integer lattice.

    Returns ``(q, scale)`` with ``q`` in the smallest integer dtype that
    holds ``weight_bits`` (int8 for <=8, int16 for <=16) and
    ``q * scale ~= values``.  The clipping range is the tensor's largest
    magnitude, which lands on the top level, so a sparse tensor keeps its
    nonzero weights.  The scale is *never* 0.0 — an all-zero tensor returns
    an all-zero lattice with scale 1.0 — so downstream integer kernels can
    divide by it unconditionally.
    """
    magnitude = float(np.abs(values).max()) if values.size else 0.0
    dtype = config.storage_dtype()
    if magnitude == 0.0:
        return np.zeros(values.shape, dtype=dtype), 1.0
    scale = magnitude / config.levels
    quantized = np.clip(np.round(values / scale), -config.levels, config.levels)
    return quantized.astype(dtype), float(scale)
