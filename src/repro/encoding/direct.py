"""Direct (constant current) encoding."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.encoding.base import Encoder


class DirectEncoder(Encoder):
    """Direct coding: feed the analog intensity at every timestep.

    The first layer of the network then performs the analog-to-spike
    conversion through its own LIF dynamics.  This is the densest encoding
    in terms of synaptic events into the first layer but often the most
    accurate, making it a useful extreme point in the encoding ablation.
    Its frames are bit-equal, so ``SpikingCNN`` convolves them once per
    sequence (:func:`~repro.encoding.base.is_time_invariant`).
    """

    name = "direct"

    def encode(self, x: np.ndarray) -> np.ndarray:
        frames = np.empty((self.num_steps,) + x.shape, dtype=np.float32)
        frames[...] = x
        return frames
