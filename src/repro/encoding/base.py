"""Encoder interface."""

from __future__ import annotations

from typing import Optional

import numpy as np


def is_time_invariant(sequence: np.ndarray) -> bool:
    """Whether every frame of a ``(T, ...)`` sequence is bit-equal to frame 0.

    Compares raw bits (``-0.0`` is not ``+0.0``), so a computation on frame
    0 is exactly the computation on every frame; stops at the first frame
    that differs.  Direct coding produces such sequences.
    """
    if len(sequence) < 2:
        return True
    frames = np.ascontiguousarray(sequence).reshape(len(sequence), -1)
    itemsize = frames.dtype.itemsize
    frames = frames.view(f"u{itemsize}" if itemsize in (1, 2, 4, 8) else np.uint8)
    return all(np.array_equal(frame, frames[0]) for frame in frames[1:])


class Encoder:
    """Converts a batch of static inputs into a spike (or current) sequence.

    Subclasses implement :meth:`encode`, which maps an array of shape
    ``(N, ...)`` with values in ``[0, 1]`` to a sequence of shape
    ``(T, N, ...)``.

    Parameters
    ----------
    num_steps:
        Number of simulation timesteps ``T``.
    seed:
        Seed for the encoder's private random generator (stochastic encoders
        only), so repeated evaluations of the same model are reproducible.
    """

    name = "encoder"

    #: Whether :meth:`encode` draws from the private RNG stream.  Consumers
    #: that need submission-order determinism (the serving scheduler) only
    #: serialise calls to stochastic encoders.
    stochastic = False

    def __init__(self, num_steps: int = 10, seed: Optional[int] = None) -> None:
        if num_steps <= 0:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        self.num_steps = int(num_steps)
        # Retained so checkpoints can reconstruct the encoder (the generator
        # itself does not expose its seed); a restored encoder restarts the
        # stochastic stream from this seed, not from the saved mid-state.
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def encode(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.size and (x.min() < -1e-6 or x.max() > 1.0 + 1e-6):
            raise ValueError(
                "encoder inputs must be normalised to [0, 1]; "
                f"got range [{x.min():.3f}, {x.max():.3f}]"
            )
        return self.encode(np.clip(x, 0.0, 1.0))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_steps={self.num_steps})"
