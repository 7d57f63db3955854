"""Dense-vs-event-driven speedup measurement.

Shared by ``benchmarks/bench_runtime_speedup.py`` (full statistical runs)
and the tier-1 smoke test (one fast configuration), so the benchmark and
the CI guard exercise the same code path.

The comparison is apples-to-apples: both paths run the identical trained
network on the identical spike sequence without activity accounting, and
the measurement asserts that the two paths produce identical output spike
counts before timing anything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.core.network import SpikingCNN
from repro.nn.module import Module
from repro.runtime.activity import count_events
from repro.runtime.engine import CompiledNetwork, compile_network


@dataclass
class SpeedupResult:
    """Timings of one dense-vs-runtime comparison.

    Attributes
    ----------
    dense_seconds, runtime_seconds:
        Best-of-``repeats`` wall-clock time of one full forward.
    speedup:
        ``dense_seconds / runtime_seconds``.
    density:
        Fraction of non-zero entries in the input spike sequence.
    equivalent:
        Whether both paths produced identical output spike counts.
    label:
        Human-readable description of the configuration measured.
    """

    dense_seconds: float
    runtime_seconds: float
    density: float
    equivalent: bool
    label: str = ""

    @property
    def speedup(self) -> float:
        return self.dense_seconds / self.runtime_seconds if self.runtime_seconds > 0 else float("inf")

    def row(self) -> Dict[str, float]:
        return {
            "label": self.label,
            "density": self.density,
            "dense_ms": self.dense_seconds * 1e3,
            "runtime_ms": self.runtime_seconds * 1e3,
            "speedup": self.speedup,
        }


def make_reduced_cnn(image_size: int = 16, channels: int = 8, hidden: int = 64, seed: int = 0) -> SpikingCNN:
    """The reduced paper network used by the speedup benchmark."""
    return SpikingCNN(
        image_size=image_size,
        conv_channels=(channels, channels),
        hidden_units=hidden,
        beta=0.5,
        threshold=1.0,
        seed=seed,
    )


def make_spike_sequence(
    shape,
    density: float,
    num_steps: int,
    seed: int = 0,
) -> np.ndarray:
    """Bernoulli spike sequence of shape ``(T, N, ...)`` at a given density."""
    rng = np.random.default_rng(seed)
    return (rng.random((num_steps,) + tuple(shape)) < density).astype(np.float32)


def _time_best(fns: Sequence[Callable[[], object]], repeats: int) -> List[float]:
    """Best-of-``repeats`` seconds of each of ``fns``, timed in turn within every repeat.

    Interleaving puts a slow spell of the host on both sides of the
    comparison instead of on whichever path happened to be timed during it.
    """
    best = [float("inf")] * len(fns)
    for _ in range(max(1, repeats)):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def measure_speedup(
    model: Optional[Module] = None,
    spikes: Optional[np.ndarray] = None,
    density: float = 0.1,
    num_steps: int = 8,
    batch_size: int = 8,
    repeats: int = 3,
    seed: int = 0,
    label: str = "",
) -> SpeedupResult:
    """Time the dense forward against the compiled event-driven runtime.

    Parameters
    ----------
    model:
        Network to measure (default: the reduced CNN).
    spikes:
        Input spike sequence; generated at ``density`` if omitted.
    density, num_steps, batch_size, seed:
        Spike-sequence generation parameters (ignored when ``spikes`` given).
    repeats:
        Timing repetitions, each running the dense path and then the
        runtime; the best run of each path is reported.
    """
    if model is None:
        model = make_reduced_cnn(seed=seed)
    if spikes is None:
        input_shape = getattr(model, "input_shape", None)
        if input_shape is None:
            raise ValueError("provide `spikes` explicitly for custom model types")
        spikes = make_spike_sequence((batch_size, *input_shape), density, num_steps, seed=seed)

    was_training = getattr(model, "training", False)
    model.eval()
    compiled: CompiledNetwork = compile_network(model)
    dense_input = Tensor(spikes)

    def dense_forward():
        model.reset_spiking_state()
        with no_grad():
            return model(dense_input)

    def runtime_forward():
        return compiled.run(spikes, record_activity=False)

    # Correctness gate before timing: identical output spike counts.
    dense_counts = dense_forward().data
    runtime_counts = runtime_forward().counts
    equivalent = bool(np.array_equal(dense_counts, runtime_counts))

    dense_seconds, runtime_seconds = _time_best((dense_forward, runtime_forward), repeats)

    if was_training:
        model.train()

    return SpeedupResult(
        dense_seconds=dense_seconds,
        runtime_seconds=runtime_seconds,
        density=count_events(spikes) / spikes.size,
        equivalent=equivalent,
        label=label or f"T={spikes.shape[0]}, N={spikes.shape[1]}, density={density:g}",
    )
