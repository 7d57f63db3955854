"""Shared fixtures for the test suite."""

from __future__ import annotations

import io
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ExperimentConfig, SCALE_PRESETS
from repro.runtime import CompiledNetworkPool
from repro.surrogate import SurrogateFunction, register_surrogate
from repro.utils import atomic_write


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def smoke_config() -> ExperimentConfig:
    """Smallest end-to-end experiment configuration (for integration tests)."""
    return ExperimentConfig(scale=SCALE_PRESETS["smoke"], seed=0)


@pytest.fixture
def surrogate_registry():
    """Restore the surrogate registry after the test to the names it held before."""
    from repro.surrogate.registry import _REGISTRY

    saved = dict(_REGISTRY)
    yield
    _REGISTRY.clear()
    _REGISTRY.update(saved)


class TriangleSurrogate(SurrogateFunction):
    """A caller's surrogate with bounded support: ``dS/dU = k * max(0, 1 - k|U|)``.

    Neither paper surrogate ever reaches zero; this one passes no gradient
    at ``|U| >= 1 / k``.  Register it for one test with the
    ``registered_surrogate`` fixture.
    """

    name = "triangle"

    def __init__(self, scale: float = 1.0) -> None:
        super().__init__(scale)

    def forward_smooth(self, u: np.ndarray) -> np.ndarray:
        v = np.clip(self.scale * np.asarray(u), -1.0, 1.0)
        return v - 0.5 * v * np.abs(v)

    def derivative(self, u: np.ndarray) -> np.ndarray:
        return self.scale * np.maximum(0.0, 1.0 - self.scale * np.abs(u))


@pytest.fixture
def registered_surrogate(surrogate_registry) -> str:
    """Register :class:`TriangleSurrogate` while the test runs; returns its name."""
    register_surrogate(TriangleSurrogate)
    return TriangleSurrogate.name


@pytest.fixture
def micro_scale():
    """Sub-smoke scale for tests that train several configurations.

    The executor/cache tests run whole (tiny) sweeps repeatedly; at this
    scale one end-to-end experiment takes a fraction of a second.
    """
    from repro.core.config import ReproScale

    return ReproScale(
        name="micro",
        image_size=8,
        conv_channels=(2, 2),
        hidden_units=8,
        num_steps=2,
        train_samples=16,
        test_samples=8,
        epochs=1,
        batch_size=8,
    )


def dense_forward_with_trains(model, spikes: np.ndarray):
    """Run the dense forward, capturing each spiking layer's full train.

    Wraps every spiking layer's ``forward`` for the duration of one
    ``no_grad`` pass and stacks its per-timestep outputs, so the result is
    ``(counts, {layer name: (T, N, ...) spike train})`` — the dense
    reference the compiled runtime must reproduce bit for bit.  A CNN's
    ``lif1`` on a direct-coded sequence spikes in ``pool1``'s phase-major
    layout; its train is re-laid into NCHW, as the layout's backward does.
    Import it with ``from conftest import dense_forward_with_trains``.
    """
    from repro.autograd.ops_conv import from_phase_major
    from repro.autograd.tensor import Tensor, no_grad
    from repro.neurons.base import SpikingNeuron

    layers = {name: module for name, module in model.named_modules() if isinstance(module, SpikingNeuron)}
    trains = {name: [] for name in layers}

    def capture(name, forward):
        def recorded(synaptic_input):
            spikes_out = forward(synaptic_input)
            if spikes_out.ndim == 5:  # (k*k, N, C, H/k, W/k)
                k = model.pool1.kernel_size
                _, n, c, oh, ow = spikes_out.shape
                trains[name].append(from_phase_major(spikes_out.data, (n, c, oh * k, ow * k)))
            else:
                trains[name].append(spikes_out.data.copy())
            return spikes_out

        return recorded

    for name, layer in layers.items():
        layer.forward = capture(name, layer.forward)
    try:
        model.reset_spiking_state()
        with no_grad():
            counts = model(Tensor(spikes)).data
    finally:
        for layer in layers.values():
            del layer.forward
    return counts, {name: np.stack(steps) for name, steps in trains.items()}


def make_tensor(rng: np.random.Generator, *shape, requires_grad: bool = True, dtype=np.float64):
    """Create a float64 tensor with standard-normal data (for gradchecks)."""
    from repro.autograd import Tensor

    return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=requires_grad)


class KernelFault(RuntimeError):
    """What a :class:`StubPool` checkout raises in place of running a batch."""


class StubPool(CompiledNetworkPool):
    """A compiled-plan pool whose checkouts fail, stall or wait on cue.

    Checkouts are numbered 0, 1, ... in the order workers ask for them (with
    one worker, the batch order).  A checkout in ``hold`` waits until
    ``release`` is set (at most a minute, so a failing test cannot hang), one
    in ``slow`` sleeps ``slow_ms``, and one in ``fail`` raises
    :class:`KernelFault`.  Any container works: ``range(n)`` covers the first
    ``n``.  Serve through it with ``InferenceServer(StubPool(model, ...), encoder)``.
    """

    def __init__(self, model, fail=(), slow=(), slow_ms=0.0, hold=(), **kwargs):
        super().__init__(model, **kwargs)
        self.fail, self.slow, self.slow_ms, self.hold = fail, slow, slow_ms, hold
        self.release = threading.Event()
        self.checkouts = 0
        self._count_lock = threading.Lock()

    @contextmanager
    def acquire(self):
        with self._count_lock:
            index, self.checkouts = self.checkouts, self.checkouts + 1
        if index in self.hold:
            self.release.wait(timeout=60)
        if index in self.slow:
            time.sleep(self.slow_ms / 1000.0)
        if index in self.fail:
            raise KernelFault(f"kernel fault at checkout {index}")
        with super().acquire() as plan:
            yield plan


def tear_checkpoint(path, seed: int = 0) -> Path:
    """Corrupt a published checkpoint in place, identically for one seed.

    Keeps a seeded quarter-to-half of the file, flips up to four bytes and
    writes the result atomically, so a gateway's stat-signature check sees a
    republish; reading it raises ``CheckpointIntegrityError``.
    """
    path = Path(path)
    data = path.read_bytes()
    rng = np.random.default_rng([seed, len(data)])
    torn = bytearray(data[: int(rng.integers(max(1, len(data) // 4), max(2, len(data) // 2) + 1))])
    for _ in range(min(4, len(torn))):
        torn[int(rng.integers(0, len(torn)))] ^= 0xFF
    atomic_write(path, bytes(torn))
    return path


def rewrite_checkpoint_header(path, header_fields=None, **model_fields) -> Path:
    """Overwrite fields of a saved checkpoint's header and model spec, atomically.

    ``header_fields`` replaces top-level header fields; the keyword
    arguments replace fields of the model spec.  The parameters and their
    checksum are kept, so the file stays a valid archive, and a gateway's
    stat-signature check sees a republish.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        members = {key: archive[key] for key in archive.files}
    header = json.loads(str(members["__checkpoint__"][()]))
    header.update(header_fields or {})
    header["model"].update(model_fields)
    members["__checkpoint__"] = json.dumps(header, sort_keys=True)
    buffer = io.BytesIO()
    np.savez(buffer, **members)
    atomic_write(path, buffer.getvalue())
    return path
