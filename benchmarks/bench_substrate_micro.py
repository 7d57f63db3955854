"""Benchmark E6 — substrate micro-benchmarks.

Engineering baselines for the building blocks every experiment relies on:
autograd convolution, LIF stepping, BPTT through the paper's network, the
synthetic dataset generator and the analytical hardware model.  Unlike the
experiment benchmarks these use pytest-benchmark's statistical timing
(multiple rounds) because each operation is cheap; the BPTT step, which
also reports its peak memory, runs once.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core.config import SCALE_PRESETS
from repro.core.network import SpikingCNN
from repro.data.synth_svhn import SynthSVHNConfig, generate_digit_image
from repro.encoding import DirectEncoder, RateEncoder
from repro.hardware import SparsityAwareAccelerator, workload_from_layer_specs
from repro.neurons import LIF
from repro.surrogate import FastSigmoid
from repro.training import Adam, Trainer

from .conftest import run_once, update_bench_json

#: Bound on one paper-scale BPTT step's peak traced allocation (full mode).
#: The graph keeps only what each op saved for its backward pass (~1.0 GB);
#: a graph that also kept every step's membrane, spike map and conv output
#: peaks at ~2.7 GB.
BPTT_STEP_PEAK_BYTES = 1.2e9


def _conv_cases():
    """``id -> (N, C_in, H = W, C_out, input needs grad)`` of the 3x3 convolutions timed.

    A fixed 8x3x32x32 -> 32 case, then the paper network's two
    convolutions at each scale: conv1 on the frame batch, whose input (the
    encoded frame) needs no gradient, and conv2 at half size, whose input
    does.
    """
    cases = {"8x3x32x32-32": (8, 3, 32, 32, True)}
    for name in ("bench", "full", "paper"):
        scale = SCALE_PRESETS[name]
        c1, c2 = scale.conv_channels
        n, size = scale.batch_size, scale.image_size
        cases[f"{name}-conv1"] = (n, 3, size, c1, False)
        cases[f"{name}-conv2"] = (n, c1, size // 2, c2, True)
    return cases


CONV_CASES = _conv_cases()


@pytest.fixture(scope="module", params=list(CONV_CASES))
def conv_inputs(request):
    n, c_in, size, c_out, input_grad = CONV_CASES[request.param]
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((n, c_in, size, size)).astype(np.float32), requires_grad=input_grad)
    w = Tensor(rng.standard_normal((c_out, c_in, 3, 3)).astype(np.float32) * 0.1, requires_grad=True)
    b = Tensor(np.zeros(c_out, dtype=np.float32), requires_grad=True)
    grad_out = rng.standard_normal((n, c_out, size, size)).astype(np.float32)
    return x, w, b, grad_out


def test_conv2d_forward_throughput(benchmark, conv_inputs):
    x, w, b, _ = conv_inputs
    benchmark(lambda: x.conv2d(w, b, stride=1, padding=1))


def test_conv2d_forward_backward_throughput(benchmark, conv_inputs):
    x, w, b, grad_out = conv_inputs

    def step():
        x.conv2d(w, b, stride=1, padding=1).backward(grad_out)
        x.zero_grad()
        w.zero_grad()
        b.zero_grad()

    benchmark(step)


def test_lif_step_throughput(benchmark):
    lif = LIF(beta=0.5, threshold=1.0, surrogate=FastSigmoid(0.25))
    drive = Tensor(np.random.default_rng(1).random((32, 4096)).astype(np.float32))
    benchmark(lambda: lif.step(drive))


def test_spiking_cnn_forward_step(benchmark):
    model = SpikingCNN(image_size=32, conv_channels=(32, 32), hidden_units=256, seed=0)
    frame = Tensor(np.random.default_rng(2).random((4, 3, 32, 32)).astype(np.float32))
    model.eval()

    def step():
        model.reset_spiking_state()
        return model.step(frame)

    benchmark(step)


def test_bptt_step(benchmark, bench_smoke):
    """One BPTT training step of the paper's network on direct-coded images.

    Bench scale in smoke mode, the paper's scale (N=128, T=25, 32x32
    images, 32+32 channels) in full mode.  The peak is what NumPy and
    Python allocated during the step, traced by ``tracemalloc``, so it does
    not depend on what the session ran before.  The step is timed while
    traced.
    """
    scale = SCALE_PRESETS["bench" if bench_smoke else "paper"]
    size, n = scale.image_size, scale.batch_size
    model = SpikingCNN(
        image_size=size, conv_channels=scale.conv_channels, hidden_units=scale.hidden_units, seed=0
    )
    rng = np.random.default_rng(5)
    images = rng.random((n, 3, size, size), dtype=np.float32)
    labels = rng.integers(0, model.num_classes, size=n)
    trainer = Trainer(model, DirectEncoder(num_steps=scale.num_steps), Adam(model.parameters(), lr=1e-3))

    def step():
        tracemalloc.start()
        try:
            start = time.perf_counter()
            trainer.train_batch(images, labels)
            seconds = time.perf_counter() - start
            return seconds, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    seconds, peak = run_once(benchmark, step)
    mode = "smoke" if bench_smoke else "full"
    print(f"\n[bptt-step] {scale.name} scale: {seconds:.2f} s, traced peak {peak / 1e6:.0f} MB")
    update_bench_json(
        "BENCH_substrate.json",
        "bptt_step",
        {
            "experiment": "bptt_step",
            "mode": mode,
            "scale": scale.name,
            "batch_size": n,
            "num_steps": scale.num_steps,
            "step_s": seconds,
            "traced_peak_mb": peak / 1e6,
        },
    )
    if not bench_smoke:
        assert peak <= BPTT_STEP_PEAK_BYTES, f"traced peak {peak / 1e9:.2f} GB"


def test_rate_encoder_throughput(benchmark):
    encoder = RateEncoder(num_steps=10, seed=0)
    images = np.random.default_rng(3).random((32, 3, 32, 32)).astype(np.float32)
    benchmark(lambda: encoder(images))


def test_synth_svhn_generation_rate(benchmark):
    rng = np.random.default_rng(4)
    config = SynthSVHNConfig()
    benchmark(lambda: generate_digit_image(int(rng.integers(0, 10)), rng, config))


def test_hardware_model_evaluation_cost(benchmark):
    specs = [
        {"name": "conv1", "kind": "conv", "in_channels": 3, "out_channels": 32,
         "kernel_size": 3, "out_h": 32, "out_w": 32},
        {"name": "conv2", "kind": "conv", "in_channels": 32, "out_channels": 32,
         "kernel_size": 3, "out_h": 16, "out_w": 16},
        {"name": "fc1", "kind": "fc", "in_features": 2048, "out_features": 256},
        {"name": "fc2", "kind": "fc", "in_features": 256, "out_features": 10},
    ]
    firing = {"conv1": 3000.0, "conv2": 800.0, "fc1": 30.0, "fc2": 2.0}
    workload = workload_from_layer_specs(specs, firing, num_steps=25, input_events_per_step=1500.0)
    accelerator = SparsityAwareAccelerator()
    benchmark(lambda: accelerator.run(workload))
