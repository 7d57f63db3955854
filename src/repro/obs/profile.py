"""Opt-in runtime profiling: per-kernel timing and measured-vs-modeled reconciliation.

A :class:`RuntimeProfiler` plugs into
:meth:`repro.runtime.engine.CompiledNetwork.run` via its ``profiler=``
parameter (the engine stays import-free of this package — the hook is
duck-typed).  While a plan runs, the profiler accumulates wall time per
fused kernel, on both the float and quantized execution paths.  Spike
counts are not re-collected here: the run's
:class:`~repro.runtime.activity.RuntimeActivity` holds them.

:meth:`RuntimeProfiler.report` then reconciles the measurement against the
analytical hardware model: measured activity becomes a
:class:`~repro.hardware.workload.NetworkWorkload`, the
:class:`~repro.hardware.accelerator.SparsityAwareAccelerator` prices it,
and the resulting :class:`ProfileReport` lines up each weight kernel's
measured seconds with the latency model's per-layer cycles — the paper's
measured-vs-modeled story, automated.  :func:`profile_plan` wraps the whole
run-then-reconcile flow in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

__all__ = ["KernelTiming", "RuntimeProfiler", "ProfileReport", "profile_plan"]


@dataclass
class KernelTiming:
    """Accumulated wall time for one fused kernel across a profiled run."""

    name: str
    calls: int = 0
    total_seconds: float = 0.0

    @property
    def mean_ms(self) -> float:
        """Mean milliseconds per kernel invocation (one invocation = one timestep)."""
        return (self.total_seconds / self.calls) * 1000.0 if self.calls else 0.0


class RuntimeProfiler:
    """Collects per-kernel timing from a compiled plan.

    Pass an instance as ``profiler=`` to ``CompiledNetwork.run``; profiling
    is purely opt-in, so an un-passed plan pays nothing.  One profiler can
    accumulate across several runs.
    """

    def __init__(self) -> None:
        self.kernels: Dict[str, KernelTiming] = {}
        self.num_steps = 0
        self.batch = 0
        self.precision = ""
        self.runs = 0

    # -- hooks called by the engine (duck-typed protocol) ----------------- #
    def start_run(self, num_steps: int, batch: int, precision: str) -> None:
        """Engine hook: a profiled run is starting."""
        self.num_steps = int(num_steps)
        self.batch = int(batch)
        self.precision = str(precision)
        self.runs += 1

    def record_kernel(self, name: str, seconds: float) -> None:
        """Engine hook: one kernel invocation took ``seconds`` of wall time."""
        timing = self.kernels.get(name)
        if timing is None:
            timing = self.kernels[name] = KernelTiming(name)
        timing.calls += 1
        timing.total_seconds += seconds

    # -- results ---------------------------------------------------------- #
    def kernel_seconds(self) -> Dict[str, float]:
        """Total measured wall seconds per kernel, in recording order."""
        return {name: t.total_seconds for name, t in self.kernels.items()}

    @property
    def total_seconds(self) -> float:
        """Wall time summed over every kernel invocation recorded so far."""
        return sum(t.total_seconds for t in self.kernels.values())

    def reset(self) -> None:
        """Drop all accumulated timings."""
        self.kernels = {}
        self.num_steps = 0
        self.batch = 0
        self.precision = ""
        self.runs = 0

    def report(self, activity, layer_specs, accelerator=None) -> "ProfileReport":
        """Reconcile this profiler's measurements against the hardware model.

        Parameters
        ----------
        activity:
            The :class:`~repro.runtime.activity.RuntimeActivity` the
            profiled run produced (``result.activity``).
        layer_specs:
            The plan's architecture description
            (``CompiledNetwork.layer_specs``); spec names match weight
            kernel names, which is what lets measured seconds and modeled
            cycles join per layer.
        accelerator:
            Hardware model to price the measured workload on; defaults to
            the paper's :class:`SparsityAwareAccelerator`.
        """
        # Lazy import: repro.obs stays importable without numpy/hardware
        # until a reconciliation is actually requested.
        from repro.hardware.accelerator import SparsityAwareAccelerator

        if accelerator is None:
            accelerator = SparsityAwareAccelerator()
        workload = activity.to_workload(layer_specs)
        run = accelerator.run(workload)
        clock_hz = accelerator.config.clock_hz
        batch = max(self.batch, 1)
        rows: List[Dict[str, Any]] = []
        for name, cycles in run.latency.layer_cycles_per_step.items():
            modeled_s = cycles * workload.num_steps / clock_hz
            timing = self.kernels.get(name)
            measured_s = (timing.total_seconds / batch) if timing is not None else None
            rows.append(
                {
                    "layer": name,
                    "modeled_s": modeled_s,
                    "measured_s": measured_s,
                    "ratio": (measured_s / modeled_s) if measured_s is not None and modeled_s > 0 else None,
                }
            )
        return ProfileReport(
            precision=self.precision,
            num_steps=self.num_steps,
            batch=self.batch,
            kernel_seconds=self.kernel_seconds(),
            layers=rows,
            modeled_latency_s=run.latency.latency_seconds,
            measured_latency_s=self.total_seconds / batch,
            clock_hz=clock_hz,
            bottleneck_layer=run.latency.bottleneck_layer(),
        )


@dataclass
class ProfileReport:
    """Measured kernel time reconciled against the analytical latency model.

    ``layers`` holds one row per modeled layer with ``modeled_s`` (the
    latency model's per-inference seconds for that layer), ``measured_s``
    (profiled wall seconds per inference for the matching weight kernel, or
    ``None`` when the layer has no timed kernel) and their ``ratio``.
    The modeled accelerator runs at ``clock_hz`` on custom silicon while the
    measurement is NumPy on a host CPU, so the interesting signal is the
    *shape* — which layers dominate, and whether measured time tracks the
    spike-driven model — not the absolute scale.
    """

    precision: str
    num_steps: int
    batch: int
    kernel_seconds: Dict[str, float]
    layers: List[Dict[str, Any]]
    modeled_latency_s: float
    measured_latency_s: float
    clock_hz: float
    bottleneck_layer: str

    def to_json(self) -> Dict[str, Any]:
        """The full report as a JSON-serialisable dict."""
        return {
            "precision": self.precision,
            "num_steps": self.num_steps,
            "batch": self.batch,
            "kernel_seconds": dict(self.kernel_seconds),
            "layers": [dict(row) for row in self.layers],
            "modeled_latency_s": self.modeled_latency_s,
            "measured_latency_s": self.measured_latency_s,
            "clock_hz": self.clock_hz,
            "bottleneck_layer": self.bottleneck_layer,
        }

    def format(self) -> str:
        """Human-readable reconciliation table."""
        lines = [
            f"profile ({self.precision}, T={self.num_steps}, batch={self.batch})",
            f"  modeled latency  {self.modeled_latency_s * 1e3:10.4f} ms @ {self.clock_hz / 1e6:.0f} MHz"
            f"  (bottleneck: {self.bottleneck_layer})",
            f"  measured kernels {self.measured_latency_s * 1e3:10.4f} ms per inference (host CPU)",
            f"  {'layer':<16} {'modeled ms':>12} {'measured ms':>12} {'ratio':>8}",
        ]
        for row in self.layers:
            measured = row["measured_s"]
            lines.append(
                "  {:<16} {:>12.4f} {:>12} {:>8}".format(
                    row["layer"],
                    row["modeled_s"] * 1e3,
                    f"{measured * 1e3:.4f}" if measured is not None else "-",
                    f"{row['ratio']:.1f}x" if row["ratio"] is not None else "-",
                )
            )
        return "\n".join(lines)


def profile_plan(plan, spike_sequence, accelerator=None) -> Tuple[Any, ProfileReport]:
    """Run a compiled plan under a fresh profiler and reconcile in one call.

    Returns ``(InferenceResult, ProfileReport)``.  The plan must carry
    ``layer_specs`` (true for models built by ``repro.core.experiment``);
    raises ``ValueError`` otherwise since there is nothing to reconcile
    against.
    """
    if plan.layer_specs is None:
        raise ValueError("profile_plan needs a plan compiled with layer_specs to reconcile against")
    profiler = RuntimeProfiler()
    result = plan.run(spike_sequence, record_activity=True, profiler=profiler)
    report = profiler.report(result.activity, plan.layer_specs, accelerator=accelerator)
    return result, report
