"""Repository benchmark: two workloads, every metric printed by name and unit.

Run from the root of a checkout (the tree holding ``src/`` and ``BENCHMARK.json``)::

    python3 perfbench/run.py --workload sweep_cell --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``sweep_cell``: the paper's default cell through ``repro.exec.run_experiments``
  with a fresh cache, then re-run warm against that cache;
* ``infer_batch``: closed-loop compiled inference of the reduced bench CNN
  (T=16, N=64) on 10%-dense Bernoulli spike batches, fp32 and int8 plans.

Every run reports every metric of its mode, so every run executes every
stage.  The workload's own stage goes first: its set-up is timed
(``setup_s``), it is repeated for ``--seconds``, and the peak RSS is read
right after it (``peak_rss_mb``).  The other stage then runs its fixed
minimum.  Cell and inference times are scaled to a reference host speed by
a fixed probe timed between measured units (``hostspeed.py``); the unscaled
figures are printed too.

``--trace 0`` prints the end-to-end metrics, measured with no span wrappers
installed.  ``--trace 1`` runs the workload's stage untraced, then every
stage under span wrappers, and prints the per-layer rows plus
``trace_overhead`` (the workload's stage traced / untraced - 1, both from
this run).  The traced run adds a third stage, ``serve_open_loop``: Poisson
arrivals from this process's main thread into a ``ServeGateway`` in three
fixed-rate phases (``low``, ``high``, ``over``).  Its figures are per-layer
rows only, because from run to run they spread wider than any bound the
benchmark may set.  All load comes from this one process; BLAS is pinned to
one thread.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and the unit ``BENCHMARK.json``
declares).  The lines before it stamp the machine fingerprint and mode and
list every value.  A failed output check counts as a failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path.cwd()
#: Set-up runs at least this many times, and for at least ``SETUP_BUDGET_S``.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 0.5
WORKLOADS = ("sweep_cell", "infer_batch")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_declared(root: Path) -> dict:
    """``BENCHMARK.json``: metric names and units, per mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def fingerprint(root: Path) -> Dict[str, object]:
    """Machine and code identity stamped on every result."""
    import numpy as np

    sha = "unknown"
    if (root / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        if probe.returncode == 0:
            sha = probe.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
    }


def build_stages(workdir: Path, trace: bool) -> dict:
    """The stages at benchmark size, keyed by name; serving only when traced."""
    from stages import InferStage, ServeStage, SweepStage

    stages = {"sweep_cell": SweepStage(workdir), "infer_batch": InferStage()}
    if trace:
        stages["serve_open_loop"] = ServeStage(workdir)
    return stages


def measure(stages: dict, workload: str, seed: int, seconds: float, trace: bool, probe, setup_repeats: int = SETUP_REPEATS):
    """One run: the workload's own stage, then every other stage at its minimum.

    The workload's stage goes first.  It is set up at least
    ``setup_repeats`` times (the median, at reference speed, is
    ``setup_s``) and run for ``seconds``, and the process's peak RSS is read
    right after it, so both figures belong to the workload.  Every other
    stage is then set up once and run for its minimum (two cells, 48
    inference batch pairs, three serving passes), because every run reports
    every metric of its mode.

    Returns ``(metrics, StageRun list)``: the end-to-end metrics untraced,
    the per-layer rows traced.
    """
    from spans import SpanRecorder

    focus = stages[workload]
    focus.warm_up()
    setup_s: List[float] = []
    start = time.perf_counter()
    while len(setup_s) < setup_repeats or time.perf_counter() - start < SETUP_BUDGET_S:
        setup_s.append(probe.timed(partial(focus.setup, seed)))
    metrics: Dict[str, float] = {}
    runs = []
    if trace:
        # The untraced twin runs directly before the traced pass, so the
        # overhead ratio spans as little host drift as possible.
        untraced = focus.run(seconds, probe)
        runs.append(untraced)
    runs.append(focus.run(seconds, probe, SpanRecorder() if trace else None))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, stage in stages.items():
        if name != workload:
            stage.warm_up()
            stage.setup(seed)
            runs.append(stage.run(0.0, probe, SpanRecorder() if trace else None))

    for run in runs[1:] if trace else runs:
        metrics.update(run.rows if trace else run.metrics)
    if trace:
        metrics["trace_overhead"] = runs[1].basis / untraced.basis - 1.0
        metrics["host.probe_ms"] = probe.median_s() * 1000.0
    else:
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["peak_rss_mb"] = peak_rss_mb
    return metrics, runs


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a checkout's root", file=sys.stderr)
        return 2
    # Two vCPUs are shared by the trainer, the gateway's dispatcher and
    # worker and the load generator; BLAS worker threads on top of them
    # oversubscribe the cores (serving goodput spread twice as wide with two).
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"perfbench: imported repro from {repro.__file__}, not from this checkout", file=sys.stderr)
        return 2

    from hostspeed import REFERENCE_S, SpeedProbe

    trace = bool(args.trace)
    declared = load_declared(ROOT)[trace]
    print("# fingerprint " + json.dumps(
        {**fingerprint(ROOT), "mode": "traced" if trace else "untraced",
         "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "speed_probe_reference_s": REFERENCE_S}
    ), flush=True)

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    stages = build_stages(workdir, trace)
    probe = SpeedProbe()
    try:
        metrics, runs = measure(stages, args.workload, args.seed, args.seconds, trace, probe)
    finally:
        if "serve_open_loop" in stages:
            stages["serve_open_loop"].close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    if set(metrics) != set(declared):
        print(
            "perfbench: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(metrics))}, undeclared {sorted(set(metrics) - set(declared))}",
            file=sys.stderr,
        )
        return 3

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    for run in runs:
        for line in run.errors:
            print(f"# FAILED {line}")
        for note in run.notes:
            print(f"# note: {note}")
        for name, value in sorted(run.raw.items()):
            print(f"# raw {name} = {value!r} (host speed, unscaled)")
    print(f"# speed probe median {probe.median_s() * 1000.0:.4f} ms over {len(probe.seconds)} samples, "
          f"reference {REFERENCE_S * 1000.0:.4f} ms")
    result = {}
    for name in sorted(metrics):
        value = float(metrics[name])
        if not math.isfinite(value):
            print(f"# FAILED {name} is not finite ({value})")
            failed += 1
            value = 0.0
        print(f"# {name} = {value!r} {declared[name]}")
        result[name] = {"value": value, "unit": declared[name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
