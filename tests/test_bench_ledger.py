"""The committed perf ledger, ``BENCH_ledger.json``, against the benchmark it reports.

Each row compares a change with its parent commit on ``perfbench``.  It
must name both commits, the machine (as perfbench's ``# fingerprint`` line
stamps it, and from the first row that names it on, the OpenBLAS kernel
family), the mode and run length, and for each workload its seeds and
pair count.  Its workloads, metric names and units must be the ones
``BENCHMARK.json`` declares, and each side's quartiles must bracket its
median, so a row can be read without the prose it came from.  A metric
that perfbench scales by its host-speed probe may also carry the
unscaled figures (``raw``), held to the same rules.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ROWS = json.loads((ROOT / "BENCH_ledger.json").read_text())["rows"]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in DECLARED["workloads"]}
UNITS = {metric["name"]: metric["unit"] for metric in DECLARED["end_to_end"]}
SHA = re.compile(r"[0-9a-f]{40}")


def test_the_ledger_has_rows():
    assert ROWS


def test_every_row_names_its_blas_kernels_once_one_does():
    """GEMM speed depends on the OpenBLAS kernel family, so no row after the first that names it may omit it."""
    first = next((i for i, row in enumerate(ROWS) if "blas_kernels" in row["machine"]), len(ROWS))
    assert all(row["machine"].get("blas_kernels") for row in ROWS[first:])


@pytest.mark.parametrize("row", ROWS, ids=[row["title"] for row in ROWS])
class TestRow:
    def test_names_its_commits_machine_and_mode(self, row):
        assert SHA.fullmatch(row["parent_sha"]) and SHA.fullmatch(row["change_sha"])
        assert row["parent_sha"] != row["change_sha"]
        machine = row["machine"]
        assert isinstance(machine["cpu_count"], int) and machine["cpu_count"] >= 1
        assert machine["numpy"] and machine["blas"] and machine["blas_threads"]
        assert row["mode"] in ("untraced", "traced")
        assert row["seconds"] >= 0

    def test_names_the_seeds_and_pairs_of_each_declared_workload(self, row):
        assert row["workloads"] and set(row["workloads"]) <= WORKLOADS
        for workload in row["workloads"].values():
            seeds = workload["seeds"]
            assert all(isinstance(seed, int) for seed in seeds)
            assert workload["pairs"] == len(seeds) == len(set(seeds)) >= 1

    def test_reports_declared_metrics_in_their_units(self, row):
        for name, workload in row["workloads"].items():
            assert workload["metrics"], name
            for metric, entry in workload["metrics"].items():
                assert metric in UNITS, f"{name}: {metric} is not an end-to-end metric"
                assert entry["unit"] == UNITS[metric], f"{name}: {metric}"
                for figures in (entry, entry.get("raw", entry)):
                    for side in ("parent", "change"):
                        quartiles = figures[side]
                        assert quartiles["q1"] <= quartiles["median"] <= quartiles["q3"], f"{name}: {metric}"
                    assert 0 <= figures["change_wins"] + figures.get("ties", 0) <= workload["pairs"]

    def test_claims_a_metric_it_reports(self, row):
        claim = row["claim"]
        if claim is not None:
            assert claim["metric"] in row["workloads"][claim["workload"]]["metrics"]
