"""Content-addressed experiment cache: keys, storage, invalidation."""

from __future__ import annotations

import pytest

from repro.core.config import ExperimentConfig, SCALE_PRESETS
from repro.exec.cache import CACHE_SCHEMA_VERSION, ExperimentCache, experiment_cache_key
from repro.hardware.accelerator import DenseBaselineAccelerator, SparsityAwareAccelerator


@pytest.fixture
def config() -> ExperimentConfig:
    return ExperimentConfig(scale=SCALE_PRESETS["smoke"], seed=3)


class TestCacheKey:
    def test_key_is_stable(self, config):
        assert experiment_cache_key(config) == experiment_cache_key(config)

    def test_key_is_hex_sha256(self, config):
        key = experiment_cache_key(config)
        assert len(key) == 64
        int(key, 16)  # parses as hex

    def test_equal_configs_share_a_key(self, config):
        clone = ExperimentConfig(scale=SCALE_PRESETS["smoke"], seed=3)
        assert experiment_cache_key(config) == experiment_cache_key(clone)

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 4},
            {"beta": 0.5},
            {"threshold": 1.5},
            {"surrogate": "arctan"},
            {"surrogate_scale": 2.0},
            {"encoder": "rate"},
            {"learning_rate": 1e-3},
            {"loss": "mse_count"},
            {"scale": SCALE_PRESETS["bench"]},
        ],
    )
    def test_any_config_field_invalidates(self, config, override):
        changed = config.with_overrides(**override)
        assert experiment_cache_key(config) != experiment_cache_key(changed)

    def test_label_is_cosmetic_and_excluded_from_the_key(self, config):
        """Identical trainings under different report labels share a cache cell."""
        relabelled = config.with_overrides(label="same cell, different sweep")
        assert experiment_cache_key(config) == experiment_cache_key(relabelled)

    def test_accelerator_is_part_of_the_key(self, config):
        default = experiment_cache_key(config)
        sparsity_aware = experiment_cache_key(config, accelerator=SparsityAwareAccelerator())
        dense = experiment_cache_key(config, accelerator=DenseBaselineAccelerator())
        assert default != sparsity_aware
        assert sparsity_aware != dense

    def test_accelerator_calibration_is_part_of_the_key(self, config):
        """Same class + same config but a recalibrated power model must not collide."""
        import dataclasses

        from repro.hardware.power import PowerModel

        stock = SparsityAwareAccelerator()
        recalibrated = SparsityAwareAccelerator(
            power_model=dataclasses.replace(PowerModel(), static_w_base=PowerModel().static_w_base * 2)
        )
        assert experiment_cache_key(config, accelerator=stock) != experiment_cache_key(
            config, accelerator=recalibrated
        )

    def test_accelerator_fingerprint_is_stable_across_instances(self, config):
        assert experiment_cache_key(config, accelerator=SparsityAwareAccelerator()) == (
            experiment_cache_key(config, accelerator=SparsityAwareAccelerator())
        )

    def test_array_attributes_are_keyed_by_content_not_repr(self, config):
        """Large arrays whose reprs elide identically must not collide."""
        import numpy as np

        a = SparsityAwareAccelerator()
        b = SparsityAwareAccelerator()
        # Simulate a future calibration-table attribute; reprs of both arrays
        # elide the differing middle elements identically.
        a.calibration = np.zeros(5000)
        b.calibration = np.zeros(5000)
        b.calibration[2500] = 1.0
        assert repr(a.calibration) == repr(b.calibration)
        assert experiment_cache_key(config, accelerator=a) != experiment_cache_key(
            config, accelerator=b
        )

    @pytest.mark.parametrize(
        "name, value",
        [
            ("TRAINING_CODE_VERSION", "next-training-change"),
            ("CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1),
        ],
    )
    def test_code_version_invalidates(self, config, monkeypatch, name, value):
        import repro.exec.cache as cache_mod

        before = experiment_cache_key(config)
        monkeypatch.setattr(cache_mod, name, value)
        assert experiment_cache_key(config) != before


class TestExperimentCacheStore:
    def test_miss_then_store_then_hit(self, tmp_path, config):
        cache = ExperimentCache(tmp_path)
        key = cache.key(config)
        assert cache.load(key) is None
        assert cache.misses == 1

        cache.store(key, _fake_record(config))
        assert cache.contains(key)
        assert len(cache) == 1

        loaded = cache.load(key)
        assert cache.hits == 1
        assert loaded.config == config

    def test_store_writes_auditable_sidecar(self, tmp_path, config):
        cache = ExperimentCache(tmp_path)
        key = cache.key(config)
        path = cache.store(key, _fake_record(config))
        sidecar = path.with_suffix(".json")
        assert sidecar.exists()
        text = sidecar.read_text()
        assert '"seed": 3' in text
        assert '"code"' in text

    def test_corrupt_entry_counts_as_miss(self, tmp_path, config):
        cache = ExperimentCache(tmp_path)
        key = cache.key(config)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.load(key) is None
        assert cache.misses == 1

    def test_clear_removes_everything(self, tmp_path, config):
        cache = ExperimentCache(tmp_path)
        cache.store(cache.key(config), _fake_record(config))
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_env_var_controls_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert ExperimentCache().root == tmp_path / "elsewhere"


def _fake_record(config):
    """A minimal stand-in record; store/load only needs ``.config`` + picklability."""
    from types import SimpleNamespace

    return SimpleNamespace(config=config)


class TestInspectionAndSweep:
    def _store_n(self, tmp_path, config, n):
        cache = ExperimentCache(tmp_path)
        keys = []
        for i in range(n):
            cell = config.with_overrides(seed=100 + i)
            key = cache.key(cell)
            cache.store(key, _fake_record(cell))
            keys.append(key)
        return cache, keys

    def test_entries_report_size_and_summary(self, tmp_path, config):
        cache, keys = self._store_n(tmp_path, config, 2)
        entries = cache.entries()
        assert {entry.key for entry in entries} == set(keys)
        assert all(entry.size_bytes > 0 for entry in entries)
        assert all("surrogate=" in entry.summary and "scale=smoke" in entry.summary for entry in entries)
        assert cache.total_bytes() == sum(entry.size_bytes for entry in entries)

    def test_no_temp_files_left_behind(self, tmp_path, config):
        cache, _ = self._store_n(tmp_path, config, 3)
        assert not list(cache.root.rglob("*.tmp"))

    def test_sweep_evicts_least_recently_used_first(self, tmp_path, config):
        import os
        import time

        cache, keys = self._store_n(tmp_path, config, 3)
        # Age the files artificially (mtime resolution), oldest first.
        now = time.time()
        for age, key in zip((300, 200, 100), keys):
            os.utime(cache.path_for(key), (now - age, now - age))
        # Touch the oldest via a hit: it becomes the most recently used.
        assert cache.load(keys[0]) is not None

        entry_size = cache.total_bytes() // 3
        evicted = cache.sweep(max_bytes=entry_size + 1)  # keep exactly one
        evicted_keys = [entry.key for entry in evicted]
        assert keys[0] not in evicted_keys, "a cache hit must protect an entry from LRU eviction"
        assert set(evicted_keys) == {keys[1], keys[2]}
        assert len(cache) == 1 and cache.contains(keys[0])

    def test_sweep_within_budget_is_a_no_op(self, tmp_path, config):
        cache, _ = self._store_n(tmp_path, config, 2)
        assert cache.sweep(max_bytes=cache.total_bytes()) == []
        assert len(cache) == 2

    def test_sweep_zero_clears_everything(self, tmp_path, config):
        cache, _ = self._store_n(tmp_path, config, 2)
        assert len(cache.sweep(max_bytes=0)) == 2
        assert len(cache) == 0

    def test_remove_single_entry(self, tmp_path, config):
        cache, keys = self._store_n(tmp_path, config, 1)
        assert cache.remove(keys[0]) is True
        assert cache.remove(keys[0]) is False
        assert not cache.path_for(keys[0]).with_suffix(".json").exists()


class TestCli:
    def _populated(self, tmp_path, config, n=2):
        cache = ExperimentCache(tmp_path)
        for i in range(n):
            cell = config.with_overrides(seed=200 + i)
            cache.store(cache.key(cell), _fake_record(cell))
        return cache

    def test_inspect_lists_entries(self, tmp_path, config, capsys):
        from repro.exec.cli import main

        self._populated(tmp_path, config)
        assert main(["--root", str(tmp_path), "inspect"]) == 0
        out = capsys.readouterr().out
        assert "2 records" in out
        assert "surrogate=" in out

    def test_inspect_empty_cache(self, tmp_path, capsys):
        from repro.exec.cli import main

        assert main(["--root", str(tmp_path), "inspect"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_clear_removes_records(self, tmp_path, config, capsys):
        from repro.exec.cli import main

        cache = self._populated(tmp_path, config)
        assert main(["--root", str(tmp_path), "clear"]) == 0
        assert "removed 2 records" in capsys.readouterr().out
        assert len(cache) == 0

    def test_sweep_respects_budget(self, tmp_path, config, capsys):
        from repro.exec.cli import main

        cache = self._populated(tmp_path, config, n=3)
        per_entry_mb = (cache.total_bytes() / 3) / (1024 * 1024)
        assert main(["--root", str(tmp_path), "sweep", "--max-mb", str(per_entry_mb * 1.5)]) == 0
        assert "evicted 2 records" in capsys.readouterr().out
        assert len(cache) == 1

    def test_module_entry_point_runs(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.exec", "--root", str(tmp_path), "inspect"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "empty" in proc.stdout
