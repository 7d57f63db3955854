"""Content-addressed experiment cache: keys, storage, invalidation."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import sys
import threading
from pathlib import Path

import pytest

from repro.core.config import ExperimentConfig, SCALE_PRESETS
from repro.exec import run_experiments
from repro.exec.cache import (
    CACHE_SCHEMA_VERSION,
    TRAINING_CODE_VERSION,
    ExperimentCache,
    _key_payload,
    experiment_cache_key,
)
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

    @pytest.mark.parametrize(
        "accelerator", [None, SparsityAwareAccelerator()], ids=["no-accelerator", "sparsity-aware"]
    )
    def test_the_key_is_the_sha256_of_its_payload(self, config, accelerator):
        """The key is the sha256 of the payload's compact, key-sorted JSON, which names the config and code."""
        payload = _key_payload(config, accelerator=accelerator)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert hashlib.sha256(blob).hexdigest() == experiment_cache_key(config, accelerator=accelerator)
        assert payload["config"]["seed"] == 3
        assert payload["code"] == TRAINING_CODE_VERSION
        assert payload["schema"] == CACHE_SCHEMA_VERSION
        assert (payload["accelerator"] is None) == (accelerator is None)

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
        "target, value",
        [
            pytest.param(
                "repro.exec.cache.TRAINING_CODE_VERSION",
                "next-training-change",
                id="TRAINING_CODE_VERSION-next-training-change",
            ),
            pytest.param(
                "repro.exec.cache.CACHE_SCHEMA_VERSION",
                CACHE_SCHEMA_VERSION + 1,
                id=f"CACHE_SCHEMA_VERSION-{CACHE_SCHEMA_VERSION + 1}",
            ),
            # A release or a NumPy upgrade can change the numbers too.
            pytest.param("repro.__version__", "0.0.0+other", id="repro-version"),
            pytest.param("numpy.__version__", "0.0.0+other", id="numpy-version"),
        ],
    )
    def test_code_version_invalidates(self, config, monkeypatch, target, value):
        before = experiment_cache_key(config)
        monkeypatch.setattr(target, value)
        assert experiment_cache_key(config) != before

    def test_numpy_scalar_fields_key_like_python_numbers(self, config):
        """A grid built from NumPy values shares records with one built from literals."""
        import numpy as np

        from_numpy = config.with_overrides(seed=np.int64(3), beta=np.float32(0.25), threshold=np.float16(1.0))
        assert experiment_cache_key(from_numpy) == experiment_cache_key(config)


class TestExperimentCacheStore:
    def test_miss_then_store_then_hit(self, tmp_path, config):
        cache = ExperimentCache(tmp_path)
        key = cache.key(config)
        assert cache.load(key) is None
        assert cache.misses == 1

        cache.store(key, _fake_record(config))
        assert list(tmp_path.glob("*/*.pkl")) == [cache.path_for(key)]

        loaded = cache.load(key)
        assert cache.hits == 1
        assert loaded.config == config

    def test_layout_is_two_hex_prefix_directories(self, tmp_path, config):
        cache = ExperimentCache(tmp_path)
        key = cache.key(config)
        path = cache.store(key, _fake_record(config))
        assert path == cache.path_for(key) == tmp_path / key[:2] / f"{key}.pkl"
        assert [p.name for p in (tmp_path / key[:2]).iterdir()] == [f"{key}.pkl"]

    def test_a_hit_writes_nothing(self, tmp_path, config):
        """Serving a record touches no file or directory of the cache."""
        cache = ExperimentCache(tmp_path)
        key = cache.key(config)
        cache.store(key, _fake_record(config))
        for path in tmp_path.rglob("*"):
            os.utime(path, ns=(10**18, 10**18))
        assert cache.load(key).config == config
        assert {p.stat().st_mtime_ns for p in tmp_path.rglob("*")} == {10**18}

    def test_corrupt_entry_counts_as_miss(self, tmp_path, config):
        cache = ExperimentCache(tmp_path)
        key = cache.key(config)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.load(key) is None
        assert cache.misses == 1

    def test_store_replaces_a_corrupt_entry(self, tmp_path, config):
        """A corrupt payload is a miss; the retrained record's store mends it."""
        cache = ExperimentCache(tmp_path)
        key = cache.key(config)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x00garbage, not a pickle")
        assert cache.load(key) is None
        cache.store(key, _fake_record(config))
        assert cache.load(key).config == config
        assert (cache.misses, cache.stores, cache.hits) == (1, 1, 1)

    def test_a_second_instance_on_the_same_root_hits(self, tmp_path, config):
        writer = ExperimentCache(tmp_path)
        key = writer.key(config)
        writer.store(key, _fake_record(config))
        reader = ExperimentCache(tmp_path)
        assert reader.load(key).config == config
        assert (reader.hits, reader.misses, reader.stores) == (1, 0, 0)

    def test_no_temp_files_left_behind(self, tmp_path, config):
        cache = ExperimentCache(tmp_path)
        for i in range(3):
            cell = config.with_overrides(seed=100 + i)
            cache.store(cache.key(cell), _fake_record(cell))
        assert not list(cache.root.rglob("*.tmp"))

    def test_concurrent_stores_of_one_key_leave_one_entry(self, tmp_path, config):
        """Writers racing on one key: last rename wins, nothing torn or stray."""
        cache = ExperimentCache(tmp_path)
        key = cache.key(config)
        start = threading.Barrier(8)
        errors = []

        def writer():
            try:
                start.wait(timeout=10)
                cache.store(key, _fake_record(config))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == [f"{key}.pkl"]
        assert ExperimentCache(tmp_path).load(key).config == config

    def test_a_store_that_fails_mid_write_keeps_the_old_entry(self, tmp_path, config, monkeypatch):
        import repro.utils

        cache = ExperimentCache(tmp_path)
        key = cache.key(config)
        cache.store(key, _fake_record(config))
        before = cache.path_for(key).read_bytes()

        real_fdopen = os.fdopen

        def half_written(fd, mode):
            fh = real_fdopen(fd, mode)

            class _Disk:
                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    fh.close()
                    return False

                def write(self, data):
                    fh.write(data[: len(data) // 2])
                    raise OSError(errno.ENOSPC, "No space left on device")

            return _Disk()

        monkeypatch.setattr(repro.utils.os, "fdopen", half_written)
        with pytest.raises(OSError, match="No space"):
            cache.store(key, _fake_record(config.with_overrides(label="newer")))
        monkeypatch.undo()
        assert cache.path_for(key).read_bytes() == before
        assert not list(tmp_path.rglob("*.tmp"))
        assert ExperimentCache(tmp_path).load(key).config == config

    def test_env_var_controls_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert ExperimentCache().root == tmp_path / "elsewhere"

    @pytest.mark.parametrize("env", [None, ""], ids=["unset", "empty"])
    def test_default_root_is_under_the_working_directory(self, monkeypatch, env):
        if env is None:
            monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        else:
            monkeypatch.setenv("REPRO_CACHE_DIR", env)
        assert ExperimentCache().root == Path(".repro_cache") / "experiments"


@pytest.mark.parametrize(
    "accelerator", [None, SparsityAwareAccelerator()], ids=["no-accelerator", "sparsity-aware"]
)
def test_run_experiments_stores_only_a_pickle_per_key(tmp_path, micro_scale, accelerator):
    """A sweep writes one pickle per cell, named by the key of its config and accelerator, and nothing else."""
    configs = [ExperimentConfig(scale=micro_scale, seed=0), ExperimentConfig(scale=micro_scale, seed=1)]
    run_experiments(configs, workers=1, cache=ExperimentCache(tmp_path), accelerator=accelerator)
    keys = [experiment_cache_key(config, accelerator=accelerator) for config in configs]
    stored = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    assert stored == {f"{key[:2]}/{key}.pkl" for key in keys}


def _fake_record(config):
    """A minimal stand-in record; store/load only needs ``.config`` + picklability."""
    from types import SimpleNamespace

    return SimpleNamespace(config=config)
