"""Unit tests for the dataset substrate (synthetic SVHN, datasets, loaders)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data import (
    ArrayDataset,
    DataLoader,
    Subset,
    SynthSVHN,
    SynthSVHNConfig,
    generate_digit_image,
    train_test_split,
)
from repro.data.synth_svhn import _dilate, _gaussian_blur, _glyph_mask, _resize_nearest


class TestSynthSVHN:
    def test_image_shape_and_range(self):
        rng = np.random.default_rng(0)
        img = generate_digit_image(7, rng)
        assert img.shape == (3, 32, 32)
        assert img.dtype == np.float32
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_all_digits_generate(self):
        rng = np.random.default_rng(1)
        for digit in range(10):
            img = generate_digit_image(digit, rng)
            assert np.isfinite(img).all()

    def test_invalid_digit_rejected(self):
        with pytest.raises(ValueError):
            generate_digit_image(10, np.random.default_rng(0))

    def test_dataset_is_deterministic_given_seed(self):
        a = SynthSVHN(num_samples=20, seed=5)
        b = SynthSVHN(num_samples=20, seed=5)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = SynthSVHN(num_samples=20, seed=5)
        b = SynthSVHN(num_samples=20, seed=6)
        assert not np.array_equal(a.images, b.images)

    def test_classes_are_balanced(self):
        dataset = SynthSVHN(num_samples=100, seed=0)
        counts = dataset.class_counts()
        assert counts.sum() == 100
        assert counts.min() >= 9  # 100 samples over 10 classes, near-balanced

    def test_custom_image_size(self):
        dataset = SynthSVHN(num_samples=4, seed=0, config=SynthSVHNConfig(image_size=16))
        image, label = dataset[0]
        assert image.shape == (3, 16, 16)
        assert 0 <= label < 10

    def test_easy_preset_has_no_distractors(self):
        cfg = SynthSVHNConfig.easy(image_size=16)
        assert cfg.distractor_probability == 0.0
        assert cfg.polarity == "dark"
        cfg.validate()

    def test_easy_images_have_dark_background(self):
        cfg = SynthSVHNConfig.easy(image_size=16)
        rng = np.random.default_rng(3)
        img = generate_digit_image(3, rng, cfg)
        # Corners should be background (dark).
        corners = img[:, [0, 0, -1, -1], [0, -1, 0, -1]]
        assert corners.mean() < 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthSVHNConfig(image_size=4).validate()
        with pytest.raises(ValueError):
            SynthSVHNConfig(noise_std=-1).validate()
        with pytest.raises(ValueError):
            SynthSVHNConfig(min_digit_scale=0.9, max_digit_scale=0.5).validate()
        with pytest.raises(ValueError):
            SynthSVHNConfig(polarity="sideways").validate()

    def test_invalid_num_samples(self):
        with pytest.raises(ValueError):
            SynthSVHN(num_samples=0)


class TestScipyReference:
    """The generator's blur and stroke dilation are ``scipy.ndimage``'s, bit for bit.

    scipy is only the reference here: ``repro`` itself does not import it.
    """

    @pytest.mark.parametrize("size", [8, 16, 32])
    def test_blur_matches_gaussian_filter(self, size):
        from scipy import ndimage

        rng = np.random.default_rng(size)
        # The radius int(4 sigma + 0.5) steps up at 0.375, 0.625 and 0.875,
        # so the fixed sigmas reach every radius the generator's [0.3, 0.9]
        # draws (radius 4 at 8 px too), and the random ones fill the range.
        sigmas = [0.3, 0.375, 0.625, 0.875, 0.9, *rng.uniform(0.3, 0.9, 40)]
        assert {int(4.0 * sigma + 0.5) for sigma in sigmas} == {1, 2, 3, 4}
        for sigma in sigmas:
            canvas = rng.random((3, size, size), dtype=np.float32)
            expected = ndimage.gaussian_filter(canvas, sigma=(0, sigma, sigma))
            blurred = _gaussian_blur(canvas, sigma)
            assert blurred.dtype == np.float32 and blurred.shape == canvas.shape
            assert blurred.tobytes() == expected.tobytes(), f"sigma={sigma}"

    def test_dilation_matches_grey_dilation_on_every_glyph_mask(self):
        from scipy import ndimage

        # Heights 0-40 hold every mask drawn at up to 32 px: digits at most
        # 0.9 of the image tall, distractors at most 1.1 times the digit.
        for digit in range(10):
            for height in range(41):
                width = max(3, int(round(height * 5.0 / 7.0)))
                mask = _resize_nearest(_glyph_mask(digit), height, width)
                expected = ndimage.grey_dilation(mask, size=(2, 2))
                dilated = _dilate(mask)
                assert dilated.dtype == expected.dtype and dilated.shape == expected.shape
                assert dilated.tobytes() == expected.tobytes(), (digit, height)


_RENDER_WITHOUT_SCIPY = textwrap.dedent(
    """
    import importlib, pkgutil, sys

    import repro
    from repro.data import SynthSVHN, SynthSVHNConfig

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith(".__main__"):
            importlib.import_module(module.name)
    SynthSVHN(50, seed=0, config=SynthSVHNConfig.easy(image_size=16))
    SynthSVHN(50, seed=0, config=SynthSVHNConfig(image_size=32))
    loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
    assert "scipy" not in sys.modules, loaded
    """
)


def test_repro_imports_and_renders_without_scipy():
    """Every ``repro`` module imports, and both generator configs render, with no scipy loaded."""
    src = str(Path(repro.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", _RENDER_WITHOUT_SCIPY],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr


class TestDatasets:
    def test_array_dataset_getitem(self):
        images = np.zeros((5, 3, 8, 8), dtype=np.float32)
        labels = np.arange(5)
        ds = ArrayDataset(images, labels)
        img, lab = ds[3]
        assert img.shape == (3, 8, 8)
        assert lab == 3
        assert len(ds) == 5
        assert ds.num_classes == 5

    def test_array_dataset_length_mismatch(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4))

    def test_subset_indexing(self):
        ds = ArrayDataset(np.arange(10).reshape(10, 1).astype(np.float32), np.arange(10))
        sub = Subset(ds, [2, 5, 7])
        assert len(sub) == 3
        assert sub[1][1] == 5

    def test_subset_rejects_out_of_range(self):
        ds = ArrayDataset(np.zeros((3, 1)), np.zeros(3))
        with pytest.raises(IndexError):
            Subset(ds, [5])

    def test_train_test_split_partitions(self):
        ds = ArrayDataset(np.zeros((100, 1)), np.zeros(100))
        train, test = train_test_split(ds, test_fraction=0.25, seed=0)
        assert len(train) == 75 and len(test) == 25
        assert set(train.indices).isdisjoint(test.indices)

    def test_train_test_split_is_deterministic(self):
        ds = ArrayDataset(np.zeros((50, 1)), np.zeros(50))
        a = train_test_split(ds, seed=3)[1].indices
        b = train_test_split(ds, seed=3)[1].indices
        assert a == b

    def test_train_test_split_invalid_fraction(self):
        ds = ArrayDataset(np.zeros((10, 1)), np.zeros(10))
        with pytest.raises(ValueError):
            train_test_split(ds, test_fraction=0.0)


class TestDataLoader:
    def _dataset(self, n=10):
        return ArrayDataset(np.arange(n, dtype=np.float32).reshape(n, 1), np.arange(n) % 3)

    def test_batching(self):
        loader = DataLoader(self._dataset(10), batch_size=4)
        batches = list(loader)
        assert len(batches) == 3
        assert batches[0][0].shape == (4, 1)
        assert batches[-1][0].shape == (2, 1)

    def test_len(self):
        assert len(DataLoader(self._dataset(10), batch_size=4)) == 3
        assert len(DataLoader(self._dataset(10), batch_size=4, drop_last=True)) == 2

    def test_drop_last(self):
        loader = DataLoader(self._dataset(10), batch_size=4, drop_last=True)
        assert all(images.shape[0] == 4 for images, _ in loader)

    def test_shuffle_changes_order_but_not_content(self):
        loader = DataLoader(self._dataset(20), batch_size=20, shuffle=True, seed=0)
        images, _ = next(iter(loader))
        assert sorted(images.reshape(-1).tolist()) == list(range(20))

    def test_labels_are_int64(self):
        _, labels = next(iter(DataLoader(self._dataset(), batch_size=5)))
        assert labels.dtype == np.int64

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self._dataset(), batch_size=0)
