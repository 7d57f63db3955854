"""Procedural "street-view digit" dataset (offline SVHN substitute).

SVHN consists of 32x32 RGB crops of house-number digits photographed in the
wild: digits of varying size, colour and position over cluttered backgrounds,
often with parts of neighbouring digits visible at the crop edges, plus
sensor noise and blur.  This module generates images with exactly those
properties from a bitmap digit font, so the reproduction exercises the same
pipeline (3-channel 32x32 inputs, 10 classes, non-trivial intra-class
variation) without network access.

The generator is fully deterministic given a seed, which the experiment
harness relies on so that every hyperparameter configuration is trained and
evaluated on identical data.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset

# 5x7 bitmap font for digits 0-9 ('#' = stroke pixel).
_DIGIT_GLYPHS = {
    0: [
        " ### ",
        "#   #",
        "#  ##",
        "# # #",
        "##  #",
        "#   #",
        " ### ",
    ],
    1: [
        "  #  ",
        " ##  ",
        "  #  ",
        "  #  ",
        "  #  ",
        "  #  ",
        " ### ",
    ],
    2: [
        " ### ",
        "#   #",
        "    #",
        "   # ",
        "  #  ",
        " #   ",
        "#####",
    ],
    3: [
        " ### ",
        "#   #",
        "    #",
        "  ## ",
        "    #",
        "#   #",
        " ### ",
    ],
    4: [
        "   # ",
        "  ## ",
        " # # ",
        "#  # ",
        "#####",
        "   # ",
        "   # ",
    ],
    5: [
        "#####",
        "#    ",
        "#### ",
        "    #",
        "    #",
        "#   #",
        " ### ",
    ],
    6: [
        " ### ",
        "#    ",
        "#    ",
        "#### ",
        "#   #",
        "#   #",
        " ### ",
    ],
    7: [
        "#####",
        "    #",
        "   # ",
        "  #  ",
        "  #  ",
        "  #  ",
        "  #  ",
    ],
    8: [
        " ### ",
        "#   #",
        "#   #",
        " ### ",
        "#   #",
        "#   #",
        " ### ",
    ],
    9: [
        " ### ",
        "#   #",
        "#   #",
        " ####",
        "    #",
        "    #",
        " ### ",
    ],
}


def _glyph_mask(digit: int) -> np.ndarray:
    """Binary 7x5 stroke mask for a digit."""
    rows = _DIGIT_GLYPHS[digit]
    return np.array([[1.0 if ch == "#" else 0.0 for ch in row] for row in rows], dtype=np.float32)


def _resize_nearest(mask: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour resize of a 2-D mask."""
    h, w = mask.shape
    row_idx = np.clip((np.arange(out_h) * h / out_h).astype(int), 0, h - 1)
    col_idx = np.clip((np.arange(out_w) * w / out_w).astype(int), 0, w - 1)
    return mask[np.ix_(row_idx, col_idx)]


def _dilate(mask: np.ndarray) -> np.ndarray:
    """2x2 grey dilation: each pixel takes the maximum over ``[i, i+1] x [j, j+1]``.

    The window of the last row (column) reflects back onto that row
    (column), which therefore keeps its own values along that axis.  This
    is ``scipy.ndimage.grey_dilation(mask, size=(2, 2))`` bit for bit.
    """
    out = mask.copy()
    out[:-1] = np.maximum(mask[:-1], mask[1:])
    out[:, :-1] = np.maximum(out[:, :-1], out[:, 1:])
    return out


def _gaussian_blur(canvas: np.ndarray, sigma: float) -> np.ndarray:
    """Blur each channel of a float32 CHW canvas with a Gaussian of width ``sigma``.

    This is ``scipy.ndimage.gaussian_filter(canvas, sigma=(0, sigma, sigma))``
    bit for bit: the same normalised kernel truncated at radius
    ``int(4 sigma + 0.5)``, one pass along the rows and then one along the
    columns, each rounded to float32 (see :func:`_blur_pass`).
    """
    radius = int(4.0 * sigma + 0.5)
    kernel = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    weights = (kernel / kernel.sum())[radius:]
    for axis in (1, 2):
        canvas = _blur_pass(canvas, weights, axis)
    return canvas


@functools.lru_cache(maxsize=None)
def _symmetric_index(length: int, radius: int) -> np.ndarray:
    """Indices that pad ``length`` samples by ``radius`` on each side, half-sample symmetric.

    Gathering with them is ``np.pad(..., mode="symmetric")`` along one axis,
    for any radius, without its per-call cost.
    """
    index = np.pad(np.arange(length), radius, mode="symmetric")
    index.flags.writeable = False
    return index


def _blur_pass(canvas: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Correlate ``canvas`` along ``axis`` with the symmetric kernel whose
    centre and right half are ``weights``.

    The edges are padded half-sample symmetric (``d c b a | a b c d | d c
    b a``, scipy's ``reflect``).  Each output sums in float64 in scipy's
    order, ``x[i] * w[0]`` first and then ``(x[i-j] + x[i+j]) * w[j]``
    from the outermost tap inward, and is rounded to float32.
    """
    radius = len(weights) - 1
    length = canvas.shape[axis]
    padded = canvas.take(_symmetric_index(length, radius), axis=axis).astype(np.float64)
    lead = (slice(None),) * axis

    def tap(offset: int) -> np.ndarray:
        return padded[lead + (slice(radius + offset, radius + offset + length),)]

    out = tap(0) * weights[0]
    for j in range(radius, 0, -1):
        out += (tap(-j) + tap(j)) * weights[j]
    return out.astype(np.float32)


@dataclass
class SynthSVHNConfig:
    """Configuration of the synthetic street-view digit generator.

    Attributes
    ----------
    image_size:
        Square image side length (SVHN uses 32).
    num_classes:
        Number of digit classes (10).
    distractor_probability:
        Chance that a partial neighbouring digit appears at the crop edge,
        mimicking SVHN's multi-digit house numbers.
    noise_std:
        Standard deviation of additive Gaussian pixel noise.
    blur_probability:
        Chance that mild Gaussian blur is applied (camera defocus).
    min_digit_scale / max_digit_scale:
        Digit height range as a fraction of the image height.
    background_texture:
        Whether to add a low-frequency colour-gradient background texture.
    """

    image_size: int = 32
    num_classes: int = 10
    distractor_probability: float = 0.5
    noise_std: float = 0.06
    blur_probability: float = 0.4
    min_digit_scale: float = 0.5
    max_digit_scale: float = 0.9
    background_texture: bool = True
    polarity: str = "both"

    @classmethod
    def easy(cls, image_size: int = 16, num_classes: int = 10) -> "SynthSVHNConfig":
        """Reduced-variability preset for small-sample training budgets.

        Used by the smoke/bench reproduction scales: when only a few hundred
        training images are available, the full SVHN-like clutter (random
        polarity, distractors, blur) makes the task statistically unlearnable,
        which would flatten every accuracy trend the paper reports.  The easy
        preset keeps the same rendering pipeline but fixes the contrast
        polarity and removes distractors so the *relative* effect of the
        training hyperparameters remains observable.
        """
        return cls(
            image_size=image_size,
            num_classes=num_classes,
            distractor_probability=0.0,
            noise_std=0.02,
            blur_probability=0.0,
            min_digit_scale=0.7,
            max_digit_scale=0.9,
            background_texture=False,
            polarity="dark",
        )

    def validate(self) -> None:
        if self.image_size < 8:
            raise ValueError("image_size must be at least 8")
        if not 2 <= self.num_classes <= 10:
            raise ValueError("num_classes must lie in [2, 10]")
        if not 0.0 <= self.distractor_probability <= 1.0:
            raise ValueError("distractor_probability must lie in [0, 1]")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if not 0.0 < self.min_digit_scale <= self.max_digit_scale <= 1.0:
            raise ValueError("digit scale range must satisfy 0 < min <= max <= 1")
        if self.polarity not in ("both", "dark", "light"):
            raise ValueError("polarity must be 'both', 'dark' or 'light'")


def _random_colour(rng: np.random.Generator, brightness: Tuple[float, float]) -> np.ndarray:
    lo, hi = brightness
    base = rng.uniform(lo, hi)
    jitter = rng.uniform(-0.15, 0.15, size=3)
    return np.clip(base + jitter, 0.0, 1.0).astype(np.float32)


def _paste_digit(
    canvas: np.ndarray,
    digit: int,
    colour: np.ndarray,
    top: int,
    left: int,
    height: int,
    rng: np.random.Generator,
) -> None:
    """Blend a digit glyph onto the CHW canvas at the given position."""
    width = max(3, int(round(height * 5.0 / 7.0)))
    mask = _resize_nearest(_glyph_mask(digit), height, width)
    # Random stroke thickening for font-weight variation.
    if rng.random() < 0.5:
        mask = _dilate(mask)
    img_size = canvas.shape[1]
    y0, x0 = max(top, 0), max(left, 0)
    y1, x1 = min(top + height, img_size), min(left + width, img_size)
    if y1 <= y0 or x1 <= x0:
        return
    sub = mask[y0 - top : y1 - top, x0 - left : x1 - left]
    alpha = sub[None] * rng.uniform(0.8, 1.0)
    canvas[:, y0:y1, x0:x1] = (1.0 - alpha) * canvas[:, y0:y1, x0:x1] + alpha * colour[:, None, None]


def generate_digit_image(
    digit: int,
    rng: np.random.Generator,
    config: Optional[SynthSVHNConfig] = None,
) -> np.ndarray:
    """Generate one synthetic street-view digit image.

    Returns a float32 CHW array with values in ``[0, 1]``.
    """
    cfg = config if config is not None else SynthSVHNConfig()
    cfg.validate()
    if not 0 <= digit < cfg.num_classes:
        raise ValueError(f"digit must lie in [0, {cfg.num_classes - 1}], got {digit}")
    size = cfg.image_size

    # Background: flat colour plus an optional low-frequency gradient.
    if cfg.polarity == "dark":
        dark_background = True
    elif cfg.polarity == "light":
        dark_background = False
    else:
        dark_background = rng.random() < 0.5
    bg_brightness = (0.05, 0.45) if dark_background else (0.55, 0.95)
    background = _random_colour(rng, bg_brightness)
    canvas = np.ones((3, size, size), dtype=np.float32) * background[:, None, None]
    if cfg.background_texture:
        yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij")
        angle = rng.uniform(0, 2 * np.pi)
        gradient = (np.cos(angle) * xx + np.sin(angle) * yy) * rng.uniform(0.05, 0.25)
        canvas += gradient[None].astype(np.float32)

    # Foreground digit colour contrasts with the background.
    fg_brightness = (0.6, 1.0) if dark_background else (0.0, 0.4)
    foreground = _random_colour(rng, fg_brightness)

    digit_height = int(round(size * rng.uniform(cfg.min_digit_scale, cfg.max_digit_scale)))
    digit_width = int(round(digit_height * 5.0 / 7.0))
    top = int(rng.integers(0, max(size - digit_height, 1)))
    left = int(rng.integers(0, max(size - digit_width, 1)))
    _paste_digit(canvas, digit, foreground, top, left, digit_height, rng)

    # Partial neighbouring digit at the left or right edge (SVHN clutter).
    if rng.random() < cfg.distractor_probability:
        other = int(rng.integers(0, cfg.num_classes))
        side_left = rng.random() < 0.5
        d_height = int(round(digit_height * rng.uniform(0.8, 1.1)))
        d_width = int(round(d_height * 5.0 / 7.0))
        d_left = -d_width // 2 if side_left else size - d_width // 2
        d_top = int(np.clip(top + rng.integers(-3, 4), 0, max(size - d_height, 0)))
        _paste_digit(canvas, other, foreground, d_top, d_left, d_height, rng)

    if rng.random() < cfg.blur_probability:
        sigma = rng.uniform(0.3, 0.9)
        canvas = _gaussian_blur(canvas, sigma)

    if cfg.noise_std > 0:
        canvas += rng.normal(0.0, cfg.noise_std, size=canvas.shape).astype(np.float32)

    return np.clip(canvas, 0.0, 1.0).astype(np.float32)


class SynthSVHN(ArrayDataset):
    """In-memory synthetic SVHN-like dataset.

    Parameters
    ----------
    num_samples:
        Total number of images to generate (balanced across classes).
    seed:
        Generator seed; the full image set is a pure function of
        ``(num_samples, seed, config)``.
    config:
        Optional :class:`SynthSVHNConfig` overriding generation parameters.
    """

    def __init__(
        self,
        num_samples: int = 1000,
        seed: int = 0,
        config: Optional[SynthSVHNConfig] = None,
    ) -> None:
        if num_samples <= 0:
            raise ValueError(f"num_samples must be positive, got {num_samples}")
        cfg = config if config is not None else SynthSVHNConfig()
        cfg.validate()
        rng = np.random.default_rng(seed)
        labels = np.arange(num_samples, dtype=np.int64) % cfg.num_classes
        rng.shuffle(labels)
        images = np.stack([generate_digit_image(int(lab), rng, cfg) for lab in labels])
        super().__init__(images, labels)
        self.config = cfg
        self.seed = int(seed)

    def class_counts(self) -> np.ndarray:
        """Number of samples per class."""
        return np.bincount(self.labels, minlength=self.config.num_classes)
