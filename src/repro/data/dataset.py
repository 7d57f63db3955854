"""Dataset abstractions."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


class Dataset:
    """Minimal map-style dataset interface (``__len__`` + ``__getitem__``)."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        raise NotImplementedError


class ArrayDataset(Dataset):
    """Dataset backed by in-memory arrays of images and integer labels."""

    def __init__(self, images: np.ndarray, labels: np.ndarray) -> None:
        images = np.asarray(images)
        labels = np.asarray(labels)
        if len(images) != len(labels):
            raise ValueError(f"images ({len(images)}) and labels ({len(labels)}) must have equal length")
        self.images = images
        self.labels = labels.astype(np.int64)

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


class Subset(Dataset):
    """View onto a subset of another dataset, selected by index."""

    def __init__(self, dataset: Dataset, indices: Sequence[int]) -> None:
        self.dataset = dataset
        self.indices = list(int(i) for i in indices)
        n = len(dataset)
        for i in self.indices:
            if not 0 <= i < n:
                raise IndexError(f"subset index {i} out of range for dataset of size {n}")

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.dataset[self.indices[index]]


def train_test_split(
    dataset: Dataset,
    test_fraction: float = 0.2,
    seed: Optional[int] = 0,
) -> Tuple[Subset, Subset]:
    """Deterministically split a dataset into train and test subsets.

    Parameters
    ----------
    dataset:
        The dataset to split.
    test_fraction:
        Fraction of samples assigned to the test subset (0 < f < 1).
    seed:
        Shuffle seed; identical seeds give identical splits.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n = len(dataset)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_idx = order[:n_test]
    train_idx = order[n_test:]
    return Subset(dataset, train_idx), Subset(dataset, test_idx)
