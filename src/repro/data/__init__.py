"""Dataset substrate.

The paper trains on the Street View House Numbers (SVHN) dataset.  SVHN is
not available offline, so :mod:`repro.data.synth_svhn` provides a procedural
"street-view digit" generator that mimics SVHN's key properties: 32x32 RGB
crops of single digits with cluttered backgrounds, colour variation,
neighbouring-digit distractors and sensor noise.  See DESIGN.md for the
substitution rationale.

:class:`Dataset` and :class:`DataLoader` mirror the small subset of
``torch.utils.data`` that the training pipeline needs; the generator's
images are already float32 in ``[0, 1]``, so no transform runs between
dataset and encoder.
"""

from repro.data.dataset import ArrayDataset, Dataset, Subset, train_test_split
from repro.data.dataloader import DataLoader
from repro.data.synth_svhn import SynthSVHN, SynthSVHNConfig, generate_digit_image

__all__ = [
    "Dataset",
    "ArrayDataset",
    "Subset",
    "DataLoader",
    "train_test_split",
    "SynthSVHN",
    "SynthSVHNConfig",
    "generate_digit_image",
]
