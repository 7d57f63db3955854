"""Fingerprint what the default sweep cell trains, for one source tree.

Usage::

    python tools/training_fingerprint.py SRC_DIR

``SRC_DIR`` is the ``src/`` directory of the checkout to fingerprint; it
need not be this script's own tree, so the script can fingerprint a base
commit that predates it.  The script trains ``ExperimentConfig()``, the
same cell with ``surrogate="arctan", surrogate_scale=2.0`` and the same
cell with ``neuron="adaptive"`` (a few seconds each) with that tree's
``repro`` package and prints one JSON line::

    {"digest": "<sha256>", "arctan_digest": "<sha256>", "adaptive_digest": "<sha256>",
     "eval_digest": "<sha256>", "data_digest": "<sha256>", "training_code_version": "...",
     "val_accuracy": ..., "arctan_val_accuracy": ..., "adaptive_val_accuracy": ...}

Each training digest is the sha256 of the trained ``state_dict`` (name,
then raw bytes, in name order) followed by the training history minus its
``*seconds`` fields; ``digest`` is the default (fast-sigmoid LIF) cell's,
``arctan_digest`` the ArcTan cell's and ``adaptive_digest`` the
adaptive-threshold cell's.  ``eval_digest`` is the sha256 of the default
cell's compiled-plan evaluation -- ``evaluate_with_runtime`` on the
trained model and its test loader: the accuracy and every
``RuntimeActivity`` count -- which cached experiment records hold, so a
numeric change confined to the compiled plan moves it.  ``data_digest`` is
the sha256 of the images and labels that ``SynthSVHN`` renders at two
configs: the default cell's (the bench scale's easy config, which never
blurs) and 500 images of the default generator config at 32 px, which
blurs, thickens strokes, draws distractors and adds texture, so a change
to any rendering step moves it.  Equal digests mean bit-identical data,
training and evaluation.  BLAS is pinned to one thread; the
digests still depend on the BLAS kernel family, so compare trees under the
same ``OPENBLAS_CORETYPE``.  A change that moves any digest must change
``TRAINING_CODE_VERSION``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path


#: The second cell: the default one trained with the paper's other
#: surrogate, so a change to ArcTan's numerics moves a digest too.
ARCTAN_CELL = {"surrogate": "arctan", "surrogate_scale": 2.0}

#: The third cell: the default one on the adaptive-threshold neuron, so a
#: change to that neuron's training step moves a digest too.
ADAPTIVE_CELL = {"neuron": "adaptive"}


def fingerprint(src_dir: Path) -> dict:
    """Train the default cell and its ArcTan and adaptive twins from ``src_dir``; hash what each learned,
    how the default cell's compiled plan evaluates and the data the generator renders."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src_dir))
    import numpy as np
    import repro
    from repro.core.config import ExperimentConfig
    from repro.core.experiment import train_model
    from repro.data.synth_svhn import SynthSVHN, SynthSVHNConfig
    from repro.exec.cache import TRAINING_CODE_VERSION
    from repro.runtime import evaluate_with_runtime

    if not Path(repro.__file__).resolve().is_relative_to(src_dir.resolve()):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src_dir}")

    def train_and_hash(config) -> tuple:
        trained = train_model(config)
        model, _, _, training = trained
        digest = hashlib.sha256()
        for name, value in sorted(model.state_dict().items()):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        history = {k: v for k, v in training.history.items() if not k.endswith("seconds")}
        digest.update(json.dumps(history, sort_keys=True).encode())
        return digest.hexdigest(), training.final_val_accuracy, trained

    def evaluate_and_hash(model, encoder, test_loader) -> str:
        accuracy, activity = evaluate_with_runtime(model, encoder, test_loader)
        evaluation = {"accuracy": accuracy, "activity": dataclasses.asdict(activity)}
        return hashlib.sha256(json.dumps(evaluation, sort_keys=True).encode()).hexdigest()

    def data_hash() -> str:
        scale = ExperimentConfig().scale
        bench = SynthSVHNConfig.easy(image_size=scale.image_size)
        digest = hashlib.sha256()
        for dataset in (
            SynthSVHN(scale.train_samples + scale.test_samples, seed=1234, config=bench),
            SynthSVHN(500, seed=1234, config=SynthSVHNConfig(image_size=32)),
        ):
            digest.update(dataset.images.tobytes())
            digest.update(dataset.labels.tobytes())
        return digest.hexdigest()

    digest, val_accuracy, (model, encoder, test_loader, _) = train_and_hash(ExperimentConfig())
    eval_digest = evaluate_and_hash(model, encoder, test_loader)
    arctan_digest, arctan_val_accuracy, _ = train_and_hash(ExperimentConfig(**ARCTAN_CELL))
    adaptive_digest, adaptive_val_accuracy, _ = train_and_hash(ExperimentConfig(**ADAPTIVE_CELL))
    return {
        "digest": digest,
        "arctan_digest": arctan_digest,
        "adaptive_digest": adaptive_digest,
        "eval_digest": eval_digest,
        "data_digest": data_hash(),
        "training_code_version": TRAINING_CODE_VERSION,
        "val_accuracy": val_accuracy,
        "arctan_val_accuracy": arctan_val_accuracy,
        "adaptive_val_accuracy": adaptive_val_accuracy,
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "repro" / "__init__.py").is_file():
        print("usage: python tools/training_fingerprint.py SRC_DIR  (a src/ holding the repro package)", file=sys.stderr)
        return 2
    print(json.dumps(fingerprint(Path(args[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
