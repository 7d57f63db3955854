"""Fingerprint what the default sweep cell trains, for one source tree.

Usage::

    python tools/training_fingerprint.py SRC_DIR

``SRC_DIR`` is the ``src/`` directory of the checkout to fingerprint; it
need not be this script's own tree, so the script can fingerprint a base
commit that predates it.  The script trains ``ExperimentConfig()`` once
(a few seconds) with that tree's ``repro`` package and prints one JSON
line::

    {"digest": "<sha256>", "training_code_version": "...", "val_accuracy": ...}

``digest`` is the sha256 of the trained ``state_dict`` (name, then raw
bytes, in name order) followed by the training history minus its
``*seconds`` fields.  Equal digests mean bit-identical training.  BLAS is
pinned to one thread; the digest still depends on the BLAS kernel family,
so compare trees under the same ``OPENBLAS_CORETYPE``.  A change that moves
the digest must change ``TRAINING_CODE_VERSION``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path


def fingerprint(src_dir: Path) -> dict:
    """Train the default cell from ``src_dir`` and hash what it learned."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src_dir))
    import numpy as np
    import repro
    from repro.core.config import ExperimentConfig
    from repro.core.experiment import train_model
    from repro.exec.cache import TRAINING_CODE_VERSION

    if not Path(repro.__file__).resolve().is_relative_to(src_dir.resolve()):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src_dir}")
    model, _, _, training = train_model(ExperimentConfig())
    digest = hashlib.sha256()
    for name, value in sorted(model.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    history = {k: v for k, v in training.history.items() if not k.endswith("seconds")}
    digest.update(json.dumps(history, sort_keys=True).encode())
    return {
        "digest": digest.hexdigest(),
        "training_code_version": TRAINING_CODE_VERSION,
        "val_accuracy": training.final_val_accuracy,
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
