"""Input spike encoders.

Static images must be converted to spike trains before they can drive a
spiking network.  The paper trains on rate-coded SVHN images (the standard
snnTorch approach); the encoding-ablation experiment additionally compares
latency (time-to-first-spike) and direct (constant current) coding, since
the paper's introduction identifies input coding as the primary source of
sparsity.
"""

from repro.encoding.base import Encoder, is_time_invariant
from repro.encoding.rate import RateEncoder
from repro.encoding.latency import LatencyEncoder
from repro.encoding.direct import DirectEncoder

__all__ = ["Encoder", "RateEncoder", "LatencyEncoder", "DirectEncoder", "is_time_invariant"]
