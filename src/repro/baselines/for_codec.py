"""Frame-of-Reference baseline (§2): per-frame minimum + bit-packed offsets.

Under the LeCo framework FOR is the special case whose Regressor always
outputs a horizontal line, so it reuses the same storage format with
``θ0 = θ1 = 0`` and the frame minimum in the exact int64 bias, LeCo's
table builder (its fit takes the frames as ranges, like every Model+Delta
fit) and LeCo's decode and access kernels.  Frame length comes from the
same sampling-based search used by LeCo-fix (§4.2 applies that search to
all fixed-partitioning baselines).
"""
from __future__ import annotations

import numpy as np

from ..core.bitpack import bits_needed_vec
from ..core.format import EncodedSequence
from ..core.leco import _LeCoBase, decode_table, encode_fixed


def _frame_fit(v: np.ndarray, starts, stops):
    """FOR's fit of the ranges ``v[a:b]`` that tile ``v``: the horizontal
    line θ0 = θ1 = 0, each range's min (one ``reduceat``) in bias, and the
    offsets from it stored."""
    lo, hi = np.minimum.reduceat(v, starts), np.maximum.reduceat(v, starts)
    zeros = np.zeros(len(lo))
    return zeros, zeros, lo, bits_needed_vec(hi - lo), v - np.repeat(lo, stops - starts)


class FORCodec:
    """Frame-of-Reference with searched fixed frame length."""

    name = "FOR"
    supports_random_access = True

    def __init__(self, partition_len: int | None = None):
        self.partition_len = partition_len

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EncodedSequence:
        return encode_fixed(self.name, values, dtype_bits, self.partition_len, _frame_fit)

    def decode(self, enc: EncodedSequence) -> np.ndarray:
        return decode_table(enc)

    access = _LeCoBase.access
