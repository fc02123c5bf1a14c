"""Frame-of-Reference baseline (§2): per-frame minimum + bit-packed offsets.

Under the LeCo framework FOR is the special case whose Regressor always
outputs a horizontal line, so it reuses the same storage format with
``θ0 = θ1 = 0`` and the frame minimum in the exact int64 bias, and LeCo's
decode and access kernels.  Frame length comes from the same sampling-based
search used by LeCo-fix (§4.2 applies that search to all fixed-partitioning
baselines).
"""
from __future__ import annotations

import numpy as np

from ..core.bitpack import bits_needed_vec
from ..core.format import EncodedSequence
from ..core.leco import _value_at, decode_table, encode_fixed


def _frame_fit(rows: np.ndarray, L: int | None = None):
    """FOR's fit per frame: the horizontal line θ0 = θ1 = 0, frame min in
    bias, offsets from it stored (the frame length ``L`` plays no part)."""
    rmin = rows.min(axis=1)
    zeros = np.zeros(len(rows))
    return zeros, zeros, rmin, bits_needed_vec(rows.max(axis=1) - rmin), rows - rmin[:, None]


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

    def access(self, enc: EncodedSequence, i: int) -> int:
        k, off = enc.partition_of(i)
        return _value_at(enc.partitions, k, off)
