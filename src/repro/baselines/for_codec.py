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
from ..core.leco import _value_at, build_table, decode_table, fixed_widths, search_length
from ..core.partitioner import fixed_partitions, fixed_rows


def _frame_fit(rows: np.ndarray):
    """FOR's fit per frame: the horizontal line θ0 = θ1 = 0, frame min in
    bias, offsets from it stored."""
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
        v = np.asarray(values, dtype=np.int64)
        L = self.partition_len or search_length(self.name, v, lambda s, L: fixed_widths(s, L, _frame_fit))
        table = build_table(fixed_rows(v, L), _frame_fit)
        return EncodedSequence(self.name, len(v), dtype_bits, L, fixed_partitions(len(v), L), table)

    def decode(self, enc: EncodedSequence) -> np.ndarray:
        return decode_table(enc)

    def access(self, enc: EncodedSequence, i: int) -> int:
        k, off = enc.partition_of(i)
        return _value_at(enc.partitions, k, off)
