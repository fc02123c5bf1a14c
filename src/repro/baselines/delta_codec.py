"""Delta Encoding baselines (§2, §3.2.2): store first differences per partition.

Per partition the header stores the first value (in the integer bias) and
the bias of the stored differences (as ``θ1`` — legal since reconstruction is
``v_i = v_0 + i·bias + Σ stored_k``, a linear model plus a running sum).
Random access therefore requires decoding the partition *prefix* — the
O(partition) cost the paper shows is an order of magnitude slower than
LeCo/FOR.

``Delta-fix`` uses fixed-length partitions (searched); ``Delta-var`` is the
paper's improved variant driven by LeCo's variable-length Partitioner with
the exact incremental width metric from §3.2.2's Delta example.
"""
from __future__ import annotations

import numpy as np

from ..core.bitpack import bits_needed, bits_needed_vec, unpack
from ..core.format import EncodedSequence, PartitionTable
from ..core.leco import decode_table, encode_fixed, encode_var
from ..core.partitioner import var_partitions

#: a difference bias at or below this is not exact in the float θ1
_WIDE_BIAS = -(2**53)


def _delta_width(sub: np.ndarray) -> int:
    """Stored-difference width, per the paper's §3.2.2 definition
    ``Δ = ⌈log2(max dᵢ)⌉``: raw differences are stored (no trend/bias is
    subtracted — that would be LeCo's job, not Delta's); a negative bias is
    applied only when the input is locally unsorted, standing in for the
    sign handling signed diffs would otherwise need.  A bias ≤ −2^53 prices
    the width 64 that :func:`_delta_fit` stores such a partition at."""
    if len(sub) < 2:
        return 0
    d = np.diff(np.asarray(sub, dtype=np.int64))
    dbias = min(0, int(d.min()))
    return 64 if dbias <= _WIDE_BIAS else bits_needed(int(d.max()) - dbias)


def _delta_fit(rows: np.ndarray, L: int | None = None):
    """Delta's fit over equal-length partitions stacked as rows, at
    :func:`_delta_width`'s width: the first value in the exact int64 bias
    (a float θ0 would round it beyond 2^53), the per-step difference bias
    in θ1, and the first differences less that bias stored.  A row whose
    difference bias is ≤ −2^53, which θ1 cannot hold exactly, stores its
    wrapping differences at width 64 with bias 0 instead; the decoder's
    prefix sum wraps back to the exact values.  ``L`` plays no part."""
    d = np.diff(rows, axis=1)
    spread = d if d.shape[1] else np.zeros((len(rows), 1), dtype=np.int64)
    dbias = np.minimum(0, spread.min(axis=1))
    width = bits_needed_vec(spread.max(axis=1) - dbias)
    wide = dbias <= _WIDE_BIAS
    dbias[wide], width[wide] = 0, 64
    return np.zeros(len(rows)), dbias.astype(np.float64), rows[:, 0], width, d - dbias[:, None]


def _decode_partition(t: PartitionTable, k: int, upto: int | None = None) -> np.ndarray:
    """Sequentially reconstruct the first ``upto`` values of partition ``k``,
    unpacking only the ``upto − 1`` differences they need."""
    _, dbias, v0, w, off, n = t.access_rows[k]
    upto = n if upto is None else upto
    if upto <= 1:
        return np.array([v0], dtype=np.int64)[:upto]
    d = unpack(t.payload, w, upto - 1, off * 8).view(np.int64) + int(dbias)
    return np.concatenate(([v0], v0 + np.cumsum(d)))


def _decode_rows(t: PartitionTable, stored: np.ndarray) -> np.ndarray:
    """Partitions ``0 .. g−1`` from their ``(g, L − 1)`` stored differences:
    :func:`_decode_partition`'s prefix sum, row-wise."""
    g = len(stored)
    v0 = t.bias[:g, None]
    d = stored + t.theta1[:g, None].astype(np.int64)
    return np.concatenate([v0, v0 + np.cumsum(d, axis=1)], axis=1)


class _DeltaBase:
    supports_random_access = False  # access is O(partition prefix)

    def decode(self, enc: EncodedSequence) -> np.ndarray:
        return decode_table(enc, _decode_partition, _decode_rows)

    def access(self, enc: EncodedSequence, i: int) -> int:
        k, off = enc.partition_of(i)
        return int(_decode_partition(enc.partitions, k, off + 1)[off])


class DeltaFix(_DeltaBase):
    """Delta Encoding over searched fixed-length partitions."""

    name = "Delta-fix"

    def __init__(self, partition_len: int | None = None):
        self.partition_len = partition_len

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EncodedSequence:
        return encode_fixed(self.name, values, dtype_bits, self.partition_len, _delta_fit)


class DeltaVar(_DeltaBase):
    """Delta Encoding with LeCo's variable-length split/merge Partitioner."""

    name = "Delta-var"

    def __init__(self, tau: float = 0.1):
        self.tau = tau

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EncodedSequence:
        starts = var_partitions(values, tau=self.tau, exact_width=_delta_width)
        return encode_var(self.name, values, dtype_bits, starts, _delta_fit)
