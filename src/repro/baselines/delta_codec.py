"""Delta Encoding baselines (§2, §3.2.2): store first differences per partition.

Per partition the header stores the first value (as ``θ0``) and the bias of
the stored differences (as ``θ1`` — legal since reconstruction is
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

from ..core.bitpack import bits_needed, bits_needed_vec, pack, unpack
from ..core.format import EncodedSequence, PartitionTable
from ..core.partitioner import fixed_partitions, search_fixed_length, var_partitions

#: model cost in bits for a Delta partition: first value (64) + bias (64).
DELTA_MODEL_BITS = 128


def _delta_width(sub: np.ndarray) -> int:
    """Stored-difference width, per the paper's §3.2.2 definition
    ``Δ = ⌈log2(max dᵢ)⌉``: raw differences are stored (no trend/bias is
    subtracted — that would be LeCo's job, not Delta's); a negative bias is
    applied only when the input is locally unsorted, standing in for the
    sign handling signed diffs would otherwise need."""
    if len(sub) < 2:
        return 0
    d = np.diff(np.asarray(sub, dtype=np.int64))
    return bits_needed(int(d.max()) - min(0, int(d.min())))


def _delta_table(v: np.ndarray, starts: np.ndarray) -> PartitionTable:
    """Encode each partition as its first value (in the exact int64 bias —
    a float θ0 would round it beyond 2^53), the per-step difference bias
    (in θ1) and the packed differences."""
    bounds = np.append(starts, len(v)).astype(np.int64).tolist()
    theta1, bias, width, payloads = [], [], [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        d = np.diff(v[a:b])
        dbias = min(0, int(d.min())) if len(d) else 0
        if abs(dbias) >= 2**53:
            raise OverflowError("difference bias exceeds float64 precision")
        w = bits_needed(int(d.max()) - dbias) if len(d) else 0
        theta1.append(float(dbias))
        bias.append(int(v[a]))
        width.append(w)
        payloads.append(pack(d - dbias, w))
    zeros = np.zeros(len(bias))
    return PartitionTable.build(
        zeros, theta1, bias, width, np.diff(bounds), [len(p) for p in payloads], b"".join(payloads)
    )


def _decode_partition(t: PartitionTable, k: int, upto: int | None = None) -> np.ndarray:
    """Sequentially reconstruct the first ``upto`` values of partition ``k``,
    unpacking only the ``upto − 1`` differences they need."""
    _, dbias, v0, w, off, n = t.access_rows[k]
    upto = n if upto is None else upto
    if upto <= 1:
        return np.array([v0], dtype=np.int64)[:upto]
    d = unpack(t.payload, w, upto - 1, off * 8).view(np.int64) + int(dbias)
    return np.concatenate(([v0], v0 + np.cumsum(d)))


class _DeltaBase:
    supports_random_access = False  # access is O(partition prefix)

    def decode(self, enc: EncodedSequence) -> np.ndarray:
        t = enc.partitions
        if not len(t):
            return np.empty(0, dtype=np.int64)
        return np.concatenate([_decode_partition(t, k) for k in range(len(t))])

    def access(self, enc: EncodedSequence, i: int) -> int:
        k, off = enc.partition_of(i)
        return int(_decode_partition(enc.partitions, k, off + 1)[off])


class DeltaFix(_DeltaBase):
    """Delta Encoding over searched fixed-length partitions."""

    name = "Delta-fix"

    def __init__(self, partition_len: int | None = None):
        self.partition_len = partition_len

    @staticmethod
    def _cost(sample: np.ndarray, L: int) -> int:
        v = np.asarray(sample, dtype=np.int64)
        m = len(v) // L
        size = 0
        if m:
            d = np.diff(v[: m * L].reshape(m, L), axis=1)
            ws = bits_needed_vec(d.max(axis=1) - np.minimum(0, d.min(axis=1)))
            size += int(25 * m + (((L - 1) * ws + 7) // 8).sum())
        if len(v) % L:
            tail = v[m * L :]
            size += 25 + ((len(tail) - 1) * _delta_width(tail) + 7) // 8
        return size

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EncodedSequence:
        v = np.asarray(values, dtype=np.int64)
        L = self.partition_len or search_fixed_length(v, self._cost)
        starts = fixed_partitions(len(v), L)
        return EncodedSequence(self.name, len(v), dtype_bits, L, starts, _delta_table(v, starts))


class DeltaVar(_DeltaBase):
    """Delta Encoding with LeCo's variable-length split/merge Partitioner."""

    name = "Delta-var"

    def __init__(self, tau: float = 0.1):
        self.tau = tau

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EncodedSequence:
        v = np.asarray(values, dtype=np.int64)
        starts = var_partitions(
            v, tau=self.tau, model_bits=DELTA_MODEL_BITS, exact_width=_delta_width
        )
        return EncodedSequence(self.name, len(v), dtype_bits, None, starts, _delta_table(v, starts))
