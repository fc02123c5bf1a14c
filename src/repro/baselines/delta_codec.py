"""Delta Encoding baselines (§2, §3.2.2): store first differences per partition.

Per partition the header stores the first value (in the integer bias) and
the bias of the stored differences (as ``θ1`` — legal since reconstruction is
``v_i = v_0 + i·bias + Σ stored_k``, a linear model plus a running sum).
Random access therefore requires decoding the partition *prefix* — the
O(partition) cost the paper shows is an order of magnitude slower than
LeCo/FOR.

``Delta-fix`` uses fixed-length partitions (searched); ``Delta-var`` is the
paper's improved variant driven by LeCo's variable-length Partitioner with
the exact incremental width metric from §3.2.2's Delta example.  Both fit
their partitions, given as ranges, with the one :func:`_delta_fit`.
"""
from __future__ import annotations

import numpy as np

from ..core.bitpack import bits_needed, bits_needed_vec, unpack_rows
from ..core.format import EncodedSequence, PartitionTable
from ..core.leco import _window, encode_fixed, encode_var
from ..core.partitioner import var_partitions

#: a difference bias at or below this is not exact in the float θ1
_WIDE_BIAS = -(2**53)
#: a Delta ``access`` prefix of at most this many bits is summed by
#: :func:`_field_sum`, a longer one by ``unpack_rows``: the fold beat it at
#: every width up to 16 Kbit (13–33 against 37–66 µs) and lost past 24–48
#: Kbit, sooner the wider the fields
_FOLD_BITS = 2**14


def _delta_width(sub: np.ndarray) -> int:
    """Stored-difference width, per the paper's §3.2.2 definition
    ``Δ = ⌈log2(max dᵢ)⌉``: raw differences are stored (no trend/bias is
    subtracted — that would be LeCo's job, not Delta's); a negative bias is
    applied only when the input is locally unsorted, standing in for the
    sign handling signed diffs would otherwise need.  A bias ≤ −2^53 prices
    the width 64 that :func:`_delta_ranges` stores such a partition at."""
    if len(sub) < 2:
        return 0
    d = np.diff(np.asarray(sub, dtype=np.int64))
    dbias = min(0, int(d.min()))
    return 64 if dbias <= _WIDE_BIAS else bits_needed(int(d.max()) - dbias)


def _delta_ranges(v: np.ndarray, starts, stops) -> tuple[np.ndarray, np.ndarray]:
    """Difference bias and width of each range ``v[a:b]`` at
    :func:`_delta_width`'s rule, the differences' min and max of every range
    from one ``reduceat`` over ``np.diff(v)``.  Delta's fit keeps the first
    value in the exact int64 bias (a float θ0 would round it beyond 2^53),
    the difference bias in θ1, and stores the differences less it.  A range
    whose difference bias is ≤ −2^53, which θ1 cannot hold exactly, stores
    its wrapping differences at width 64 with bias 0 instead; the decoder's
    prefix sum wraps back to the exact values."""
    a, b = np.asarray(starts, dtype=np.int64), np.asarray(stops, dtype=np.int64)
    d = np.append(np.diff(v), 0)  # a last index b − 1 stays in range
    at = np.stack([a, b - 1], axis=1).ravel()  # even slots reduce v[a:b]'s differences
    short = b - a < 2
    dmin, dmax = (np.where(short, 0, f.reduceat(d, at)[::2]) for f in (np.minimum, np.maximum))
    dbias = np.minimum(0, dmin)
    width = bits_needed_vec(dmax - dbias)
    wide = dbias <= _WIDE_BIAS
    dbias[wide], width[wide] = 0, 64
    return dbias, width


def _delta_widths(v: np.ndarray, starts, stops):
    """The Partitioner's batched width callback; one range takes :func:`_delta_width`."""
    return [_delta_width(v[starts[0] : stops[0]])] if len(starts) == 1 else _delta_ranges(v, starts, stops)[1]


def _delta_fit(v: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """Delta's fit of the partitions ``v[a:b]`` that tile ``v``: their
    ``b − a − 1`` stored differences back to back."""
    dbias, width = _delta_ranges(v, starts, stops)
    stored = np.delete(np.diff(v), starts[1:] - 1) - np.repeat(dbias, stops - starts - 1)
    return np.zeros(len(starts)), dbias.astype(np.float64), v[starts], width, stored


def _decode_prefixes(t: PartitionTable, ks, counts) -> np.ndarray:
    """The first ``counts[r]`` (≥ 1) values of partitions ``ks[r]``, back to
    back: ``counts − 1`` differences from one ``unpack_rows`` call, summed by
    one segmented ``cumsum`` (a zero opens each partition, whose first value
    is added less the sum before it) that wraps in int64 as a row-wise one does."""
    ks, n = np.asarray(ks, dtype=np.int64), np.asarray(counts, dtype=np.int64)
    m = n - 1
    d = unpack_rows(t.payload, t.payload_off[ks], m, t.width[ks]).view(np.int64)
    c = np.cumsum(np.insert(d + np.repeat(t.theta1[ks].astype(np.int64), m), np.cumsum(m) - m, 0))
    c += np.repeat(t.bias[ks] - c[np.cumsum(n) - n], n)
    return c


def _field_sum(x: int, width: int, n: int) -> int:
    """Sum of the ``n`` ``width``-bit fields of ``x`` in O(log) big-int
    operations.  Each fold adds every odd field to the even one below it
    into fields twice as wide (a sum of two ``f``-bit fields fits in ``2f``
    bits, so no field carries into the next); once the fields are ``f ≥
    width + n.bit_length()`` bits wide, their total, at most
    ``(2^n.bit_length() − 1)·(2^width − 1)``, is below ``2^f − 1``, and
    ``x mod (2^f − 1)``, which sums ``x``'s ``f``-bit fields modulo it, is
    that total."""
    if not x:
        return 0
    f = width
    while f < width + n.bit_length():
        b = -(-n * width // (2 * f)) * 2 * f  # whole 2f-bit fields over x
        m = ((1 << b) - 1) // ((1 << 2 * f) - 1) * ((1 << f) - 1)  # the low f bits of each
        x = (x & m) + (x >> f & m)
        f *= 2
    return x % ((1 << f) - 1)


class _DeltaBase:
    supports_random_access = False  # access is O(partition prefix)

    def decode(self, enc: EncodedSequence) -> np.ndarray:
        t = enc.partitions
        return _decode_prefixes(t, np.arange(len(t)), t.n)

    def access(self, enc: EncodedSequence, i: int) -> int:
        """Value ``i``: its partition's first value plus the ``off`` stored
        differences before it and ``off`` difference biases; wrapped to
        int64 as the prefix sum of ``decode`` wraps.  A prefix of at most
        ``_FOLD_BITS`` is read as one int of its bytes (``leco._window``) and
        summed by :func:`_field_sum`, a longer one by one ``unpack_rows`` call."""
        k, off = enc.partition_of(i)
        t = enc.partitions
        _, theta1, bias, width, start, _ = t.access_rows[k]
        if off * width > _FOLD_BITS:
            total = int(unpack_rows(t.payload, [start], [off], [width]).sum())
        else:
            total = _field_sum(_window(t.payload, start, width, 0, off), width, off)
        v = bias + off * int(theta1) + total
        return v if -(2**63) <= v < 2**63 else (v + 2**63) % 2**64 - 2**63


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
        starts = var_partitions(values, tau=self.tau, exact_widths=_delta_widths)
        return encode_var(self.name, values, dtype_bits, starts, _delta_fit)
