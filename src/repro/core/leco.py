"""LeCo codecs (the paper's contribution): linear Model + fixed-width Delta.

``LeCoFix`` uses fixed-length partitions with the sampling-based size search;
``LeCoVar`` uses the greedy split/merge variable-length Partitioner.  Both
store, per partition, a bias-folded linear model (see ``core/format.py``) and
a bit-packed unsigned delta array, giving O(1) random access:

    partition = i // L   (fix)  |  searchsorted(starts, i)   (var)
    v = floor(θ0 + θ1·i') + bias + delta[i']

FOR is the θ0 = θ1 = 0 case of the same layout, so FOR shares this module's
decode and access kernels.
"""
from __future__ import annotations

import bisect
import math

import numpy as np

from .bitpack import bits_needed_vec, extract, pack, pack_rows, packed_size, unpack
from .format import EncodedSequence, PartitionTable
from .partitioner import fixed_partitions, fixed_rows, search_fixed_length, var_partitions
from .regressor import LinearRegressor

__all__ = ["LeCoFix", "LeCoVar", "positions_in"]

_REGRESSOR = LinearRegressor()

#: a fitted line is used only while values and predictions stay inside
#: ±2^62, so ``value − prediction`` cannot overflow int64.
_SAFE = 2.0**62


def _fit_rows(rows: np.ndarray):
    """Vectorized least-squares line + best-of(line, FOR) over equal-length
    partitions stacked as rows.

    Each row keeps the better of its fitted line and FOR's horizontal line
    through the row minimum (a special case of the framework — §2), so LeCo
    is never worse than FOR on the same partition.  A row whose values or
    line ends leave ±2^62 always takes the horizontal line, which is exact
    over the whole int64 range.  Returns ``(θ0, θ1, bias, width, deltas)``
    with ``deltas = v − floor(θ0 + θ1·i)`` (int64, wrapping); the stored
    values are ``deltas − bias``.
    """
    m, L = rows.shape
    i = np.arange(L, dtype=np.float64)
    ibar = (L - 1) / 2.0
    denom = float(((i - ibar) ** 2).sum()) or 1.0
    mean = rows.mean(axis=1)
    theta1 = ((rows - mean[:, None]) @ (i - ibar)) / denom
    theta0 = mean - theta1 * ibar
    rmin, rmax = rows.min(axis=1), rows.max(axis=1)
    pred = np.floor(theta0[:, None] + theta1[:, None] * i)
    ends = np.maximum(np.abs(pred[:, 0]), np.abs(pred[:, -1]))
    vals = np.maximum(np.abs(rmin.astype(np.float64)), np.abs(rmax.astype(np.float64)))
    safe = (ends < _SAFE) & (vals < _SAFE)
    with np.errstate(invalid="ignore"):  # unsafe rows are replaced below
        deltas = rows - pred.astype(np.int64)
    dmin, dmax = deltas.min(axis=1), deltas.max(axis=1)
    w_lin = bits_needed_vec(dmax - dmin)
    w_const = bits_needed_vec(rmax - rmin)
    use_const = ~safe | (w_const < w_lin)
    # the horizontal line floor(float(rmin)); its integer error goes in bias
    c0 = rmin.astype(np.float64)
    c0[c0 >= 2.0**63] = 0.0  # float(rmin) rounded out of int64
    c0_int = c0.astype(np.int64)
    deltas[use_const] = rows[use_const] - c0_int[use_const, None]
    return (
        np.where(use_const, c0, theta0),
        np.where(use_const, 0.0, theta1),
        np.where(use_const, rmin - c0_int, dmin),
        np.where(use_const, w_const, w_lin),
        deltas,
    )


def _fit_one(values: np.ndarray) -> tuple[float, float, int, int, np.ndarray]:
    """One partition through the Regressor (least squares + θ0-tweak), with
    :func:`_fit_rows`'s choice of line and return values in scalar
    arithmetic (the variable-length Partitioner calls this thousands of
    times on short slices)."""
    v = np.asarray(values, dtype=np.int64)
    lo, hi = int(v.min()), int(v.max())
    w_const = (hi - lo).bit_length()
    if max(-lo, hi) < _SAFE:
        model = _REGRESSOR.fit(v)
        t0, t1 = model.theta0, model.theta1
        if max(abs(math.floor(t0)), abs(math.floor(t0 + t1 * (len(v) - 1)))) < _SAFE:
            deltas = v - model.predict(np.arange(len(v)))
            dlo = int(deltas.min())
            w_lin = (int(deltas.max()) - dlo).bit_length()
            if w_lin <= w_const:
                return t0, t1, dlo, w_lin, deltas
    c0 = float(lo) if float(lo) < 2.0**63 else 0.0
    return c0, 0.0, lo - int(c0), w_const, v - int(c0)


def _linear_width(values: np.ndarray) -> int:
    """Exact delta bit-width the encoder yields for one partition."""
    return _fit_one(values)[3]


def _linear_table(v: np.ndarray, starts: np.ndarray) -> PartitionTable:
    """Encode variable-length partitions one by one into a table."""
    bounds = np.append(starts, len(v)).astype(np.int64).tolist()
    fits = [_fit_one(v[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    payloads = [pack(deltas - bias, w) for _, _, bias, w, deltas in fits]
    theta0, theta1, bias, width = ([f[j] for f in fits] for j in range(4))
    return PartitionTable.build(
        theta0, theta1, bias, width, np.diff(bounds), [len(p) for p in payloads], b"".join(payloads)
    )


def _decode_partition(t: PartitionTable, k: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Values ``[start, stop)`` of partition ``k`` (LeCo or FOR layout)."""
    n, w = t.n.item(k), t.width.item(k)
    stop = n if stop is None else stop
    deltas = (
        unpack(t.payload_of(k), w, n)[start:stop].astype(np.int64)
        if w
        else np.zeros(stop - start, dtype=np.int64)
    )
    theta0, theta1, bias = t.theta0.item(k), t.theta1.item(k), t.bias.item(k)
    if theta1 == 0.0:  # horizontal line: one prediction for every position
        return deltas + (math.floor(theta0) + bias)
    return np.floor(theta0 + theta1 * np.arange(start, stop)).astype(np.int64) + bias + deltas


def positions_in(enc: EncodedSequence, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Positions and values of ``enc``'s values inside the union of the
    inclusive intervals ``[lo[j], hi[j]]`` (sorted, disjoint), for a LeCo or
    FOR sequence.

    A partition none of whose intervals meets its header bounds is skipped.
    Otherwise a rising line (θ1 > 0) is inverted (§5.1.1's computation
    pruning): value ``i`` lies in ``floor(θ0 + θ1·i) + bias + [0, 2^w)``, so
    each interval maps to the candidate positions ``[a, b)`` found by
    bisecting the decoder's own prediction, which never decreases in ``i``.
    Overlapping candidate ranges are merged and each is decoded once; a
    flat or falling line (FOR included) decodes the whole partition.
    """
    lo, hi = [int(x) for x in lo], [int(x) for x in hi]
    lo_a, hi_a = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
    t = enc.partitions
    starts = np.append(enc.starts, enc.n).astype(np.int64).tolist()
    pos, vals = [], []
    for k, (plo, phi) in enumerate(zip(*enc.value_bounds())):
        j0, j1 = bisect.bisect_left(hi, plo), bisect.bisect_right(lo, phi)
        if j0 >= j1:
            continue  # partition skipped from the header alone
        theta0, theta1, bias, width, _ = t.access_rows[k]
        n = t.n.item(k)
        if theta1 <= 0:
            ranges = [[0, n, j0, j1]]
        else:
            ranges, top = [], bias + (1 << width) - 1
            idx = range(n)

            def pred(i):
                return math.floor(theta0 + theta1 * i)

            for j in range(j0, j1):
                a = bisect.bisect_left(idx, lo[j] - top, key=pred)
                b = bisect.bisect_right(idx, hi[j] - bias, key=pred)
                if a >= b:
                    continue
                if ranges and a <= ranges[-1][1]:  # a and b never decrease in j
                    ranges[-1][1], ranges[-1][3] = b, j + 1
                else:
                    ranges.append([a, b, j, j + 1])
        for a, b, ja, jb in ranges:
            v = _decode_partition(t, k, a, b)
            j = np.searchsorted(lo_a[ja:jb], v, side="right") - 1
            keep = np.flatnonzero((j >= 0) & (v <= hi_a[ja:jb][j]))
            pos.append(starts[k] + a + keep)
            vals.append(v[keep])
    if not pos:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(pos), np.concatenate(vals)


def _value_at(t: PartitionTable, k: int, i: int) -> int:
    """Value ``i`` of partition ``k``: one model inference, one bit probe."""
    theta0, theta1, bias, width, off = t.access_rows[k]
    return math.floor(theta0 + theta1 * i) + bias + extract(t.payload, width, i, off)


def decode_table(enc: EncodedSequence) -> np.ndarray:
    """Full decode of a LeCo or FOR sequence, partition by partition."""
    t = enc.partitions
    if not len(t):
        return np.empty(0, dtype=np.int64)
    return np.concatenate([_decode_partition(t, k) for k in range(len(t))])


class _LeCoBase:
    supports_random_access = True

    def decode(self, enc: EncodedSequence) -> np.ndarray:
        return decode_table(enc)

    def access(self, enc: EncodedSequence, i: int) -> int:
        k, off = enc.partition_of(i)
        return _value_at(enc.partitions, k, off)

    def decode_range(self, enc: EncodedSequence, start: int, stop: int) -> np.ndarray:
        """Decode global positions ``[start, stop)`` touching only the needed partitions."""
        t = enc.partitions
        ks, offs = enc.partition_of(start)
        ke, offe = enc.partition_of(stop - 1)
        out = []
        for k in range(ks, ke + 1):
            a = offs if k == ks else 0
            b = offe + 1 if k == ke else t.n.item(k)
            out.append(_decode_partition(t, k, a, b))
        return np.concatenate(out)


def _fit_fixed(rows: np.ndarray, L: int):
    """Full length-``L`` rows take the vectorized fit, the short tail the
    Regressor (whose θ0-tweak the stored tail model keeps)."""
    if rows.shape[1] == L:
        return _fit_rows(rows)
    theta0, theta1, bias, width, deltas = _fit_one(rows[0])
    return np.array([theta0]), np.array([theta1]), np.array([bias]), np.array([width]), deltas[None]


def _fixed_table(v: np.ndarray, L: int, fit) -> PartitionTable:
    """Encode fixed-length-``L`` partitions block by block (see
    ``partitioner.fixed_rows``): ``fit(rows)`` gives each row's
    ``(θ0, θ1, bias, width, deltas)`` as :func:`_fit_rows` does, and
    ``pack_rows`` packs a block's ``deltas − bias`` with a few calls per
    distinct width."""
    blocks = fixed_rows(v, L)
    fits = [fit(rows) for rows in blocks]
    cols = [[f[j] for f in fits] for j in range(4)] + [[np.full(*rows.shape) for rows in blocks]]
    theta0, theta1, bias, width, n = (np.concatenate(c) if c else np.empty(0) for c in cols)
    payload = b"".join(pack_rows(deltas - bias[:, None], w) for _, _, bias, w, deltas in fits)
    return PartitionTable.build(theta0, theta1, bias, width, n, packed_size(n, width), payload)


def fixed_widths_linear(values: np.ndarray, L: int) -> np.ndarray:
    """Per-partition delta widths for fixed-length-L LeCo over ``values``."""
    v = np.asarray(values, dtype=np.int64)
    return np.concatenate([_fit_fixed(rows, L)[3] for rows in fixed_rows(v, L)])


class LeCoFix(_LeCoBase):
    """LeCo with fixed-length partitions (§3.2.1)."""

    name = "LeCo-fix"

    def __init__(self, partition_len: int | None = None):
        self.partition_len = partition_len

    @staticmethod
    def _cost(sample: np.ndarray, L: int) -> int:
        ws = fixed_widths_linear(sample, L)
        lens = np.full(len(ws), L)
        if len(sample) % L:
            lens[-1] = len(sample) % L
        return int((25 * len(ws)) + packed_size(lens, ws).sum())

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EncodedSequence:
        v = np.asarray(values, dtype=np.int64)
        L = self.partition_len or search_fixed_length(v, self._cost)
        table = _fixed_table(v, L, lambda rows: _fit_fixed(rows, L))
        return EncodedSequence(self.name, len(v), dtype_bits, L, fixed_partitions(len(v), L), table)


class LeCoVar(_LeCoBase):
    """LeCo with greedy split/merge variable-length partitions (§3.2.2)."""

    name = "LeCo-var"

    def __init__(self, tau: float = 0.1):
        self.tau = tau

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EncodedSequence:
        v = np.asarray(values, dtype=np.int64)
        starts = var_partitions(
            v, tau=self.tau, model_bits=LinearRegressor.MODEL_BITS, exact_width=_linear_width
        )
        return EncodedSequence(self.name, len(v), dtype_bits, None, starts, _linear_table(v, starts))
