"""LeCo codecs (the paper's contribution): linear Model + fixed-width Delta.

``LeCoFix`` uses fixed-length partitions with the sampling-based size search;
``LeCoVar`` uses the greedy split/merge variable-length Partitioner.  Both
store, per partition, a bias-folded linear model (see ``core/format.py``) and
a bit-packed unsigned delta array, giving O(1) random access:

    partition = i // L   (fix)  |  searchsorted(starts, i)   (var)
    v = floor(θ0 + θ1·i') + bias + delta[i']

FOR is the θ0 = θ1 = 0 case of the same layout, so FOR shares this module's
decode and access kernels.  FOR, LeCo and Delta differ only in their
per-partition fit and their layout: every one of them encodes through
:func:`encode_fixed` or :func:`encode_var` and decodes through
:func:`decode_table`.
"""
from __future__ import annotations

import bisect
import math

import numpy as np

from .bitpack import bits_needed_vec, extract, pack_rows, packed_size, unpack, unpack_rows
from .format import EncodedSequence, PartitionTable, fixed_size, payload_counts
from .partitioner import fixed_partitions, fixed_rows, search_fixed_length, var_partitions, var_rows
from .regressor import LinearRegressor, positions

__all__ = ["LeCoFix", "LeCoVar", "access_many", "positions_in"]

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
    over the whole int64 range.  Returns ``(θ0, θ1, bias, width, stored)``
    (the fit contract of :func:`build_table`) with
    ``stored = v − floor(θ0 + θ1·i) − bias`` (int64, wrapping).
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
    bias = np.where(use_const, rmin - c0_int, dmin)
    return (
        np.where(use_const, c0, theta0),
        np.where(use_const, 0.0, theta1),
        bias,
        np.where(use_const, w_const, w_lin),
        deltas - bias[:, None],
    )


def _fit_one(values: np.ndarray) -> tuple[float, float, int, int, np.ndarray]:
    """One partition through the Regressor (least squares + θ0-tweak), with
    :func:`_fit_rows`'s choice of line in scalar arithmetic (the
    variable-length Partitioner calls this thousands of times on short
    slices, for the width only).  Returns ``(θ0, θ1, bias, width, deltas)``
    with ``deltas = v − floor(θ0 + θ1·i)``; the stored values are
    ``deltas − bias``."""
    v = np.asarray(values, dtype=np.int64)
    lo, hi = int(v.min()), int(v.max())
    w_const = (hi - lo).bit_length()
    if max(-lo, hi) < _SAFE:
        model = _REGRESSOR.fit(v)
        t0, t1 = model.theta0, model.theta1
        if max(abs(math.floor(t0)), abs(math.floor(t0 + t1 * (len(v) - 1)))) < _SAFE:
            deltas = v - model.predict(positions(len(v)))
            dlo = int(deltas.min())
            w_lin = (int(deltas.max()) - dlo).bit_length()
            if w_lin <= w_const:
                return t0, t1, dlo, w_lin, deltas
    c0 = float(lo) if float(lo) < 2.0**63 else 0.0
    return c0, 0.0, lo - int(c0), w_const, v - int(c0)


def _linear_width(values: np.ndarray) -> int:
    """Exact delta bit-width the encoder yields for one partition."""
    return _fit_one(values)[3]


def _fit_linear(rows: np.ndarray, L: int | None = None):
    """LeCo's fit: full length-``L`` rows take the vectorized
    :func:`_fit_rows`; a single partition (the short tail of a fixed-length
    layout, or a variable-length partition with ``L=None``) takes the
    Regressor of :func:`_fit_one`, whose θ0-tweak the stored model keeps."""
    if rows.shape[1] == L:
        return _fit_rows(rows)
    theta0, theta1, bias, width, deltas = _fit_one(rows[0])
    return [theta0], [theta1], [bias], [width], (deltas - bias)[None]


def fixed_widths(values: np.ndarray, L: int, fit) -> np.ndarray:
    """Per-partition widths ``fit`` gives fixed-length-``L`` partitions of ``values``."""
    return np.concatenate([fit(rows, L)[3] for rows in fixed_rows(np.asarray(values, dtype=np.int64), L)])


def fixed_widths_linear(values: np.ndarray, L: int) -> np.ndarray:
    """Per-partition delta widths for fixed-length-L LeCo over ``values``."""
    return fixed_widths(values, L, _fit_linear)


def build_table(blocks: list[np.ndarray], fit, L: int | None = None) -> PartitionTable:
    """The one Model+Delta table builder.  ``blocks`` stack equal-length
    partitions as rows (``partitioner.fixed_rows`` or ``var_rows``), and
    ``fit(rows, L)`` gives each row's ``(θ0, θ1, bias, width, stored)``,
    where ``stored`` is what gets packed unsigned at ``width`` bits: ``n``
    deltas, or Delta's ``n − 1`` differences.  ``L`` is the fixed partition
    length, None for a variable-length layout.  Every partition is packed
    by one ragged ``pack_rows`` call."""
    fits = [fit(rows, L) for rows in blocks]
    theta0, theta1, bias, width = (
        np.concatenate([f[j] for f in fits]) if fits else np.empty(0, dtype=np.int64) for j in range(4)
    )
    m = [len(rows) for rows in blocks]
    n = np.repeat([rows.shape[1] for rows in blocks], m)
    n_stored = np.repeat([f[4].shape[1] for f in fits], m)
    stored = np.concatenate([f[4].reshape(-1) for f in fits]) if fits else np.empty(0, dtype=np.int64)
    payload = pack_rows(stored, n_stored, width)
    return PartitionTable.build(theta0, theta1, bias, width, n, packed_size(n_stored, width), payload)


def encode_fixed(scheme: str, values, dtype_bits: int, L: int | None, fit, widths=None) -> EncodedSequence:
    """``values`` as ``scheme`` in fixed-length-``L`` partitions fitted by
    ``fit``.  When ``L`` is None it is searched (§3.2.1): each candidate is
    priced by the size model ``format.fixed_size`` at the widths
    ``widths(sample, L)``, by default the ones ``fit`` gives."""
    v = np.asarray(values, dtype=np.int64)
    if L is None:
        widths = widths or (lambda s, L: fixed_widths(s, L, fit))
        L = search_fixed_length(v, lambda s, L: fixed_size(scheme, len(s), L, widths(s, L)))
    starts = fixed_partitions(len(v), L)
    return EncodedSequence(scheme, len(v), dtype_bits, L, starts, build_table(fixed_rows(v, L), fit, L))


def encode_var(scheme: str, values, dtype_bits: int, starts: np.ndarray, fit) -> EncodedSequence:
    """``values`` as ``scheme`` in the variable-length partitions beginning at
    ``starts``, each fitted by ``fit``."""
    v = np.asarray(values, dtype=np.int64)
    return EncodedSequence(scheme, len(v), dtype_bits, None, starts, build_table(var_rows(v, starts), fit))


def _decode_partition(t: PartitionTable, k: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Values ``[start, stop)`` of partition ``k`` (LeCo or FOR layout),
    unpacking only those values' deltas."""
    theta0, theta1, bias, w, off, n = t.access_rows[k]
    stop = n if stop is None else stop
    deltas = unpack(t.payload, w, stop - start, off * 8 + start * w).view(np.int64)
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
        theta0, theta1, bias, width, _, n = t.access_rows[k]
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
    theta0, theta1, bias, width, off, _ = t.access_rows[k]
    return math.floor(theta0 + theta1 * i) + bias + extract(t.payload, width, i, off)


#: byte offsets of the 9-byte window that holds any value of width <= 64
_WINDOW = np.arange(9)


def access_many(enc: EncodedSequence, positions) -> np.ndarray:
    """Values at global ``positions`` (any order, repeats allowed) of a LeCo
    or FOR sequence, in one vectorized pass of §3.3's Decoder: each value
    is one model inference plus one delta read from the 9-byte big-endian
    window at bit ``payload_off·8 + i·width``, with the prediction computed
    exactly as :func:`_decode_partition` computes it."""
    t = enc.partitions
    p = np.asarray(positions, dtype=np.int64)
    k = np.searchsorted(enc.starts, p, side="right") - 1
    i = p - enc.starts[k]
    w = t.width[k].astype(np.int64)
    bit = t.payload_off[k] * 8 + i * w
    buf = np.frombuffer(t.payload, dtype=np.uint8)
    # every value ends inside the buffer, and window bytes past its end only
    # feed bits below the value: clip them to the last byte (a zero byte
    # when nothing is packed)
    buf = buf if len(buf) else np.zeros(1, dtype=np.uint8)
    win = buf[np.minimum((bit // 8)[:, None] + _WINDOW, len(buf) - 1)]
    skip = (bit % 8).astype(np.uint64)
    # the 64 bits from ``bit`` on; a value is their top ``width`` bits
    top = (win[:, :8].copy().view(">u8")[:, 0].astype(np.uint64) << skip) | (
        win[:, 8].astype(np.uint64) >> (np.uint64(8) - skip)
    )
    deltas = np.where(w > 0, top >> (64 - w).astype(np.uint64), np.uint64(0)).view(np.int64)
    return np.floor(t.theta0[k] + t.theta1[k] * i).astype(np.int64) + t.bias[k] + deltas


def _decode_rows(t: PartitionTable, stored: np.ndarray) -> np.ndarray:
    """Partitions ``0 .. g−1`` of a LeCo or FOR table from their ``(g, L)``
    stored deltas (int64): the block form of :func:`_decode_partition`, with
    the same inference ``floor(θ0 + θ1·i) + bias``, so the values are
    bit-identical.  When every row is flat (θ1 = 0, as in FOR) a row adds
    only ``floor(θ0) + bias``."""
    g, L = stored.shape
    theta0, theta1 = t.theta0[:g, None], t.theta1[:g, None]
    pred = theta0
    if theta1.any():
        pred = theta1 * np.arange(L)
        pred += theta0
    return stored + (np.floor(pred).astype(np.int64) + t.bias[:g, None])


def decode_table(enc: EncodedSequence, part=None, rows=None) -> np.ndarray:
    """Full decode of a Model+Delta sequence over the blocks :func:`build_table`
    packed: the full partitions of a fixed-length layout as one block, read
    by one ``unpack_rows`` and finished by ``rows(t, stored)``; every other
    partition (a short tail, each variable-length one) as a single row,
    ``part(t, k)``.  LeCo's and FOR's :func:`_decode_rows` and
    :func:`_decode_partition` when None; Delta passes its prefix sums."""
    t, part, rows = enc.partitions, part or _decode_partition, rows or _decode_rows
    m = enc.n // enc.fixed_len if enc.fixed_len else 0
    out = []
    if m:
        count = payload_counts(enc.scheme, enc.fixed_len)
        stored = unpack_rows(t.payload, t.payload_off[:m], count, t.width[:m]).view(np.int64)
        out.append(rows(t, stored).reshape(-1))
    out += [part(t, k) for k in range(m, len(t))]
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


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
            out.append(_decode_partition(t, k, a, offe + 1 if k == ke else None))
        return np.concatenate(out)


class LeCoFix(_LeCoBase):
    """LeCo with fixed-length partitions (§3.2.1)."""

    name = "LeCo-fix"

    def __init__(self, partition_len: int | None = None):
        self.partition_len = partition_len

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EncodedSequence:
        L = self.partition_len
        return encode_fixed(self.name, values, dtype_bits, L, _fit_linear, fixed_widths_linear)


class LeCoVar(_LeCoBase):
    """LeCo with greedy split/merge variable-length partitions (§3.2.2)."""

    name = "LeCo-var"

    def __init__(self, tau: float = 0.1):
        self.tau = tau

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EncodedSequence:
        starts = var_partitions(values, tau=self.tau, exact_width=_linear_width)
        return encode_var(self.name, values, dtype_bits, starts, _fit_linear)
