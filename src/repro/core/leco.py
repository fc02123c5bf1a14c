"""LeCo codecs (the paper's contribution): linear Model + fixed-width Delta.

``LeCoFix`` uses fixed-length partitions with the sampling-based size search;
``LeCoVar`` uses the greedy split/merge variable-length Partitioner.  Both
store, per partition, a bias-folded linear model (see ``core/format.py``) and
a bit-packed unsigned delta array, giving O(1) random access:

    partition = i // L   (fix)  |  bisect(starts, i)   (var)
    v = floor(θ0 + θ1·i') + bias + delta[i']

FOR is the θ0 = θ1 = 0 case of the same layout, so FOR shares this module's
decode and access kernels.  FOR, LeCo and Delta differ only in their fit
and where their partitions start: every one of them builds its table in
:func:`encode_var` from one ``fit(v, starts, stops)`` call, a fixed-length
layout being the ranges 0, L, 2L, … that :func:`encode_fixed` hands it
after searching ``L``.  FOR and LeCo read blocks through :func:`_read` here
whatever the layout (a short read value by value in Python, a longer one
with one ragged ``unpack_rows`` call).
"""
from __future__ import annotations

import bisect
import math
from bisect import bisect_right

import numpy as np

from .bitpack import _bits_at, bits_needed_vec, pack_rows, packed_size, unpack_rows
from .format import _SAFE, EncodedSequence, PartitionTable, fixed_size, payload_counts
from .partitioner import fixed_partitions, search_fixed_length, var_partitions
from .regressor import LinearRegressor, positions

__all__ = ["LeCoFix", "LeCoVar", "access_many", "fit_ranges", "positions_in"]

_REGRESSOR = LinearRegressor()


def _best_of(x, lo, hi, theta0, theta1, deltas, safe):
    """Each row of ``x`` (min ``lo``, max ``hi``) keeps the better of its line,
    whose ``deltas`` are ``x − floor(θ0 + θ1·i)``, and FOR's horizontal line
    through the row minimum (§2), so LeCo is never worse than FOR.  A row
    not ``safe`` (values or line ends beyond ±2^62) takes the horizontal
    line, exact over all of int64.  Returns ``(θ0, θ1, bias, width, stored)``."""
    dlo, dhi = deltas.min(axis=1), deltas.max(axis=1)
    w_lin, w_const = bits_needed_vec(dhi - dlo), bits_needed_vec(hi - lo)
    lin = safe & (w_lin <= w_const)
    # the horizontal line floor(float(lo)); its integer error goes in bias
    c0 = lo.astype(np.float64)
    c0[c0 >= 2.0**63] = 0.0  # float(lo) rounded out of int64
    c0_int = c0.astype(np.int64)
    deltas[~lin] = x[~lin] - c0_int[~lin, None]
    bias = np.where(lin, dlo, lo - c0_int)
    theta = np.where(lin, theta0, c0), np.where(lin, theta1, 0.0)
    return *theta, bias, np.where(lin, w_lin, w_const), deltas - bias[:, None]


def _fit_rows(rows: np.ndarray):
    """Vectorized least-squares line + :func:`_best_of` over equal-length
    partitions stacked as rows: LeCo-fix's full partitions."""
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
    with np.errstate(invalid="ignore"):  # unsafe rows are replaced
        deltas = rows - pred.astype(np.int64)
    return _best_of(rows, rmin, rmax, theta0, theta1, deltas, (ends < _SAFE) & (vals < _SAFE))


def _fit_one(values: np.ndarray) -> tuple[float, float, int, int, np.ndarray]:
    """One partition through the Regressor (least squares + θ0-tweak), with
    :func:`_best_of`'s choice of line in scalar arithmetic (the merge phase
    of the variable-length Partitioner calls this thousands of times on
    single ranges, for the width only).  Returns ``(θ0, θ1, bias, width, deltas)``
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


#: numpy's pairwise block size: it sums at most this many float64 values in
#: eight lanes and splits a longer sum in two
_PAIRWISE_BLOCK = 128
#: short ranges per padded block: temporaries stay near 256 KB; blocks of
#: thousands of rows (MBs each) measured slower, and slowed later encodes
_BLOCK_ROWS = 256


def _row_sums(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``np.sum(x[r, :n[r]])`` of each row of the float64 block ``x`` (width a
    multiple of 8, ``n ≤ 128``), bit for bit: eight lanes over the first
    ``n − n % 8`` values, ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, the rest
    in order, the total added to 0.0.  Padding is −0.0, the IEEE identity."""
    m, P = x.shape
    body = n - n % 8
    lanes = np.where(np.arange(P) < body[:, None], x, -0.0).reshape(m, P // 8, 8)
    r = lanes[:, 0].copy()
    for k in range(1, P // 8):
        r += lanes[:, k]
    s = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7]))
    rest = body[:, None] + np.arange(7)
    rest = np.where(rest < n[:, None], x[np.arange(m)[:, None], np.minimum(rest, P - 1)], -0.0)
    for k in range(7):
        s += rest[:, k]
    return s + 0.0


def _fit_short(v: np.ndarray, a: np.ndarray, n: np.ndarray):
    """:func:`_fit_one` of each range ``v[a:a+n]`` (``n ≤ 128``) on one block,
    padded with each row's first value and position: the same float
    operations element by element, the Regressor's two sums by
    :func:`_row_sums`.  Returns the fit and the mask of in-range entries."""
    j = np.arange(-(-int(n.max(initial=1)) // 8) * 8)
    inside = j < n[:, None]
    x = v[a[:, None] + np.where(inside, j, 0)]
    i = np.where(inside, j, 0).astype(np.float64)
    xf, nf = x.astype(np.float64), n.astype(np.float64)
    with np.errstate(invalid="ignore", over="ignore"):  # unsafe rows take the horizontal line
        vbar = _row_sums(xf, n) / nf
        ibar = (nf - 1) / 2.0
        # Σ(i − ī)² = n(n² − 1)/12 is the Regressor's summed divisor exactly: every term
        # and partial sum is a multiple of 1/4 far below 2^53
        denom = np.where(n > 1, nf * (nf * nf - 1) / 12, 1.0)
        theta1 = _row_sums((i - ibar[:, None]) * (xf - vbar[:, None]), n) / denom
        theta0 = vbar - theta1 * ibar
        d = x - np.floor(theta0[:, None] + theta1[:, None] * i).astype(np.int64)
        theta0 += (d.max(axis=1).astype(np.float64) + d.min(axis=1).astype(np.float64)) / 2.0  # θ0-tweak
        deltas = x - np.floor(theta0[:, None] + theta1[:, None] * i).astype(np.int64)
        ends = np.maximum(np.abs(np.floor(theta0)), np.abs(np.floor(theta0 + theta1 * (nf - 1))))
    lo, hi = x.min(axis=1), x.max(axis=1)
    safe = (lo > -(2**62)) & (hi < 2**62) & (ends < _SAFE)
    return _best_of(x, lo, hi, theta0, theta1, deltas, safe), inside


def fit_ranges(v: np.ndarray, starts, stops):
    """:func:`_fit_one` of every range ``v[a:b]``, bit for bit: arrays ``(θ0, θ1,
    bias, width, stored)``, ``stored`` back to back.  Ranges of ≤ 128 values go
    through :func:`_fit_short`, in blocks, longer ones through :func:`_fit_one`."""
    a = np.asarray(starts, dtype=np.int64)
    n = np.asarray(stops, dtype=np.int64) - a
    short, at = n <= _PAIRWISE_BLOCK, np.cumsum(n) - n
    theta0, theta1, bias, width = (np.empty(len(n), t) for t in (float, float, np.int64, np.int64))
    stored = np.empty(int(n.sum()), dtype=np.int64)
    ks = np.flatnonzero(short)
    ks = ks[np.argsort(n[ks], kind="stable")]  # a block of similar lengths pads little
    for k in (ks[c : c + _BLOCK_ROWS] for c in range(0, len(ks), _BLOCK_ROWS)):
        fit, inside = _fit_short(v, a[k], n[k])
        theta0[k], theta1[k], bias[k], width[k], block = fit
        stored[(at[k, None] + np.arange(inside.shape[1]))[inside]] = block[inside]
    for k in np.flatnonzero(~short).tolist():
        theta0[k], theta1[k], bias[k], width[k], deltas = _fit_one(v[a[k] : a[k] + n[k]])
        stored[at[k] : at[k] + n[k]] = deltas - bias[k]
    return theta0, theta1, bias, width, stored


def _fit_fix(v: np.ndarray, starts, stops):
    """LeCo-fix's fit of the fixed-length ranges ``[kL, min((k+1)L, n))``:
    the full ones, as long as the longest, by the vectorized :func:`_fit_rows`
    on one reshape; a shorter tail by the Regressor of :func:`_fit_one`,
    whose θ0-tweak the stored model keeps."""
    n = stops - starts
    L = int(n.max(initial=1))
    m = int(np.count_nonzero(n == L))
    fits = [_fit_rows(v[: m * L].reshape(m, L))]
    if m < len(n):
        theta0, theta1, bias, width, deltas = _fit_one(v[m * L :])
        fits.append(([theta0], [theta1], [bias], [width], deltas - bias))
    return [np.concatenate([np.reshape(f[j], -1) for f in fits]) for j in range(5)]


def _fit_at_length(fit, v: np.ndarray, L: int):
    """``fit`` of the fixed-length-``L`` ranges ``[kL, min((k+1)L, n))`` of ``v``."""
    a = fixed_partitions(len(v), L).astype(np.int64)
    return fit(v, a, np.minimum(a + L, len(v)))


def fixed_widths_linear(values: np.ndarray, L: int) -> np.ndarray:
    """Per-partition delta widths for fixed-length-L LeCo over ``values``."""
    return _fit_at_length(_fit_fix, np.asarray(values, dtype=np.int64), L)[3]


def _linear_widths(v: np.ndarray, starts, stops):
    """LeCo's width callback for ``var_partitions``; one range takes :func:`_fit_one`."""
    return [_fit_one(v[starts[0] : stops[0]])[3]] if len(starts) == 1 else fit_ranges(v, starts, stops)[3]


def encode_fixed(scheme: str, values, dtype_bits: int, L: int | None, fit, widths=None) -> EncodedSequence:
    """``values`` as ``scheme`` in the fixed-length-``L`` ranges ``[kL,
    min((k+1)L, n))``, encoded by :func:`encode_var`.  When ``L`` is None it
    is searched (§3.2.1): each candidate is priced by the size model
    ``format.fixed_size`` at the widths ``widths(sample, L)``, by default the
    ones ``fit`` gives the sample's ranges."""
    v = np.asarray(values, dtype=np.int64)
    if L is None:
        widths = widths or (lambda s, L: _fit_at_length(fit, s, L)[3])
        L = search_fixed_length(v, lambda s, L: fixed_size(scheme, len(s), L, widths(s, L)))
    return encode_var(scheme, v, dtype_bits, fixed_partitions(len(v), L), fit, L)


def encode_var(scheme: str, values, dtype_bits: int, starts: np.ndarray, fit, fixed_len=None) -> EncodedSequence:
    """``values`` as ``scheme`` in the partitions beginning at ``starts``
    (fixed-length-``fixed_len`` ones when it is given, which the blob
    records), all fitted by one ``fit(v, starts, stops) → (θ0, θ1, bias,
    width, stored)`` call (the contract of :func:`fit_ranges`), ``stored``
    back to back, and packed by one ``pack_rows`` call: the one table
    builder of every Model+Delta codec."""
    v = np.asarray(values, dtype=np.int64)
    a = np.asarray(starts, dtype=np.int64)
    n = np.diff(a, append=len(v))
    theta0, theta1, bias, width, stored = fit(v, a, a + n)
    n_stored = payload_counts(scheme, n)
    payload = pack_rows(stored, n_stored, width)
    table = PartitionTable.build(theta0, theta1, bias, width, n, packed_size(n_stored, width), payload)
    return EncodedSequence(scheme, len(v), dtype_bits, fixed_len, starts, table)


#: a read of at most this many values takes :func:`_read`'s scalar branch.
#: Its cost grows with the range's bytes, as each shift copies the range's
#: int: it beat the array path up to about 650 values on books' narrow
#: deltas but only up to about 100 at width 64 (books and random int64
#: columns of 200K values on a 4-vCPU VM: 128 values take 47 against 130
#: µs on books, 77 to 119 against 87 to 94 µs at width 64)
_SCALAR = 128


def _window(buf, off: int, width: int, s: int, e: int) -> int:
    """Values ``[s, e)`` of the ``width``-bit row packed from byte ``off`` of
    ``buf`` as one int, read from the bytes that hold them: value ``i`` is
    ``x >> (e − 1 − i)·width & (2^width − 1)``."""
    end = off * 8 + e * width
    return int.from_bytes(buf[off + s * width // 8 : (end + 7) >> 3], "big") >> (-end % 8)


def _read(t: PartitionTable, ks, a, b) -> np.ndarray:
    """Values ``[a[r], b[r])`` of partitions ``ks[r]`` of a LeCo or FOR table,
    back to back.  Value ``i`` is §3.3's ``floor(θ0 + θ1·i) + bias + delta``.
    A read of at most ``_SCALAR`` values takes it value by value in Python,
    each range's bytes one int, and wraps to int64 as the array path does.
    Otherwise one ``unpack_rows`` call reads every range from the start of
    its group of eight, its leading ``a % 8`` deltas dropped, and the model
    is added flat over all ranges.  Flat rows (θ1 = 0, as in FOR) add
    ``floor(θ0) + bias`` with no float pass when all rows are flat, so when
    they hold most values they are read apart."""
    ks, a, b = (np.asarray(x, dtype=np.int64) for x in (ks, a, b))
    n = b - a
    if n.sum() <= _SCALAR:
        cols, buf, out = (t.theta0, t.theta1, t.bias, t.width, t.payload_off), t.payload, []
        for theta0, theta1, bias, width, off, s, e in zip(*(c[ks].tolist() for c in cols), a.tolist(), b.tolist()):
            x, mask = _window(buf, off, width, s, e), (1 << width) - 1
            out += [math.floor(theta0 + theta1 * i) + bias + (x >> (e - 1 - i) * width & mask) for i in range(s, e)]
        try:
            return np.array(out, dtype=np.int64)
        except OverflowError:  # only a corrupt bias leaves int64
            return np.array([(v + 2**63) % 2**64 - 2**63 for v in out], dtype=np.int64)
    sloped = t.theta1[ks] != 0
    if sloped.any() and 2 * n[~sloped].sum() >= n.sum():  # mostly flat: each kind alone
        out, at = np.empty(int(n.sum()), dtype=np.int64), np.repeat(sloped, n)
        out[at], out[~at] = (_read(t, ks[x], a[x], b[x]) for x in (sloped, ~sloped))
        return out
    w, skip = t.width[ks], a % 8
    stored = unpack_rows(t.payload, t.payload_off[ks] + (a - skip) // 8 * w, n + skip, w).view(np.int64)
    if skip.any():
        row = np.cumsum(n + skip) - n - skip
        stored = np.delete(stored, np.repeat(row - np.cumsum(skip) + skip, skip) + np.arange(int(skip.sum())))
    if not sloped.any():
        return stored + np.repeat(np.floor(t.theta0[ks]).astype(np.int64) + t.bias[ks], n)
    pred = np.arange(len(stored), dtype=np.float64)
    pred -= np.repeat((np.cumsum(n) - n - a).astype(np.float64), n)  # i = a, …, b − 1
    pred *= np.repeat(t.theta1[ks], n)
    pred += np.repeat(t.theta0[ks], n)
    out = np.floor(pred, out=pred).astype(np.int64)
    out += np.repeat(t.bias[ks], n)
    out += stored
    return out


def _decode_partition(t: PartitionTable, k: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Values ``[start, stop)`` of partition ``k``: the one-range :func:`_read`."""
    return _read(t, [k], [start], [t.n[k] if stop is None else stop])


def positions_in(enc: EncodedSequence, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Positions and values of ``enc``'s values inside the union of the
    inclusive intervals ``[lo[j], hi[j]]`` (sorted, disjoint), for a LeCo or
    FOR sequence.

    A partition none of whose intervals meets its header bounds is skipped.
    Otherwise a rising line (θ1 > 0) is inverted (§5.1.1's computation
    pruning): value ``i`` lies in ``floor(θ0 + θ1·i) + bias + [0, 2^w)``, so
    each interval maps to the candidate positions ``[a, b)`` found by
    bisecting the decoder's own prediction, which never decreases in ``i``.
    Overlapping candidate ranges are merged; a flat or falling line (FOR
    included) takes the whole partition.  All ranges are read by one
    :func:`_read`, and a value is kept when it lies in an interval.
    """
    lo, hi = [int(x) for x in lo], [int(x) for x in hi]
    t = enc.partitions
    ks, ra, rb = [], [], []  # the candidate ranges [a, b) of partition k
    for k, (plo, phi) in enumerate(zip(*enc.value_bounds)):
        j0, j1 = bisect.bisect_left(hi, plo), bisect.bisect_right(lo, phi)
        if j0 >= j1:
            continue  # partition skipped from the header alone
        theta0, theta1, bias, width, _, n = t.access_rows[k]
        if theta1 <= 0:
            ks.append(k), ra.append(0), rb.append(n)
            continue
        top = bias + (1 << width) - 1
        idx = range(n)

        def pred(i):
            return math.floor(theta0 + theta1 * i)

        for j in range(j0, j1):
            a = bisect.bisect_left(idx, lo[j] - top, key=pred)
            b = bisect.bisect_right(idx, hi[j] - bias, key=pred)
            if a >= b:
                continue
            if ks and ks[-1] == k and a <= rb[-1]:  # a and b never decrease in j
                rb[-1] = b
            else:
                ks.append(k), ra.append(a), rb.append(b)
    ks, ra, rb = (np.array(x, dtype=np.int64) for x in (ks, ra, rb))
    v = _read(t, ks, ra, rb)
    n = rb - ra
    pos = np.repeat(enc.starts[ks] + ra - np.cumsum(n) + n, n) + np.arange(len(v))
    # the intervals are sorted and disjoint: each value's is the last lo at or below it
    j = np.searchsorted(np.array(lo, dtype=np.int64), v, side="right") - 1
    keep = np.flatnonzero((j >= 0) & (v <= np.array(hi, dtype=np.int64)[j]))
    return pos[keep], v[keep]


def access_many(enc: EncodedSequence, positions) -> np.ndarray:
    """Values at global ``positions`` (any order, repeats allowed) of a LeCo
    or FOR sequence, in one vectorized pass of §3.3's Decoder: each value
    is one model inference plus one delta read at bit ``payload_off·8 +
    i·width`` (``bitpack._bits_at``), with the prediction computed exactly
    as :func:`_read` computes it.  Raises ``IndexError`` for a position
    outside ``[0, n)``."""
    t = enc.partitions
    p = np.asarray(positions, dtype=np.int64)
    if p.size and not 0 <= int(p.min()) <= int(p.max()) < enc.n:
        raise IndexError(f"positions {int(p.min())} … {int(p.max())} not all in [0, {enc.n})")
    k = np.searchsorted(enc.starts, p, side="right") - 1
    i = p - enc.starts[k]
    w = t.width[k].astype(np.int64)
    deltas = _bits_at(t.payload, t.payload_off[k] * 8 + i * w, w).view(np.int64)
    return np.floor(t.theta0[k] + t.theta1[k] * i).astype(np.int64) + t.bias[k] + deltas


def decode_table(enc: EncodedSequence) -> np.ndarray:
    """Full decode of a LeCo or FOR sequence: every partition through one :func:`_read`."""
    t = enc.partitions
    return _read(t, np.arange(len(t)), np.zeros(len(t), dtype=np.int64), t.n)


class _LeCoBase:
    supports_random_access = True

    def decode(self, enc: EncodedSequence) -> np.ndarray:
        return decode_table(enc)

    def access(self, enc: EncodedSequence, i: int) -> int:
        """Value ``i`` by §3.3's Decoder in one frame: the partition by
        ``divmod`` or one bisection, one model inference, and the delta by
        a shift and mask of the bytes that hold it.  The sum wraps to int64
        as the array reads wrap; only a corrupt ``bias`` can leave int64,
        and no check of a header can bound it.  Raises ``IndexError``
        outside ``[0, n)``."""
        rows, buf, n, L, starts = enc.point_state
        if not 0 <= i < n:
            raise IndexError(f"position {i} outside [0, {n})")
        if L is not None:
            k, i = divmod(i, L)
        else:
            k = bisect_right(starts, i) - 1
            i -= starts[k]
        theta0, theta1, bias, width, off, _ = rows[k]
        end = off * 8 + (i + 1) * width
        delta = int.from_bytes(buf[(end - width) >> 3 : (end + 7) >> 3], "big") >> (-end % 8) & ((1 << width) - 1)
        v = math.floor(theta0 + theta1 * i) + bias + delta
        return v if -(2**63) <= v < 2**63 else (v + 2**63) % 2**64 - 2**63

    def decode_range(self, enc: EncodedSequence, start: int, stop: int) -> np.ndarray:
        """Decode global positions ``[start, stop)`` touching only the needed
        partitions; raises ``IndexError`` unless ``0 ≤ start ≤ stop ≤ n``."""
        if not 0 <= start <= stop <= enc.n:
            raise IndexError(f"range [{start}, {stop}) outside [0, {enc.n}]")
        if start == stop:
            return np.empty(0, dtype=np.int64)
        ks = np.arange(enc.partition_of(start)[0], enc.partition_of(stop - 1)[0] + 1)
        s = enc.starts[ks].astype(np.int64)
        return _read(enc.partitions, ks, np.maximum(start - s, 0), np.minimum(stop - s, enc.partitions.n[ks]))


class LeCoFix(_LeCoBase):
    """LeCo with fixed-length partitions (§3.2.1)."""

    name = "LeCo-fix"

    def __init__(self, partition_len: int | None = None):
        self.partition_len = partition_len

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EncodedSequence:
        L = self.partition_len
        # a length past n leaves one range, a tail, which the Regressor fits
        fit = fit_ranges if L is not None and L > len(values) else _fit_fix
        return encode_fixed(self.name, values, dtype_bits, L, fit, fixed_widths_linear)


class LeCoVar(_LeCoBase):
    """LeCo with greedy split/merge variable-length partitions (§3.2.2)."""

    name = "LeCo-var"

    def __init__(self, tau: float = 0.1):
        self.tau = tau

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EncodedSequence:
        starts = var_partitions(values, tau=self.tau, exact_widths=_linear_widths)
        return encode_var(self.name, values, dtype_bits, starts, fit_ranges)
