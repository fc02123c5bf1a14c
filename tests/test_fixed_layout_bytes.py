"""FOR, LeCo-fix and Delta-fix at an explicit partition length ``L``: the
blob must equal one built here partition by partition over the ranges
``[kL, min((k+1)L, n))``, in Python integers, with its own bit packing and
header layout.  The golden digests pin only searched lengths on 100K-value
sets; these cases add ``L ≥ n``, a one-value tail, n ∈ {0, 1}, full-range
int64 and repeats.

The one float step LeCo's reference takes from numpy is the fitted line:
the full partitions' least-squares line, computed on all of them stacked
(as the encoder does, so BLAS sums them alike), and the tail's line from
the Regressor, θ0-tweak included.  The choice between that line and FOR's
horizontal one, the bias, width and stored deltas are worked out here."""
import math
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.delta_codec import DeltaFix
from repro.baselines.for_codec import FORCodec
from repro.core.leco import LeCoFix
from repro.core.regressor import LinearModel, LinearRegressor

I64_MIN, I64_MAX = -(2**63), 2**63 - 1
SCHEME_ID = {"LeCo-fix": 0, "FOR": 2, "Delta-fix": 3}


def _wrap(x: int) -> int:
    """``x`` wrapped to int64, as numpy's integer arithmetic wraps."""
    return (x + 2**63) % 2**64 - 2**63


def _pack(stored: list[int], width: int) -> bytes:
    """``stored`` (each in ``[0, 2^width)``) at ``width`` bits MSB-first, zero-padded to whole bytes."""
    x = 0
    for s in stored:
        x = x << width | s
    bits = len(stored) * width
    return (x << (-bits % 8)).to_bytes((bits + 7) // 8, "big")


def _blob(scheme: str, n: int, L: int, parts) -> bytes:
    """A fixed-length sequence serialized as ``format.py`` lays it out: the
    global header, ``fixed_len``, one 29-byte header per partition, then
    every partition's packed deltas."""
    payloads = [_pack(stored, width) for _, _, _, width, stored in parts]
    out = struct.pack("<2sBBqBI", b"LC", SCHEME_ID[scheme], 1, n, 64, len(parts)) + struct.pack("<I", L)
    for (theta0, theta1, bias, width, _), p in zip(parts, payloads):
        out += struct.pack("<ddqBI", theta0, theta1, bias, width, len(p))
    return out + b"".join(payloads)


def _for(x: list[int]):
    """FOR: the horizontal line θ0 = θ1 = 0, the min in bias, offsets stored."""
    lo = min(x)
    return 0.0, 0.0, lo, (max(x) - lo).bit_length(), [v - lo for v in x]


def _delta(x: list[int]):
    """Delta: the first value in bias, the difference bias min(0, min d) in
    θ1, the wrapped first differences less it stored; a bias ≤ −2^53 (not
    exact in θ1) stores the differences at width 64 with bias 0."""
    d = [_wrap(b - a) for a, b in zip(x, x[1:])]
    dbias = min([0, *d])
    if dbias <= -(2**53):
        return 0.0, 0.0, x[0], 64, [e % 2**64 for e in d]
    return 0.0, float(dbias), x[0], (max(d, default=0) - dbias).bit_length(), [e - dbias for e in d]


def _leco(x: list[int], theta0: float, theta1: float, safe_values: bool):
    """LeCo: the line ``floor(θ0 + θ1·i)`` when the values (``safe_values``)
    and the line's two ends lie inside ±2^62 and its deltas are no wider
    than FOR's; else FOR's line through ``float(min)``, its rounding in bias."""
    lo, hi = min(x), max(x)
    w_const = (hi - lo).bit_length()
    pred = [math.floor(theta0 + theta1 * i) for i in range(len(x))]
    if safe_values and max(abs(pred[0]), abs(pred[-1])) < 2**62:
        deltas = [v - p for v, p in zip(x, pred)]
        dlo = min(deltas)
        if (max(deltas) - dlo).bit_length() <= w_const:
            return theta0, theta1, dlo, (max(deltas) - dlo).bit_length(), [e - dlo for e in deltas]
    c0 = float(lo) if float(lo) < 2.0**63 else 0.0
    return c0, 0.0, lo - int(c0), w_const, [v - lo for v in x]


def _leco_fix(v: np.ndarray, L: int):
    """LeCo-fix: every full partition takes the least-squares line of all of
    them stacked, without the θ0-tweak; a shorter tail the Regressor's."""
    m = len(v) // L
    rows = v[: m * L].reshape(m, L)
    i = np.arange(L, dtype=np.float64)
    ibar = (L - 1) / 2.0
    mean = rows.mean(axis=1)
    theta1 = ((rows - mean[:, None]) @ (i - ibar)) / (float(((i - ibar) ** 2).sum()) or 1.0)
    theta0 = mean - theta1 * ibar
    parts = []
    for k, row in enumerate(rows.tolist()):
        safe = max(abs(float(min(row))), abs(float(max(row)))) < 2.0**62
        parts.append(_leco(row, float(theta0[k]), float(theta1[k]), safe))
    if len(v) % L:
        x = v[m * L :].tolist()
        safe = max(-min(x), max(x)) < 2.0**62  # the Regressor fits only such values
        line = LinearRegressor().fit(v[m * L :]) if safe else LinearModel(0.0, 0.0)
        parts.append(_leco(x, line.theta0, line.theta1, safe))
    return parts


REFERENCES = {
    "FOR": (FORCodec, lambda v, L: [_for(v[a : a + L].tolist()) for a in range(0, len(v), L)]),
    "LeCo-fix": (LeCoFix, _leco_fix),
    "Delta-fix": (DeltaFix, lambda v, L: [_delta(v[a : a + L].tolist()) for a in range(0, len(v), L)]),
}

_VALUES = st.one_of(
    st.lists(st.integers(I64_MIN, I64_MAX), max_size=60),  # full-range int64
    st.lists(st.sampled_from([-7, 0, 3, 2**62, I64_MIN, I64_MAX]), max_size=60),  # repeats
    st.lists(st.integers(-50, 400), max_size=200).map(lambda d: np.cumsum(d).tolist()),  # a noisy rising line
)


@given(values=_VALUES, L=st.integers(1, 70))
@example(values=[], L=1)
@example(values=[], L=5)
@example(values=[42], L=1)
@example(values=[42], L=3)
@example(values=[0, 5, 7, 20, 22, 31], L=10)  # L > n: one range, a tail
@example(values=[5, 1, 9, 3], L=4)  # L == n: one full partition
@example(values=list(range(0, 70, 7)), L=9)  # a one-value tail
@example(values=[I64_MIN, I64_MAX, I64_MIN, I64_MAX, 0], L=2)
@example(values=[3] * 50, L=7)
@settings(max_examples=300, deadline=None)
def test_fixed_layout_bytes_equal_per_partition_reference(values, L):
    v = np.array(values, dtype=np.int64)
    for scheme, (codec, reference) in REFERENCES.items():
        got = codec(L).encode(v).to_bytes()
        assert got == _blob(scheme, len(v), L, reference(v, L)), scheme
