"""Differential tests of the scan paths against numpy.

``core.leco.positions_in`` (the one model-inversion kernel), the Parquet
scan's ``_mod_positions`` and ``gather_positions`` must return exactly the
rows a brute-force numpy filter returns, on FOR, LeCo-fix, LeCo-var and
LeCo-angle blobs read back through ``to_bytes``/``from_bytes``.  Inputs
include sorted runs with repeats (slope θ1 < 1, where a closed-form model
inversion drops rows), falling runs, int64 extremes, empty input and a
single value.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.for_codec import FORCodec
from repro.core.format import EncodedSequence
from repro.core.leco import LeCoFix, LeCoVar, positions_in
from repro.core.pla import LeCoAngle
from repro.parquet_sim import encodings as penc
from repro.parquet_sim.scan import _mod_positions

CODECS = {
    "FOR": FORCodec(),
    "FOR-7": FORCodec(7),
    "LeCo-fix": LeCoFix(),
    "LeCo-fix-7": LeCoFix(7),
    "LeCo-var": LeCoVar(),
    "LeCo-angle": LeCoAngle(),
}

I64_MIN, I64_MAX = -(2**63), 2**63 - 1
EXTREMES = [I64_MIN, I64_MIN + 1, -(2**62), -1, 0, 1, 2**53 + 1, 2**62, I64_MAX - 1, I64_MAX]


@st.composite
def columns(draw, lo=I64_MIN, hi=I64_MAX):
    """Columns inside ``[lo, hi]``: sorted runs with repeats, falling runs,
    arbitrary values (with int64 extremes when the range allows), of any
    length from 0."""
    ints = st.integers(lo, hi)
    if lo == I64_MIN and hi == I64_MAX:
        ints = st.one_of(ints, st.sampled_from(EXTREMES))
    kind = draw(st.sampled_from(["repeats", "falling", "any"]))
    if kind == "any":
        return draw(st.lists(ints, max_size=200))
    # a run rising by Poisson steps; a mean step below 1 repeats values (θ1 < 1)
    base = draw(st.one_of(st.integers(max(lo, -1000), min(hi, 1000)), ints))
    n, seed = draw(st.integers(0, 3000)), draw(st.integers(0, 2**32 - 1))
    mean = draw(st.sampled_from([0.02, 0.1, 0.5, 3.0]))
    steps = np.random.default_rng(seed).poisson(mean, n)
    run = [min(max(base + s, lo), hi) for s in np.cumsum(steps).tolist()]
    return run if kind == "repeats" else run[::-1]


@st.composite
def intervals(draw, values):
    """Sorted, disjoint, inclusive intervals; endpoints near the data, or
    anywhere (so some intervals miss the data), possibly none at all."""
    near = [int(v) + d for v in values for d in (-1, 0, 1) if I64_MIN <= int(v) + d <= I64_MAX]
    point = st.integers(I64_MIN, I64_MAX)
    if near:
        point = st.one_of(st.sampled_from(near), point)
    ends = sorted(set(draw(st.lists(point, max_size=8))))
    lo, hi = ends[0::2], ends[1::2]
    lo = lo[: len(hi)]
    singles = draw(st.lists(st.booleans(), min_size=len(lo), max_size=len(lo)))
    hi = [a if s else b for a, b, s in zip(lo, hi, singles)]
    return lo, hi


def _roundtrip(name, values):
    v = np.asarray(values, dtype=np.int64)
    return v, EncodedSequence.from_bytes(CODECS[name].encode(v).to_bytes())


def _chunk(enc: EncodedSequence) -> bytes:
    return bytes([penc.TAG_SEQ]) + enc.to_bytes()


@given(data=st.data(), name=st.sampled_from(list(CODECS)))
@settings(max_examples=300, deadline=None)
def test_positions_in_matches_numpy(data, name):
    v, enc = _roundtrip(name, data.draw(columns()))
    lo, hi = data.draw(intervals(v.tolist()))
    pos, vals = positions_in(enc, lo, hi)
    mask = np.zeros(len(v), dtype=bool)
    for a, b in zip(lo, hi):
        mask |= (v >= a) & (v <= b)
    assert np.array_equal(pos, np.flatnonzero(mask))
    assert np.array_equal(vals, v[mask])


@given(
    data=st.data(),
    name=st.sampled_from(list(CODECS) + ["default"]),
    mod=st.sampled_from([7, 60, 600, 86_400]),
)
@settings(max_examples=300, deadline=None)
def test_mod_positions_matches_numpy(data, name, mod):
    v = np.asarray(data.draw(columns(-5_000, 5_000)), dtype=np.int64)
    bound = st.integers(-mod - 2, mod + 2)  # t1 < 0 and t2 > mod included
    if len(v):  # or a window edge at a value's remainder
        bound = st.one_of(st.sampled_from(sorted({int(r) + d for r in v % mod for d in (-1, 0, 1)})), bound)
    t1, t2 = data.draw(bound), data.draw(bound)
    blob = penc.encode_chunk(v, "default") if name == "default" else _chunk(_roundtrip(name, v)[1])
    got = _mod_positions(blob, t1, t2, mod)
    assert np.array_equal(got, np.flatnonzero((v % mod > t1) & (v % mod < t2)))


@given(
    values=columns(),
    name=st.sampled_from(list(CODECS)),
    t1=st.integers(-10, 2**61 + 10),
    t2=st.integers(-10, 2**61 + 10),
)
@settings(max_examples=100, deadline=None)
def test_mod_positions_int64_extremes(values, name, t1, t2):
    """A day as long as 2^61 keeps the windows across int64 to a handful."""
    mod = 2**61
    v, enc = _roundtrip(name, values)
    got = _mod_positions(_chunk(enc), t1, t2, mod)
    assert np.array_equal(got, np.flatnonzero((v % mod > t1) & (v % mod < t2)))


@given(data=st.data(), name=st.sampled_from(list(CODECS)))
@settings(max_examples=200, deadline=None)
def test_gather_positions_matches_numpy(data, name):
    v, enc = _roundtrip(name, data.draw(columns()))
    picks = data.draw(st.lists(st.integers(0, max(len(v) - 1, 0)), max_size=300)) if len(v) else []
    positions = np.unique(np.asarray(picks, dtype=np.int64))
    assert np.array_equal(penc.gather_positions(_chunk(enc), positions), v[positions])

