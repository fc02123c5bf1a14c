"""LeCo-specific behavioural tests: format invariants, range decode, exact
model inference, and paper-claimed dominance properties."""
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.delta_codec import DeltaFix, DeltaVar, _field_sum
from repro.baselines.elias_fano import EliasFano
from repro.baselines.for_codec import FORCodec
from repro.core.format import EncodedSequence, PARTITION_HEADER_BYTES
from repro.core import leco
from repro.core.leco import LeCoFix, LeCoVar, access_many, positions_in
from repro.core.pla import LeCoAngle
from repro.datasets import INTEGER_DATASETS
from repro.parquet_sim.encodings import TAG_SEQ, encode_chunk, gather_positions


def test_partition_encoding_invariants():
    g = np.random.default_rng(0)
    v = np.cumsum(g.integers(0, 9, 500)).astype(np.int64)
    enc = LeCoFix(500).encode(v)
    t = enc.partitions
    assert len(t) == 1 and t.n[0] == 500
    assert t.payload_len[0] == (500 * int(t.width[0]) + 7) // 8
    # global header (17) + fixed_len (4) + partition header + payload_len (4) + payload
    size = 17 + 4 + PARTITION_HEADER_BYTES + 4 + int(t.payload_len[0])
    assert enc.nbytes() == len(enc.to_bytes()) == size


@pytest.mark.parametrize("dataset", ["linear", "wiki", "movieid", "fb"])
def test_decode_range(dataset):
    v, bits = INTEGER_DATASETS[dataset](5000)
    codec = LeCoFix(512)
    enc = codec.encode(v, dtype_bits=bits)
    for a, b in [(0, 10), (500, 520), (1000, 4000), (4990, 5000), (511, 513)]:
        assert np.array_equal(codec.decode_range(enc, a, b), v[a:b])


def test_decode_range_var_partitions():
    v, bits = INTEGER_DATASETS["house_price"](4000)
    codec = LeCoVar()
    enc = codec.encode(v, dtype_bits=bits)
    for a, b in [(0, 100), (1234, 2345), (3999, 4000)]:
        assert np.array_equal(codec.decode_range(enc, a, b), v[a:b])


@pytest.mark.parametrize("dataset", list(INTEGER_DATASETS))
def test_decode_matches_access(dataset):
    """§3.3: bulk decode (vectorized inference per partition) must be
    bit-identical to direct scalar inference at every position."""
    v, bits = INTEGER_DATASETS[dataset](3000)
    codec = LeCoFix(256)
    enc = codec.encode(v, dtype_bits=bits)
    assert np.array_equal(codec.decode(enc), v)
    assert [codec.access(enc, i) for i in range(len(v))] == v.tolist()


def test_model_share_breakdown_sums():
    v, bits = INTEGER_DATASETS["ml"](4000)
    enc = LeCoFix(512).encode(v, dtype_bits=bits)
    delta_bytes = int(enc.partitions.payload_len.sum())
    assert enc.model_bytes() + delta_bytes == enc.nbytes()


def test_var_no_worse_than_fix_on_piecewise_data():
    """Variable partitioning should win where the paper says it does
    (piecewise patterns: movieid, house_price)."""
    for name in ("movieid", "house_price"):
        v, bits = INTEGER_DATASETS[name](20_000)
        fix = LeCoFix().encode(v, dtype_bits=bits).ratio()
        var = LeCoVar().encode(v, dtype_bits=bits).ratio()
        assert var <= fix * 1.02, f"{name}: var {var:.4f} vs fix {fix:.4f}"


def test_fixed_len_partition_of():
    enc = LeCoFix(100).encode(np.arange(1050, dtype=np.int64), dtype_bits=64)
    assert enc.partition_of(0) == (0, 0)
    assert enc.partition_of(99) == (0, 99)
    assert enc.partition_of(100) == (1, 0)
    assert enc.partition_of(1049) == (10, 49)
    assert len(enc.partitions) == 11
    assert enc.partitions.n[-1] == 50


def test_var_partition_of():
    v, bits = INTEGER_DATASETS["movieid"](5000)
    enc = LeCoVar().encode(v, dtype_bits=bits)
    starts = list(enc.starts) + [len(v)]
    for i in (0, 1, 2500, 4999):
        k, off = enc.partition_of(i)
        assert starts[k] <= i < starts[k + 1]
        assert off == i - starts[k]


def _column(seed: int, n: int) -> np.ndarray:
    """A random walk with occasional jumps: several variable-length partitions."""
    g = np.random.default_rng(seed)
    steps = g.integers(0, 50, n) + np.where(g.random(n) < 0.02, g.integers(-(10**6), 10**6, n), 0)
    return np.cumsum(steps).astype(np.int64)


_LAYOUTS = {
    "LeCo-fix": lambda: LeCoFix(16),
    "FOR": lambda: FORCodec(16),
    "LeCo-var": LeCoVar,
    "Delta-var": DeltaVar,
    "LeCo-angle": lambda: LeCoAngle(4),
}


@given(st.sampled_from(sorted(_LAYOUTS)), st.integers(0, 2**32 - 1), st.integers(1, 600))
@settings(max_examples=60, deadline=None)
def test_partition_of_matches_searchsorted(layout, seed, n):
    """The locator equals numpy's ``searchsorted`` on the starts, and
    ``access`` equals the full decode, at both ends, every start and the
    position before it."""
    v = _column(seed, n)
    codec = _LAYOUTS[layout]()
    enc = codec.encode(v)
    starts = enc.starts.astype(np.int64)
    where = np.unique(np.r_[0, n - 1, starts, starts[1:] - 1])
    out = codec.decode(enc)
    assert np.array_equal(out, v)
    for i in where.tolist():
        k = int(np.searchsorted(starts, i, side="right")) - 1
        assert enc.partition_of(i) == (k, i - int(starts[k]))
        assert codec.access(enc, i) == out[i]


@pytest.mark.parametrize(
    "make", [FORCodec, LeCoFix, LeCoVar, lambda: LeCoAngle(4), DeltaFix, DeltaVar, EliasFano, "plain", "dict"]
)
def test_access_out_of_range_raises(make):
    """A read outside ``[0, n)`` raises instead of returning another
    position's value, one at a time or (FOR and LeCo layouts, plain and
    dictionary chunks) many at once; ``decode_range`` takes
    ``0 ≤ start ≤ stop ≤ n``."""
    v = np.cumsum(np.random.default_rng(0).integers(0, 100, 1000)).astype(np.int64)
    if isinstance(make, str):  # a Parquet chunk of the default encoding
        blob = encode_chunk(v if make == "plain" else v % 10, "default")
        assert blob[0] == (0 if make == "plain" else 1)
        want = v if make == "plain" else v % 10
        assert np.array_equal(gather_positions(blob, np.array([999, 0, 500])), want[[999, 0, 500]])
        assert len(gather_positions(blob, np.empty(0, dtype=np.int64))) == 0
        for p in ([-1], [1000], [-1, 1000, 1500], [0, 5, 10**6]):
            with pytest.raises(IndexError):
                gather_positions(blob, np.array(p))
        return
    codec = make()
    enc = codec.encode(v)
    assert codec.access(enc, 0) == v[0] and codec.access(enc, 999) == v[999]
    for i in (-1, 1000, 10**6):
        with pytest.raises(IndexError):
            codec.access(enc, i)
    if isinstance(enc, EncodedSequence) and not enc.scheme.startswith("Delta"):
        blob = bytes([TAG_SEQ]) + enc.to_bytes()
        for read in (lambda p: access_many(enc, p), lambda p: gather_positions(blob, p)):
            assert np.array_equal(read(np.array([999, 0, 500])), v[[999, 0, 500]])
            assert len(read(np.empty(0, dtype=np.int64))) == 0
            for p in ([-1], [1000], [-1, 1000, 1500], [0, 5, 10**6]):
                with pytest.raises(IndexError):
                    read(np.array(p))
    if hasattr(codec, "decode_range"):
        for a, b in ((990, 1005), (10, 3), (-1, 5)):
            with pytest.raises(IndexError):
                codec.decode_range(enc, a, b)
        for a in (0, 500, 1000):
            got = codec.decode_range(enc, a, a)
            assert got.dtype == np.int64 and len(got) == 0
        assert np.array_equal(codec.decode_range(enc, 990, 1000), v[990:])


_RANGE_LAYOUTS = {
    "FOR": lambda: FORCodec(20),
    "LeCo-fix": lambda: LeCoFix(20),
    "LeCo-fix-8": lambda: LeCoFix(8),
    "LeCo-var": LeCoVar,
    "LeCo-angle": lambda: LeCoAngle(4),
    "Delta-fix": lambda: DeltaFix(20),
    "Delta-var": DeltaVar,
}


@given(st.sampled_from(sorted(_RANGE_LAYOUTS)), st.integers(0, 2**32 - 1), st.integers(1, 600), st.data())
@settings(max_examples=150, deadline=None)
def test_range_reads_start_and_end_mid_group(layout, seed, n, data):
    """Reads of a blob that start and end inside a group of eight deltas
    equal numpy's slice and filter.  LeCo: ``decode_range`` over ``[a, b)``;
    FOR and LeCo: ``positions_in`` over small intervals around the values
    at ``a``, ``b − 1`` and a few positions off the group grid (a rising
    line's candidate ranges start near them).  Delta, whose reads start at
    a partition's first value: ``access`` at ``a`` and ``b − 1``, which
    unpack a prefix of differences ending mid-group."""
    v = _column(seed, n)
    codec = _RANGE_LAYOUTS[layout]()
    enc = EncodedSequence.from_bytes(codec.encode(v).to_bytes())
    off_grid = st.integers(0, n - 1).filter(lambda i: i % 8 or n < 8)
    a = data.draw(off_grid)
    b = data.draw(st.integers(a + 1, n).filter(lambda j: j % 8 or j == n))
    if layout.startswith("Delta"):
        assert [codec.access(enc, i) for i in (a, b - 1)] == [v[a], v[b - 1]]
        return
    if hasattr(codec, "decode_range"):  # FOR has none
        got = codec.decode_range(enc, a, b)
        assert got.dtype == np.int64 and np.array_equal(got, v[a:b])
    at = sorted({a, b - 1, *data.draw(st.lists(off_grid, max_size=4))})
    pad = data.draw(st.sampled_from([0, 1, 30]))
    lo, hi = [], []
    for x in sorted(set(int(v[i]) for i in at)):
        if lo and x - pad <= hi[-1]:
            hi[-1] = x + pad  # overlapping intervals merge: they must be disjoint
        else:
            lo.append(x - pad), hi.append(x + pad)
    pos, vals = positions_in(enc, lo, hi)
    mask = np.zeros(n, dtype=bool)
    for x, y in zip(lo, hi):
        mask |= (v >= x) & (v <= y)
    assert np.array_equal(pos, np.flatnonzero(mask)) and np.array_equal(vals, v[mask])


_POINT_LAYOUTS = {
    "FOR": lambda: FORCodec(16),
    "LeCo-fix": lambda: LeCoFix(16),
    "LeCo-var": LeCoVar,
    "LeCo-angle": lambda: LeCoAngle(4),
    "Delta-fix": lambda: DeltaFix(16),
    "Delta-var": DeltaVar,
}


@given(st.sampled_from(sorted(_POINT_LAYOUTS)), st.integers(0, 2**32 - 1), st.integers(0, 300), st.booleans())
@settings(max_examples=120, deadline=None)
def test_access_equals_decode_everywhere(layout, seed, n, parsed):
    """``access`` equals the full decode at every position, so at every
    partition edge, of a sequence in memory or read back by ``from_bytes``
    (a memoryview payload): a flat run (width 0), int64's two ends side by
    side (width 64) and a random walk.  A position outside ``[0, n)``
    raises ``IndexError``."""
    v = np.r_[np.full(20, 7), [-(2**63), 2**63 - 1, 0] * 7, _column(seed, n)].astype(np.int64)
    codec = _POINT_LAYOUTS[layout]()
    enc = codec.encode(v)
    if parsed:
        enc = EncodedSequence.from_bytes(enc.to_bytes())
    assert {0, 64} <= set(enc.partitions.width.tolist())
    out = codec.decode(enc)
    assert np.array_equal(out, v)
    assert [codec.access(enc, i) for i in range(len(v))] == out.tolist()
    for i in (-1, len(v), len(v) + 8):
        with pytest.raises(IndexError):
            codec.access(enc, i)


@given(st.sampled_from(["Delta-fix", "Delta-var"]), st.sampled_from([0, 1, 63, 64]), st.integers(0, 2**32 - 1),
       st.integers(1, 400), st.booleans())
@settings(max_examples=120, deadline=None)
def test_delta_access_equals_decode_everywhere(layout, width, seed, n, corrupt):
    """Delta ``access`` equals the full decode at every position: each
    partition's first value (no difference summed), prefixes folded in
    Python and, at widths 63 and 64, whose Delta-fix prefixes pass
    ``_FOLD_BITS`` within a 300-value partition, ones read by ``unpack_rows``;
    differences drawn below ``2^width`` for widths 0, 1, 63 and 64 from a
    start anywhere in int64, so the values wrap over its full range.  With
    one partition's bias overwritten by int64's maximum in the blob, the
    reads leave int64 and wrap alike."""
    g = np.random.default_rng(seed)
    d = g.integers(0, (1 << width) - 1, n, dtype=np.uint64, endpoint=True)
    v = (np.uint64(g.integers(0, 2**64 - 1, dtype=np.uint64, endpoint=True)) + np.cumsum(d)).view(np.int64)
    codec = DeltaFix(300) if layout == "Delta-fix" else DeltaVar()
    enc = codec.encode(v)
    if n >= 50:
        assert width in enc.partitions.width.tolist()
    blob = bytearray(enc.to_bytes())
    if corrupt:
        m = len(enc.partitions)
        at = 17 + (4 if enc.fixed_len is not None else 4 * m) + 29 * (seed % m) + 16
        struct.pack_into("<q", blob, at, 2**63 - 1)
    enc = EncodedSequence.from_bytes(bytes(blob))
    out = codec.decode(enc)
    assert out.dtype == np.int64 and (corrupt or np.array_equal(out, v))
    assert [codec.access(enc, i) for i in range(n)] == out.tolist()


@given(st.integers(1, 64), st.data())
@settings(max_examples=200, deadline=None)
def test_field_sum_equals_sum(width, data):
    """``_field_sum`` of ``n`` packed fields is their plain sum, all-ones
    fields (the largest total, just below the final modulus) included."""
    top = (1 << width) - 1
    fields = data.draw(st.one_of(st.lists(st.integers(0, top), max_size=600),
                                 st.integers(0, 600).map(lambda n: [top] * n)))
    x = 0
    for v in fields:
        x = x << width | v
    assert _field_sum(x, width, len(fields)) == sum(fields)


@given(st.sampled_from(["FOR", "LeCo-fix", "LeCo-var", "LeCo-angle"]), st.integers(0, 2**32 - 1),
       st.integers(1, 400), st.data())
@settings(max_examples=100, deadline=None)
def test_read_scalar_branch_equals_array_branch(layout, seed, n, data):
    """``leco._read`` takes a read of at most ``_SCALAR`` values in Python
    and a longer one in numpy passes: both give the same int64 values for a
    full decode, a ``decode_range`` and a ``positions_in``, in memory and
    read back by ``from_bytes``."""
    v = _column(seed, n)
    codec = _POINT_LAYOUTS[layout]()
    enc = codec.encode(v)
    if data.draw(st.booleans()):
        enc = EncodedSequence.from_bytes(enc.to_bytes())
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(a + 1, n))
    lo, hi = sorted([int(v[a]), int(v[b - 1])])
    reads = [lambda: leco.decode_table(enc), lambda: positions_in(enc, [lo], [hi])[1]]
    if hasattr(codec, "decode_range"):  # FOR has none
        reads.append(lambda: codec.decode_range(enc, a, b))
    for read in reads:
        with mock.patch.object(leco, "_SCALAR", 0):
            array = read()
        with mock.patch.object(leco, "_SCALAR", 10**9):
            scalar = read()
        assert array.dtype == scalar.dtype == np.int64 and np.array_equal(array, scalar)
    assert np.array_equal(reads[0](), v)


def test_range_reads_reach_mid_group_ranges():
    """The reads above do reach the reader with ranges that start off the
    group grid: on a rising column, ``decode_range`` and ``positions_in``
    hand ``leco._read`` starts with ``a % 8 ≠ 0``."""
    v = _column(3, 2000)
    starts = []
    real = leco._read

    def spy(t, ks, a, b):
        starts.extend(np.asarray(a).tolist())
        return real(t, ks, a, b)

    for codec in (LeCoFix(100), LeCoVar()):
        enc = codec.encode(v)
        starts.clear()
        with mock.patch.object(leco, "_read", spy):
            assert np.array_equal(codec.decode_range(enc, 1003, 1500), v[1003:1500])
            pos, _ = positions_in(enc, [int(v[1203]), int(v[1707])], [int(v[1203]), int(v[1707])])
        assert any(x % 8 for x in starts)
        assert {1203, 1707} <= set(pos.tolist())


def test_empty_sequence_has_no_position():
    enc = LeCoVar().encode(np.empty(0, dtype=np.int64))
    with pytest.raises(IndexError):
        enc.partition_of(0)
    assert len(LeCoVar().decode_range(enc, 0, 0)) == 0


def test_bad_scheme_name():
    from repro.core.codec_api import get_codec

    with pytest.raises(KeyError):
        get_codec("nope")


def test_from_bytes_rejects_garbage():
    with pytest.raises(ValueError):
        EncodedSequence.from_bytes(b"XX" + b"\0" * 30)


def test_explicit_partition_len_respected():
    v = np.arange(10_000, dtype=np.int64)
    enc = LeCoFix(partition_len=500).encode(v, dtype_bits=64)
    assert enc.fixed_len == 500
    assert len(enc.partitions) == 20
