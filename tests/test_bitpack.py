"""Unit tests for the bit-packing substrate (core/bitpack)."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitpack
from repro.core.bitpack import (
    bits_needed,
    bits_needed_vec,
    extract,
    extract_bigint,
    pack,
    pack_bigints,
    pack_rows,
    unpack,
    unpack_rows,
    unpack_bigints,
)
from repro.core.format import EncodedSequence
from repro.core.leco import LeCoFix, _fit_fix


@pytest.mark.parametrize(
    "x,expected",
    [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (255, 8), (256, 9),
     (2**52, 53), (2**53 - 1, 53), (2**53, 54), (2**63 - 1, 63)],
)
def test_bits_needed(x, expected):
    assert bits_needed(x) == expected


def test_bits_needed_rejects_negative():
    with pytest.raises(ValueError):
        bits_needed(-1)


@pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 8, 9, 13, 16, 21, 31, 32, 33, 48, 63, 64])
def test_pack_unpack_roundtrip(width):
    g = np.random.default_rng(width)
    hi = (1 << width) - 1
    v = g.integers(0, hi, 257, dtype=np.uint64) if width < 64 else g.integers(
        0, 2**63 - 1, 257, dtype=np.uint64
    )
    buf = pack(v, width)
    assert len(buf) == (257 * width + 7) // 8
    out = unpack(buf, width, 257)
    assert np.array_equal(out, v)


@pytest.mark.parametrize("width", [1, 3, 8, 12, 17, 33, 64])
def test_extract_matches_unpack(width):
    g = np.random.default_rng(width + 100)
    v = g.integers(0, (1 << min(width, 63)) - 1, 100, dtype=np.uint64)
    buf = pack(v, width)
    for i in [0, 1, 50, 98, 99]:
        assert extract(buf, width, i) == v[i]


def test_width_zero():
    assert pack(np.array([0, 0], dtype=np.uint64), 0) == b""
    assert np.array_equal(unpack(b"", 0, 5), np.zeros(5, dtype=np.uint64))
    assert extract(b"", 0, 3) == 0


def test_pack_rejects_out_of_range():
    with pytest.raises(ValueError):
        pack(np.array([8], dtype=np.uint64), 3)


def test_pack_rejects_bad_width():
    with pytest.raises(ValueError):
        pack(np.array([1], dtype=np.uint64), 65)


@given(st.lists(st.integers(min_value=0, max_value=2**40 - 1), min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_pack_unpack_hypothesis(values):
    v = np.array(values, dtype=np.uint64)
    width = max(bits_needed(int(v.max())), 1)
    assert np.array_equal(unpack(pack(v, width), width, len(v)), v)


@pytest.mark.parametrize("width", [1, 7, 64, 65, 100, 200])
def test_bigint_roundtrip(width):
    import random

    r = random.Random(width)
    vals = [r.getrandbits(width) for _ in range(50)]
    buf = pack_bigints(vals, width)
    assert unpack_bigints(buf, width, 50) == vals
    for i in (0, 1, 25, 49):
        assert extract_bigint(buf, width, i) == vals[i]


def test_bigint_width_zero():
    assert pack_bigints([0, 0], 0) == b""
    assert unpack_bigints(b"", 0, 3) == [0, 0, 0]


def test_bigint_rejects_out_of_range():
    with pytest.raises(ValueError):
        pack_bigints([4], 2)


@given(st.lists(st.integers(min_value=0, max_value=2**130), min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_bigint_hypothesis(vals):
    width = max(max(v.bit_length() for v in vals), 1)
    buf = pack_bigints(vals, width)
    assert unpack_bigints(buf, width, len(vals)) == vals


@given(st.lists(st.integers(0, 2**64 - 1), max_size=50))
@settings(max_examples=60, deadline=None)
def test_bits_needed_vec_exact(values):
    v = np.array(values + [0, 1, 2**53 - 1, 2**53, 2**63, 2**64 - 1], dtype=np.uint64)
    assert bits_needed_vec(v).tolist() == [int(x).bit_length() for x in v.tolist()]
    # a spread taken in wrapping int64 arithmetic still gives the exact width
    lo, hi = np.array([-(2**63), -5]), np.array([2**63 - 1, 7])
    assert bits_needed_vec(hi - lo).tolist() == [64, 4]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_pack_rows_matches_bigint_reference(data):
    """Every row of equal-length rows packs exactly like the pure-Python
    reference, for widths 0..64, L = 1 and L not a multiple of 8."""
    m = data.draw(st.integers(1, 6))
    L = data.draw(st.integers(1, 40))
    widths = data.draw(st.lists(st.integers(0, 64), min_size=m, max_size=m))
    seed = data.draw(st.integers(0, 2**32 - 1))
    g = np.random.default_rng(seed)
    rows = g.integers(0, 2**64 - 1, (m, L), dtype=np.uint64, endpoint=True)
    rows &= np.array([(1 << w) - 1 for w in widths], dtype=np.uint64)[:, None]
    want = b"".join(pack_bigints(r.tolist(), w) for r, w in zip(rows, widths))
    assert pack_rows(rows.reshape(-1), [L] * m, widths) == want
    assert b"".join(pack(r, w) for r, w in zip(rows, widths)) == want


def _matrix_pack(values: np.ndarray, width: int) -> bytes:
    """The bit-matrix packer ``pack`` used before the lane kernel, kept as
    the oracle: ``np.unpackbits`` of the big-endian value bytes, each
    value's low ``width`` bits kept, ``np.packbits`` back to bytes."""
    be = np.asarray(values, dtype=np.uint64).reshape(1, -1).astype(">u8")
    bits = np.unpackbits(be.view(np.uint8), axis=1)
    return np.packbits(bits.reshape(1, -1, 64)[:, :, 64 - width :].reshape(1, -1), axis=1).tobytes()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_ragged_pack_rows_matches_matrix_packer(data):
    """Ragged ``pack_rows`` equals the bit-matrix packer applied row by
    row, for widths 0..64 with each row's top value, counts 0..40 (most
    not a multiple of 8), rows in any width order and tables of one
    width; ``unpack`` and ``unpack_rows`` read every row back."""
    m = data.draw(st.integers(0, 8))
    one_width = data.draw(st.booleans())
    if one_width:
        widths = [data.draw(st.integers(0, 64))] * m
    else:
        widths = data.draw(st.lists(st.integers(0, 64), min_size=m, max_size=m))
    counts = data.draw(st.lists(st.integers(0, 40), min_size=m, max_size=m))
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = []
    for n, w in zip(counts, widths):
        r = g.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True) & np.uint64((1 << w) - 1)
        if n:
            r[g.integers(n)] = (1 << w) - 1  # the row's top value
        rows.append(r)
    values = np.concatenate(rows) if rows else np.empty(0, dtype=np.uint64)
    buf = pack_rows(values, counts, widths)
    assert buf == b"".join(_matrix_pack(r, w) for r, w in zip(rows, widths))
    sizes = bitpack.packed_size(np.array(counts, dtype=np.int64), np.array(widths, dtype=np.int64))
    offsets = np.cumsum(sizes) - sizes
    assert len(buf) == int(sizes.sum())
    for r, w, off in zip(rows, widths, offsets.tolist()):
        assert np.array_equal(unpack(buf, w, len(r), off), r)
    # the whole table comes back from one read
    assert np.array_equal(unpack_rows(buf, offsets, counts, widths), values)


def test_pack_rows_rejects_bad_input():
    with pytest.raises(ValueError):
        pack_rows(np.array([8, 1], dtype=np.uint64), [2], [3])
    with pytest.raises(ValueError):
        pack_rows(np.array([1, 1], dtype=np.uint64), [2], [65])
    with pytest.raises(ValueError):
        pack_rows(np.array([1, 1], dtype=np.uint64), [2], [1, 1])
    with pytest.raises(ValueError):  # a value out of range in a later row
        pack_rows(np.array([1, 1, 1, 4], dtype=np.uint64), [1, 3], [1, 2])
    with pytest.raises(ValueError):  # counts must cover the values exactly
        pack_rows(np.array([1, 1, 1], dtype=np.uint64), [1, 1], [1, 1])
    with pytest.raises(ValueError):
        pack_rows(np.array([1, 1], dtype=np.uint64), [3, -1], [1, 1])
    assert pack_rows(np.empty(0, dtype=np.uint64), [], []) == b""
    assert pack_rows(np.empty(0, dtype=np.uint64), [0, 0], [5, 64]) == b""


def _ragged_rows(data, g, m):
    """``m`` rows of 0..40 values at widths 0..64, each holding its width's
    top value, and their counts and widths."""
    widths = data.draw(st.lists(st.integers(0, 64), min_size=m, max_size=m))
    counts = data.draw(st.lists(st.integers(0, 40), min_size=m, max_size=m))
    rows = []
    for n, w in zip(counts, widths):
        r = g.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True) & np.uint64((1 << w) - 1)
        if n:
            r[g.integers(n)] = (1 << w) - 1
        rows.append(r)
    return rows, np.array(counts, dtype=np.int64), np.array(widths, dtype=np.int64)


def _flat(rows) -> np.ndarray:
    return np.concatenate(rows) if rows else np.empty(0, dtype=np.uint64)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_unpack_rows_inverts_pack_rows(data):
    """``unpack_rows`` returns exactly what ``pack_rows`` packed, rows placed
    anywhere in a buffer behind any head and before any tail, read in any
    order, for widths 0..64 (each row with its top value), counts 0..40
    (most not a multiple of 8) and a single row.  Each row equals its own
    one-row ``unpack``."""
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = data.draw(st.integers(1, 8))
    rows, counts, widths = _ragged_rows(data, g, m)
    head = data.draw(st.binary(max_size=9))
    buf = head + pack_rows(_flat(rows), counts, widths) + data.draw(st.sampled_from([b"", b"\xff", bytes(9)]))
    sizes = bitpack.packed_size(counts, widths)
    offsets = len(head) + np.cumsum(sizes) - sizes
    order = g.permutation(m)
    got = unpack_rows(buf, offsets[order], counts[order], widths[order])
    assert got.dtype == np.uint64
    assert np.array_equal(got, _flat([rows[k] for k in order]))
    for k in range(m):
        assert np.array_equal(unpack(buf, int(widths[k]), int(counts[k]), int(offsets[k])), rows[k])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_unpack_rows_back_to_back_rows(data):
    """Rows packed back to back in table order, as an encoder's table holds
    them: runs of one width (groups read as one strided view when every
    row but the last fills whole groups) mixed with width-0 rows and other
    widths; the table ends on the buffer's last byte."""
    runs = data.draw(st.lists(st.tuples(st.integers(0, 64), st.integers(1, 5)), min_size=1, max_size=4))
    widths = np.array([w for w, r in runs for _ in range(r)], dtype=np.int64)
    eights = data.draw(st.booleans())
    counts = np.array(
        [8 * data.draw(st.integers(1, 5)) if eights else data.draw(st.integers(1, 40)) for _ in widths],
        dtype=np.int64,
    )
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    top = [np.uint64((1 << int(w)) - 1) for w in widths]
    rows = [g.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True) & t for n, t in zip(counts, top)]
    buf = pack_rows(_flat(rows), counts, widths)
    sizes = bitpack.packed_size(counts, widths)
    offsets = np.cumsum(sizes) - sizes
    assert np.array_equal(unpack_rows(buf, offsets, counts, widths), _flat(rows))
    for k, w in enumerate(widths.tolist()):
        assert np.array_equal(unpack(buf, w, int(counts[k]), int(offsets[k])), rows[k])


def test_unpack_rows_from_a_serialized_table():
    """Offsets, counts and widths read back from a blob give every
    partition's stored deltas (the tail's too), bit for bit what the
    encoder's fit stored."""
    g = np.random.default_rng(11)
    v = np.r_[g.integers(-(2**63), 2**63 - 1, 300, dtype=np.int64, endpoint=True), np.arange(77)]
    L = 25
    t = EncodedSequence.from_bytes(LeCoFix(L).encode(v).to_bytes()).partitions
    m = len(v) // L
    got = unpack_rows(t.payload, t.payload_off, t.n, t.width)
    assert 64 in t.width[:m].tolist()
    starts = np.arange(0, len(v), L)
    stored = _fit_fix(v, starts, np.minimum(starts + L, len(v)))[4]
    assert np.array_equal(got, stored.view(np.uint64))


def test_unpack_rows_edges_and_bad_input():
    assert unpack_rows(b"", [], [], []).shape == (0,)
    assert unpack_rows(b"\xff", [0, 0], [0, 0], [3, 3]).shape == (0,)
    assert np.array_equal(unpack_rows(b"", [0, 0], [4, 4], [0, 0]), np.zeros(8, dtype=np.uint64))
    with pytest.raises(ValueError):
        unpack_rows(b"\x00" * 8, [0], [1], [65])
    with pytest.raises(ValueError):  # one offset per row
        unpack_rows(b"\x00" * 8, [0, 1], [1], [3])
    with pytest.raises(ValueError):
        unpack_rows(b"\x00" * 8, [0], [-1], [3])
    with pytest.raises(ValueError):
        unpack_rows(b"\x00" * 8, [-1], [1], [3])
    with pytest.raises(ValueError):  # 2^60 values could not fit, and 2^60 · 64 bits would overflow
        unpack_rows(b"\x00" * 8, [0], [2**60], [64])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_unpack_rows_short_branch_equals_lane_kernel(data):
    """Both branches of ``unpack_rows``, each value read on its own (one
    row of at most ``_SHORT`` values) and the lane kernel, return what
    ``pack_rows`` packed: widths 0..64 (each row with its top value), rows
    at any byte offset behind any head and read in any order, one row or
    many, a table that ends on the buffer's last byte; and both raise
    ``ValueError`` on a buffer cut inside a row or a width outside [0, 64]."""
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = data.draw(st.one_of(st.just(1), st.integers(1, 12)))
    rows, counts, widths = _ragged_rows(data, g, m)
    if data.draw(st.booleans()):  # the widest and narrowest rows side by side
        widths[: min(m, 2)] = [64, 0][: min(m, 2)]
        rows[0] = g.integers(0, 2**64 - 1, counts[0], dtype=np.uint64, endpoint=True)
        rows[1:2] = [np.zeros(counts[1], dtype=np.uint64)] if m > 1 else []
    head = data.draw(st.binary(max_size=9))
    body = pack_rows(_flat(rows), counts, widths)
    buf = head + body + data.draw(st.sampled_from([b"", b"\xff", bytes(9)]))
    sizes = bitpack.packed_size(counts, widths)
    offsets = len(head) + np.cumsum(sizes) - sizes
    order = g.permutation(m)
    args = offsets[order], counts[order], widths[order]
    cut = len(head) + data.draw(st.integers(0, len(body)))
    for short in (0, bitpack._SHORT):
        with mock.patch.object(bitpack, "_SHORT", short):
            got = unpack_rows(buf, *args)
            assert got.dtype == np.uint64 and np.array_equal(got, _flat([rows[k] for k in order]))
            if (offsets + sizes > cut).any():
                with pytest.raises(ValueError):
                    unpack_rows(buf[:cut], *args)
            for bad in (65, -1):  # a width outside [0, 64], in one row or among many
                with pytest.raises(ValueError):
                    unpack_rows(buf, args[0], args[1], np.where(np.arange(m) == m - 1, bad, args[2]))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_unpack_rows_rejects_truncated_rows(data):
    """A row whose packed bytes run past the buffer raises ``ValueError``,
    wherever the buffer is cut inside them; a row that ends on the cut
    reads back."""
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows, counts, widths = _ragged_rows(data, g, data.draw(st.integers(1, 6)))
    buf = pack_rows(_flat(rows), counts, widths)
    sizes = bitpack.packed_size(counts, widths)
    offsets, ends = np.cumsum(sizes) - sizes, np.cumsum(sizes)
    cut = data.draw(st.integers(0, len(buf)))
    inside = ends <= cut
    assert np.array_equal(unpack_rows(buf[:cut], offsets[inside], counts[inside], widths[inside]),
                          _flat([r for r, k in zip(rows, inside) if k]))
    if not inside.all():
        with pytest.raises(ValueError):
            unpack_rows(buf[:cut], offsets, counts, widths)
