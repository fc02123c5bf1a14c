"""Unit tests for the bit-packing substrate (core/bitpack)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

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
from repro.core.leco import LeCoFix, _fit_linear


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


@given(data=st.data(), width=st.integers(0, 64))
@settings(max_examples=200, deadline=None)
def test_unpack_range_matches_full_unpack(data, width):
    """``unpack`` from a bit offset reads exactly the matching slice of a
    full unpack, for an array packed at any byte offset inside a larger
    buffer, including ranges that end on the buffer's last byte."""
    top = (1 << width) - 1
    n = data.draw(st.integers(0, 80))
    values = data.draw(st.lists(st.one_of(st.integers(0, top), st.just(top)), min_size=n, max_size=n))
    v = np.array(values, dtype=np.uint64)
    head = data.draw(st.binary(max_size=9))
    tail = data.draw(st.sampled_from([b"", b"\xff", bytes(9)]))
    buf = head + pack(v, width) + tail
    a = data.draw(st.integers(0, n))
    b = data.draw(st.one_of(st.just(n), st.integers(a, n)))
    got = unpack(buf, width, b - a, len(head) * 8 + a * width)
    assert got.dtype == np.uint64
    assert np.array_equal(got, unpack(buf[len(head) :], width, n)[a:b])
    assert np.array_equal(got, v[a:b])


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
        assert np.array_equal(unpack(buf, w, len(r), off * 8), r)
    # rows of one count come back from one block read
    for n in set(counts):
        ks = [k for k in range(m) if counts[k] == n]
        got = unpack_rows(buf, offsets[ks], n, np.array(widths)[ks])
        assert np.array_equal(got, np.array([rows[k] for k in ks], dtype=np.uint64).reshape(len(ks), n))


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


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_unpack_rows_inverts_pack_rows(data):
    """``unpack_rows`` returns exactly what ``pack_rows`` packed, rows placed
    anywhere in a buffer, for widths 0..64 (64 at full range), a single
    row, counts not a multiple of 8 and rows split across blocks."""
    m = data.draw(st.integers(1, 6))
    count = data.draw(st.integers(1, 40))
    widths = data.draw(st.lists(st.integers(0, 64), min_size=m, max_size=m))
    seed = data.draw(st.integers(0, 2**32 - 1))
    block = data.draw(st.sampled_from([8, 16, 64, bitpack._BLOCK_VALUES]))
    g = np.random.default_rng(seed)
    rows = g.integers(0, 2**64 - 1, (m, count), dtype=np.uint64, endpoint=True)
    rows &= np.array([(1 << w) - 1 for w in widths], dtype=np.uint64)[:, None]
    rows[:, 0] = [(1 << w) - 1 for w in widths]  # each row's top value
    head = data.draw(st.binary(max_size=9))
    buf = head + pack_rows(rows.reshape(-1), [count] * m, widths) + data.draw(st.sampled_from([b"", b"\xff", bytes(9)]))
    sizes = bitpack.packed_size(count, np.array(widths))
    offsets = len(head) + np.cumsum(sizes) - sizes
    # rows in any order: each is read from its own offset
    order = g.permutation(m)
    with mock.patch.object(bitpack, "_BLOCK_VALUES", block):
        got = unpack_rows(buf, offsets[order], count, np.array(widths)[order])
    assert got.dtype == np.uint64 and got.shape == (m, count)
    assert np.array_equal(got, rows[order])
    for k in range(m):
        assert np.array_equal(got[k], unpack(buf, widths[order[k]], count, int(offsets[order[k]]) * 8))


def test_unpack_rows_from_a_serialized_table():
    """Offsets and widths read back from a blob give each full partition's
    stored deltas, bit for bit what the encoder's fit stored."""
    g = np.random.default_rng(11)
    v = np.r_[g.integers(-(2**63), 2**63 - 1, 300, dtype=np.int64, endpoint=True), np.arange(77)]
    L = 25
    t = EncodedSequence.from_bytes(LeCoFix(L).encode(v).to_bytes()).partitions
    m = len(v) // L
    got = unpack_rows(t.payload, t.payload_off[:m], L, t.width[:m])
    assert 64 in t.width[:m].tolist()
    assert np.array_equal(got, _fit_linear(v[: m * L].reshape(m, L), L)[4].view(np.uint64))


def test_unpack_rows_edges_and_bad_input():
    assert unpack_rows(b"", [], 5, []).shape == (0, 5)
    assert unpack_rows(b"\xff", [0, 0], 0, [3, 3]).shape == (2, 0)
    assert np.array_equal(unpack_rows(b"", [0, 0], 4, [0, 0]), np.zeros((2, 4), dtype=np.uint64))
    with pytest.raises(ValueError):
        unpack_rows(b"\x00" * 8, [0], 1, [65])
    with pytest.raises(ValueError):
        unpack_rows(b"\x00" * 8, [0, 1], 1, [3])
