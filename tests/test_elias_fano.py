"""Elias-Fano baseline tests, including the paper's §4.1 worked example."""
import numpy as np
import pytest

from repro.baselines.elias_fano import EliasFano


def test_paper_worked_example():
    """§4.1: 00000,00011,01101,10000,10010,10011,11010,11101 — n=8 values in
    a 5-bit universe → l = floor(log2(u/n)) = 2 low bits explicit."""
    v = np.array([0b00000, 0b00011, 0b01101, 0b10000, 0b10010, 0b10011, 0b11010, 0b11101])
    ef = EliasFano()
    enc = ef.encode(v, dtype_bits=32)
    assert enc.l == 2
    assert np.array_equal(ef.decode(enc), v)
    for i in range(8):
        assert ef.access(enc, i) == v[i]


def test_rejects_unsorted():
    with pytest.raises(ValueError):
        EliasFano().encode(np.array([3, 1, 2]))


def test_empty_roundtrip():
    ef = EliasFano()
    out = ef.decode(ef.encode(np.array([], dtype=np.int64)))
    assert out.dtype == np.int64 and len(out) == 0


def test_repeats_allowed():
    v = np.array([5, 5, 5, 9, 9, 100])
    ef = EliasFano()
    enc = ef.encode(v)
    assert np.array_equal(ef.decode(enc), v)
    assert ef.access(enc, 2) == 5


def test_dense_sequence_low_bits_zero():
    v = np.arange(1000, dtype=np.int64)
    ef = EliasFano()
    enc = ef.encode(v)
    assert enc.l == 0  # u == n → no explicit low bits
    assert np.array_equal(ef.decode(enc), v)


def test_quasi_succinct_bound():
    """EF uses ≤ 2 + ceil(log2(u/n)) bits per element (+ directory)."""
    g = np.random.default_rng(5)
    v = np.sort(g.integers(0, 10**9, 50_000))
    ef = EliasFano()
    enc = ef.encode(v, dtype_bits=64)
    u = int(v[-1] - v[0]) + 1
    bound_bits = len(v) * (2 + int(np.ceil(np.log2(u / len(v)))))
    assert enc.nbytes() * 8 <= bound_bits * 1.4 + 512  # 1.4: rank directory


def test_access_across_large_range():
    g = np.random.default_rng(6)
    v = np.sort(g.integers(0, 2**40, 20_000))
    ef = EliasFano()
    enc = ef.encode(v, dtype_bits=64)
    for i in g.integers(0, len(v), 50):
        assert ef.access(enc, int(i)) == v[i]


def test_negative_base():
    v = np.sort(np.array([-100, -50, -49, 0, 7]))
    ef = EliasFano()
    enc = ef.encode(v)
    assert np.array_equal(ef.decode(enc), v)


def test_full_range_sorted_pair():
    """The sortedness check must not wrap: 2^63 − 1 − (−2^63) overflows int64."""
    ef = EliasFano()
    v = np.array([-(2**63), 2**63 - 1], dtype=np.int64)
    enc = ef.encode(v)
    assert np.array_equal(ef.decode(enc), v)
    assert [ef.access(enc, i) for i in range(2)] == v.tolist()
