"""LeCo string extension tests (§3.4)."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.fsst import FSSTLite
from repro.core.string_codec import StringLeCo, _common_prefix, lower_bound
from repro.datasets import STRING_DATASETS


def test_common_prefix():
    assert _common_prefix(["abcde", "abcxy", "abczz"]) == "abc"
    assert _common_prefix(["xyz"]) == "xyz"
    assert _common_prefix(["a", "b"]) == ""


@pytest.mark.parametrize("dataset", list(STRING_DATASETS))
@pytest.mark.parametrize("pow2", [False, True])
def test_roundtrip(dataset, pow2):
    strings = STRING_DATASETS[dataset](1500)
    codec = StringLeCo(partition_len=128, pow2_base=pow2)
    enc = codec.encode(strings)
    assert codec.decode(enc) == strings
    assert 0 < enc.ratio() < 3


@pytest.mark.parametrize("dataset", list(STRING_DATASETS))
def test_random_access(dataset):
    strings = STRING_DATASETS[dataset](800)
    codec = StringLeCo(partition_len=100)
    enc = codec.encode(strings)
    g = np.random.default_rng(0)
    for i in g.integers(0, len(strings), 30):
        assert codec.access(enc, int(i)) == strings[i]


@pytest.mark.parametrize("codec", [StringLeCo(partition_len=200), FSSTLite(), FSSTLite(offset_block=40)],
                         ids=["LeCo-str", "FSST", "FSST-40"])
def test_access_outside_raises(codec):
    """``access`` raises ``IndexError`` outside ``[0, n)``, as every integer
    codec does, rather than reading a padding slot of the last partition
    or wrapping a negative position."""
    strings = [f"user{k:03d}" for k in range(250)]
    enc = codec.encode(strings)
    assert [codec.access(enc, i) for i in (0, 249)] == ["user000", "user249"]
    for i in (250, 399, -1, -250):
        with pytest.raises(IndexError):
            codec.access(enc, i)


def test_variable_lengths_roundtrip():
    strings = sorted(["a", "ab", "abc", "b", "bb", "bcdefgh", "c", "ccc"])
    codec = StringLeCo(partition_len=4)
    enc = codec.encode(codec_input := strings)
    assert codec.decode(enc) == codec_input


def test_identical_strings():
    strings = ["same"] * 50
    codec = StringLeCo(partition_len=10)
    enc = codec.encode(strings)
    assert codec.decode(enc) == strings
    # all-equal partitions need ~no delta bits
    assert all(p.delta_width == 0 for p in enc.partitions)


def test_prefix_extraction_reduces_size():
    strings = [f"verylongcommonprefix{i:06d}" for i in range(400)]
    with_prefix = StringLeCo(partition_len=100).encode(strings)
    assert all(p.prefix.startswith("verylongcommonprefix") for p in with_prefix.partitions)
    # digits-only charset after prefix strip
    assert all(set(p.charset) <= set("0123456789") for p in with_prefix.partitions)
    assert with_prefix.ratio() < 0.3


def test_pow2_base_is_power_of_two():
    strings = [f"k{i:05d}" for i in range(300)]
    enc = StringLeCo(partition_len=64, pow2_base=True).encode(strings)
    for p in enc.partitions:
        assert p.base & (p.base - 1) == 0
        assert p.base >= len(p.charset)


def test_arithmetic_strings_compress_extremely():
    """Zero-padded counters are a perfect linear pattern in integer space."""
    strings = [f"{i:08d}" for i in range(0, 5000, 3)]
    enc = StringLeCo(partition_len=256).encode(strings)
    assert enc.ratio() < 0.1


def test_mapped_value_monotone_on_sorted_input():
    strings = sorted({f"{i*7 % 9973:06d}" for i in range(2000)})
    codec = StringLeCo(partition_len=128)
    enc = codec.encode(strings)
    # within each partition, mapped padded integers must be non-decreasing
    L = enc.partition_len
    for k in range(len(enc.partitions)):
        lo = k * L
        hi = min(len(strings), lo + L)
        vals = [codec.mapped_value(enc, i) for i in range(lo, hi)]
        assert vals == sorted(vals)


def test_map_query_brackets_stored_values():
    strings = [f"abc{i:04d}" for i in range(500)]
    codec = StringLeCo(partition_len=100)
    enc = codec.encode(strings)
    p = enc.partitions[2]  # strings 200..299
    q = codec.map_query(p, "abc0250")
    lo = codec.mapped_value(enc, 249)
    hi = codec.mapped_value(enc, 251)
    assert lo < q < hi


def test_map_query_out_of_prefix():
    strings = [f"zz{i:03d}" for i in range(100)]
    codec = StringLeCo(partition_len=100)
    enc = codec.encode(strings)
    p = enc.partitions[0]
    assert codec.map_query(p, "aaa") < codec.mapped_value(enc, 0)
    assert codec.map_query(p, "zzz999") > codec.mapped_value(enc, 99)


def test_empty_input_raises():
    with pytest.raises(ValueError):
        StringLeCo().encode([])


def test_unsorted_strings_still_roundtrip():
    """Order preservation is about the mapping, not a sortedness demand."""
    strings = ["pear", "apple", "fig", "banana", "fig", "apple"]
    codec = StringLeCo(partition_len=3)
    enc = codec.encode(strings)
    assert codec.decode(enc) == strings


@st.composite
def _partition_queries(draw):
    """One sorted partition of latin-1 keys sharing a drawn prefix, and
    queries around it: stored keys; keys extended by the smallest charset
    byte (the same min-padded integer, told apart by the length alone) or
    by any bytes, past W included; truncations of keys, into the prefix
    included; any bytes (outside the prefix and the charset); the empty
    query; and bytes just below and above the prefix."""
    alphabet = draw(st.lists(st.integers(0, 255), min_size=1, max_size=8, unique=True))
    word = st.lists(st.sampled_from(alphabet), max_size=6).map(bytes)
    prefix = draw(word)
    keys = sorted(prefix + w for w in draw(st.lists(word, min_size=1, max_size=40)))
    stored = st.sampled_from(keys)
    low = bytes([min(alphabet)])
    queries = draw(st.lists(st.one_of(
        stored,
        stored.map(lambda k: k + low),
        st.tuples(stored, st.binary(max_size=10)).map(lambda t: t[0] + t[1]),
        st.tuples(stored, st.integers(0, 12)).map(lambda t: t[0][: t[1]]),
        st.binary(max_size=12),
    ), min_size=1, max_size=30))
    edges = [b""]
    if prefix:
        edges += [prefix[:-1] + bytes([prefix[-1] - 1]) + b"\xff" if prefix[-1] else prefix[:-1],
                  prefix[:-1] + bytes([min(prefix[-1] + 1, 255)])]
    return keys, queries + edges


@given(pq=_partition_queries(), pow2=st.booleans())
# in base 2, "z" above the charset carries "az" onto "b"'s integer, and only the length breaks the tie
@example(pq=([b"a", b"b", b"bb"], [b"az"]), pow2=False)
@settings(max_examples=300, deadline=None)
def test_lower_bound_decides_as_order_keys(pq, pow2):
    """``lower_bound`` agrees with the reference at every position of a
    partition: ``i < lower_bound(p, s)`` exactly where
    ``mapped_value(enc, i) < map_query(p, s)``, and the bound is the number
    of keys below the query, as ``bisect_left`` over the keys finds it."""
    keys, queries = pq
    codec = StringLeCo(partition_len=len(keys), pow2_base=pow2)
    enc = codec.encode([k.decode("latin1") for k in keys])
    (p,) = enc.partitions
    order = [codec.mapped_value(enc, i) for i in range(len(keys))]
    for q in queries:
        ref = codec.map_query(p, q.decode("latin1"))
        at = lower_bound(p, q)
        assert [i < at for i in range(len(keys))] == [o < ref for o in order], q
        assert at == sum(k < q for k in keys), q


class _CountedBytes(bytes):
    """Bytes that count the slices read from them."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("pow2", [False, True])
def test_lower_bound_reads_lengths_only_near_a_tie(pow2):
    """A probe whose stored integer lies below the query's is decided
    without reading the length: a query above every key reads no length,
    and seeks of the stored keys read fewer lengths than deltas."""
    keys = [b"user%06d" % k for k in range(0, 6400, 100)]
    enc = StringLeCo(partition_len=len(keys), pow2_base=pow2).encode([k.decode("latin1") for k in keys])
    (p,) = enc.partitions
    deltas, lengths = _CountedBytes(p.deltas), _CountedBytes(p.lengths)
    p = dataclasses.replace(p, deltas=deltas, lengths=lengths)
    assert lower_bound(p, b"user009") == len(keys)  # "9" is above the charset
    assert deltas.reads > 0 and lengths.reads == 0
    assert [lower_bound(p, k) for k in keys] == list(range(len(keys)))
    assert 0 < lengths.reads < deltas.reads
