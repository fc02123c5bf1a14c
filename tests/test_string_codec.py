"""LeCo string extension tests (§3.4)."""
import numpy as np
import pytest

from repro.core.string_codec import StringLeCo, _common_prefix
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
