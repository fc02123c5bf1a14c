"""LeCo-specific behavioural tests: format invariants, range decode, exact
model inference, and paper-claimed dominance properties."""
import numpy as np
import pytest

from repro.core.format import EncodedSequence, PARTITION_HEADER_BYTES
from repro.core.leco import LeCoFix, LeCoVar
from repro.datasets import INTEGER_DATASETS


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
