"""The columnar partition table and its serialized form: malformed blobs are
rejected with ``ValueError``, empty input round-trips as zero partitions,
every codec on the shared layout is lossless over the full int64 range
(differential property tests against the input itself), and the size model
the fixed-length search minimizes is the serialized size."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import delta_codec
from repro.baselines.delta_codec import DeltaFix, DeltaVar
from repro.baselines.for_codec import FORCodec
from repro.core import leco
from repro.core.format import EncodedSequence
from repro.core.leco import LeCoFix, LeCoVar
from repro.core.pla import LeCoAngle
from repro.datasets import INTEGER_DATASETS

CODECS = {
    "FOR": FORCodec(),
    "FOR-7": FORCodec(7),
    "LeCo-fix": LeCoFix(),
    "LeCo-fix-7": LeCoFix(7),
    "LeCo-var": LeCoVar(),
    "LeCo-angle": LeCoAngle(),
    "Delta-fix": DeltaFix(),
    "Delta-var": DeltaVar(),
}

I64_MIN, I64_MAX = -(2**63), 2**63 - 1
EXTREMES = [I64_MIN, I64_MIN + 1, -(2**62), -1, 0, 1, 2**53 + 1, 2**62, I64_MAX - 1, I64_MAX]


def _blob(values, codec=None):
    return (codec or LeCoFix(4)).encode(np.asarray(values, dtype=np.int64)).to_bytes()


def _check_lossless(codec, values):
    v = np.asarray(values, dtype=np.int64)
    enc = codec.encode(v)
    assert len(enc.to_bytes()) == enc.nbytes()
    dec = EncodedSequence.from_bytes(enc.to_bytes())
    assert dec.to_bytes() == enc.to_bytes()
    assert np.array_equal(codec.decode(dec), v)
    for i in {0, len(v) // 2, len(v) - 1} if len(v) else ():
        assert codec.access(dec, i) == v[i], f"position {i}"
    if len(v) and hasattr(codec, "decode_range"):
        a, b = len(v) // 3, len(v)
        assert np.array_equal(codec.decode_range(dec, a, b), v[a:b])


# -- malformed blobs ---------------------------------------------------------

def test_rejects_bad_magic():
    blob = _blob(np.arange(10))
    with pytest.raises(ValueError, match="magic"):
        EncodedSequence.from_bytes(b"XX" + blob[2:])


def test_rejects_unknown_scheme():
    blob = bytearray(_blob(np.arange(10)))
    blob[2] = 200
    with pytest.raises(ValueError, match="scheme"):
        EncodedSequence.from_bytes(bytes(blob))


def test_rejects_width_over_64():
    blob = bytearray(_blob(np.arange(10) * 3 % 7))
    blob[17 + 4 + 24] = 65  # first partition header's width byte
    with pytest.raises(ValueError, match="width"):
        EncodedSequence.from_bytes(bytes(blob))


@pytest.mark.parametrize("field_at", [0, 8], ids=["theta0", "theta1"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_rejects_non_finite_model(field_at, value):
    blob = bytearray(_blob(np.arange(10) * 3 % 7))
    struct.pack_into("<d", blob, 17 + 4 + field_at, value)  # first partition header
    with pytest.raises(ValueError, match="non-finite"):
        EncodedSequence.from_bytes(bytes(blob))


def test_rejects_payload_length_mismatch():
    blob = bytearray(_blob([5, 1, 9, 3], LeCoFix(4)))
    at = 17 + 4 + 25  # the only partition's payload_len field
    blob[at] += 1
    with pytest.raises(ValueError, match="payload length"):
        EncodedSequence.from_bytes(bytes(blob) + b"\0")


def test_rejects_every_truncation_and_trailing_bytes():
    for blob in (_blob(np.arange(50) ** 2 % 97), _blob(np.arange(300) % 31, LeCoVar())):
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                EncodedSequence.from_bytes(blob[:cut])
        with pytest.raises(ValueError, match="trailing"):
            EncodedSequence.from_bytes(blob + b"\0")


def test_rejects_zero_filled_header():
    with pytest.raises(ValueError):
        EncodedSequence.from_bytes(b"\0" * 40)


def test_rejects_partition_count_beyond_blob():
    """A corrupt count is refused before anything is allocated per partition."""
    blob = struct.pack("<2sBBqBI", b"LC", 0, 1, 2**32 - 1, 64, 2**32 - 1) + struct.pack("<I", 1)
    with pytest.raises(ValueError, match="truncated"):
        EncodedSequence.from_bytes(blob)


def test_rejects_unordered_var_starts():
    blob = bytearray(_blob(np.r_[np.zeros(100), np.arange(100) * 1000], LeCoVar()))
    assert blob[17:21] == b"\0\0\0\0"  # starts[0]
    blob[17] = 1
    with pytest.raises(ValueError, match="starts"):
        EncodedSequence.from_bytes(bytes(blob))


# -- empty, single and full-range input --------------------------------------

@pytest.mark.parametrize("name", list(CODECS))
def test_empty_roundtrip(name):
    codec = CODECS[name]
    enc = codec.encode(np.array([], dtype=np.int64))
    assert len(enc.partitions) == 0
    dec = EncodedSequence.from_bytes(enc.to_bytes())
    assert len(dec.partitions) == 0 and dec.n == 0
    out = codec.decode(dec)
    assert out.dtype == np.int64 and len(out) == 0


@pytest.mark.parametrize("name", list(CODECS))
def test_full_range_int64(name):
    """Spreads beyond 2^63 used to clamp FOR/LeCo-fix widths to 0, and
    LeCo-fix's horizontal line lost the low bits of minima beyond 2^53."""
    g = np.random.default_rng(3)
    full = g.integers(I64_MIN, I64_MAX, 300, dtype=np.int64, endpoint=True)
    near_top = (2**60 + 3 + np.sort(g.integers(0, 1000, 300))).astype(np.int64)
    for v in (np.array(EXTREMES * 5), full, near_top, np.r_[full[:100], near_top]):
        _check_lossless(CODECS[name], v)


@pytest.mark.parametrize("codec", [DeltaFix(), DeltaFix(7), DeltaVar()], ids=["fix", "fix-7", "var"])
def test_delta_difference_bias_beyond_2_53(codec):
    """A partition whose difference bias float θ1 cannot hold exactly stores
    its wrapping differences at width 64 with bias 0, and round-trips."""
    drop = np.arange(200, dtype=np.int64)
    drop[100:] -= 2**60  # a sorted run with one −2^60 step
    for v in (np.array([0, 2**62, -(2**62), 5]), drop):
        _check_lossless(codec, v)


@st.composite
def int64_columns(draw):
    if draw(st.booleans()):
        items = st.one_of(st.integers(I64_MIN, I64_MAX), st.sampled_from(EXTREMES), st.integers(-50, 50))
        return draw(st.lists(items, max_size=120))
    # a smooth run at any offset: long, near-linear partitions
    base = draw(st.integers(I64_MIN, I64_MAX))
    steps = draw(st.lists(st.integers(0, 2000), max_size=120))
    return [min(base + s, I64_MAX) for s in np.cumsum(steps, dtype=object)]


@given(values=int64_columns(), name=st.sampled_from(list(CODECS)))
@settings(max_examples=300, deadline=None)
def test_roundtrip_property(values, name):
    _check_lossless(CODECS[name], values)


# -- full decode: one block of full partitions, then the tail as one row -------

@given(
    values=st.one_of(
        int64_columns(),
        st.lists(st.integers(I64_MIN, I64_MAX), min_size=30, max_size=200),
        st.lists(st.integers(-1000, 1000), max_size=200),
    ),
    codec=st.sampled_from([FORCodec, LeCoFix, DeltaFix]),
    L=st.integers(1, 40),
)
@settings(max_examples=300, deadline=None)
def test_decode_table_equals_per_partition_decode(values, codec, L):
    """Decoding the full partitions as one block and the tail as a one-row
    block gives exactly the concatenated per-partition decodes, for blobs
    read back from bytes: a tail shorter than ``L``, ``n < L`` and ``n == 0``
    included."""
    v = np.asarray(values, dtype=np.int64)
    enc = EncodedSequence.from_bytes(codec(L).encode(v).to_bytes())
    got = codec().decode(enc)
    assert "access_rows" not in vars(enc.partitions)  # no per-partition header tuples
    part = delta_codec._decode_partition if codec is DeltaFix else leco._decode_partition
    parts = [part(enc.partitions, k) for k in range(len(enc.partitions))]
    want = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    assert got.dtype == np.int64
    assert np.array_equal(got, want) and np.array_equal(got, v)


# -- the size model the fixed-length search minimizes -------------------------

@pytest.mark.parametrize("codec", [FORCodec, LeCoFix, DeltaFix], ids=lambda c: c.name)
@pytest.mark.parametrize("dataset", ["normal", "ml", "books", "movieid", "full-range"])
def test_size_model_is_serialized_size(codec, dataset, monkeypatch):
    """The cost each candidate partition length gets in the search is the
    serialized size less the global header (17 bytes), ``fixed_len`` (4)
    and each partition's ``payload_len`` (4)."""
    if dataset == "full-range":
        v = np.random.default_rng(5).integers(I64_MIN, I64_MAX, 5000, dtype=np.int64, endpoint=True)
    else:
        v = INTEGER_DATASETS[dataset](5000)[0]
    costs = []
    monkeypatch.setattr(leco, "search_fixed_length", lambda values, cost_of: costs.append(cost_of) or 16)
    codec().encode(v)
    for L in (16, 100, 1000, 4096):
        enc = codec(L).encode(v)
        assert costs[0](v, L) == enc.nbytes() - 17 - 4 - 4 * len(enc.partitions), L
