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
from repro.core.leco import LeCoFix, LeCoVar, access_many
from repro.core.pla import LeCoAngle
from repro.datasets import INTEGER_DATASETS
from repro.parquet_sim.encodings import encode_chunk, gather_positions, parse_chunk

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


@pytest.mark.parametrize(
    "codec, theta0, theta1",
    [
        (FORCodec(4), 1.0, 0.0),  # FOR's line is θ0 = θ1 = 0
        (FORCodec(4), 0.0, -0.5),
        (DeltaFix(4), 1.0, -3.0),  # Delta: θ0 = 0, θ1 an integer in (−2^53, 0]
        (DeltaFix(4), 0.0, -0.5),
        (DeltaFix(4), 0.0, 1.0),
        (DeltaFix(4), 0.0, -(2.0**53)),
        (LeCoFix(4), 2.0**62, 0.5),  # a sloped line's ends inside ±2^62
        (LeCoFix(4), 2.0**62 - 2.0**10, 2.0**60),
        (LeCoFix(4), -(2.0**62), -0.5),
        (LeCoFix(4), 2.0**63, 0.0),  # a flat line's floor inside int64
        (LeCoFix(4), -(2.0**63) - 2.0**11, 0.0),
    ],
)
def test_rejects_models_no_encoder_writes(codec, theta0, theta1):
    """Finite models outside what the scheme's encoder writes raise
    ``ValueError``: their reads could not agree in int64."""
    blob = bytearray(_blob([5, 1, 9, 3], codec))
    struct.pack_into("<dd", blob, 17 + 4, theta0, theta1)  # the only partition's model
    with pytest.raises(ValueError, match="model"):
        EncodedSequence.from_bytes(bytes(blob))


@pytest.mark.parametrize(
    "codec, theta0, theta1",
    [(DeltaFix(4), 0.0, -(2.0**53) + 1), (LeCoFix(4), -(2.0**63), 0.0), (LeCoFix(4), 2.0**63 - 2.0**10, 0.0),
     (LeCoFix(4), 2.0**62 - 2.0**10, -(2.0**40))],
)
def test_accepts_models_at_the_domain_edges(codec, theta0, theta1):
    blob = bytearray(_blob([5, 1, 9, 3], codec))
    struct.pack_into("<dd", blob, 17 + 4, theta0, theta1)
    assert EncodedSequence.from_bytes(bytes(blob)).partitions.theta1[0] == theta1


def _header_bytes(blob: bytes) -> range:
    """Offsets of a serialized sequence's header bytes: the global header,
    the fixed length or starts, and the partition header array, all ahead
    of the payloads."""
    return range(EncodedSequence.from_bytes(blob).model_bytes())


@pytest.mark.parametrize("name", ["FOR-7", "LeCo-fix-7", "LeCo-var", "Delta-var"])
def test_header_array_layout(name):
    """The partition headers are one array of 29-byte records at ``17 + 4``
    (fixed) or ``17 + 4m`` (var), the payloads follow it at
    ``model_bytes()``, and a parsed table's payload is a view of the blob."""
    enc = CODECS[name].encode(_fuzz_column(120))
    t, m = enc.partitions, len(enc.partitions)
    blob = enc.to_bytes()
    at = 17 + (4 if enc.fixed_len is not None else 4 * m)
    assert m > 1 and enc.model_bytes() == at + 29 * m
    for k in range(m):
        row = (t.theta0[k], t.theta1[k], t.bias[k], t.width[k], t.payload_len[k])
        assert struct.unpack_from("<ddqBI", blob, at + 29 * k) == row
    assert blob[enc.model_bytes() :] == bytes(t.payload)
    parsed = EncodedSequence.from_bytes(blob).partitions.payload
    assert len(parsed) == len(t.payload)
    assert np.shares_memory(np.frombuffer(parsed, dtype=np.uint8), np.frombuffer(blob, dtype=np.uint8))


def _fuzz_column(n: int = 400) -> np.ndarray:
    """A rising walk with jumps, a flat run and a falling run: several
    partitions of every layout, some of width 0."""
    g = np.random.default_rng(7)
    walk = np.cumsum(g.integers(0, 50, n) + np.where(g.random(n) < 0.03, g.integers(-(10**6), 10**6, n), 0))
    return np.r_[walk, np.full(40, walk[-1]), walk[-1] - 3 * np.arange(40)].astype(np.int64)


_FUZZ_V = _fuzz_column()
_FUZZ = {name: CODECS[name].encode(_FUZZ_V).to_bytes() for name in CODECS}
_FUZZ_HEADERS = {name: _header_bytes(blob) for name, blob in _FUZZ.items()}
_FUZZ_CHUNKS = {
    "plain": encode_chunk(_FUZZ_V, "default"),
    "dict": encode_chunk(_FUZZ_V % 13, "default"),
}


@given(name=st.sampled_from(sorted(_FUZZ) + sorted(_FUZZ_CHUNKS)), data=st.data())
@settings(max_examples=600, deadline=None)
def test_corrupt_headers_raise_or_reads_agree(name, data):
    """One to three header bytes overwritten: the parser raises
    ``ValueError``, or every read returns int64 and they agree.  For a
    sequence: ``decode``, ``access_many`` (FOR and LeCo) and ``access`` at
    each position agree exactly, even where a corrupt bias pushes a value
    past int64 (every read wraps).  A corrupt length that would decode
    into more than twice the original values is read only at its first
    such positions.  For a plain or dictionary chunk: ``gather_positions``
    agrees with the parsed values."""
    chunk = name in _FUZZ_CHUNKS
    blob = bytearray(_FUZZ_CHUNKS[name] if chunk else _FUZZ[name])
    where = st.integers(0, 13) if chunk else st.sampled_from(_FUZZ_HEADERS[name])
    for at, byte in data.draw(st.lists(st.tuples(where, st.integers(0, 255)), min_size=1, max_size=3)):
        blob[at] = byte
    blob = bytes(blob)
    cap = 2 * len(_FUZZ_V)
    try:
        kind, obj = parse_chunk(blob) if chunk else ("seq", EncodedSequence.from_bytes(blob))
    except ValueError:
        return
    if kind != "seq":
        assert obj.dtype == np.int64
        p = np.arange(len(obj))
        assert np.array_equal(gather_positions(blob, p), obj)
        return
    enc = obj
    codec = CODECS[enc.scheme]
    p = np.arange(min(enc.n, cap))
    got = [codec.access(enc, i) for i in p.tolist()]
    assert all(isinstance(x, int) and I64_MIN <= x <= I64_MAX for x in got)
    reads = [access_many(enc, p)] if not enc.scheme.startswith("Delta") else []
    if enc.n <= cap:
        reads.append(codec.decode(enc))
    for r in reads:
        assert r.dtype == np.int64 and r.tolist() == got


@pytest.mark.parametrize("codec", [FORCodec(4), LeCoFix(4)], ids=["FOR", "LeCo-fix"])
def test_corrupt_bias_reads_wrap_alike(codec):
    """A bias near 2^63 passes the parser (a real partition can hold it) and
    pushes ``bias + delta`` past int64: ``access`` wraps as ``decode`` and
    ``access_many`` do."""
    blob = bytearray(_blob([5, 1, 9, 3], codec))
    struct.pack_into("<q", blob, 17 + 4 + 16, I64_MAX)  # the only partition's bias
    enc = EncodedSequence.from_bytes(bytes(blob))
    got = [codec.access(enc, i) for i in range(4)]
    assert max(got) <= I64_MAX and min(got) < 0  # wrapped
    assert codec.decode(enc).tolist() == access_many(enc, np.arange(4)).tolist() == got


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
    part = leco._decode_partition if codec is not DeltaFix else lambda t, k: delta_codec._decode_prefixes(t, [k], [t.n[k]])
    parts = [part(enc.partitions, k) for k in range(len(enc.partitions))]
    want = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    assert got.dtype == np.int64
    assert np.array_equal(got, want) and np.array_equal(got, v)


@given(
    values=st.one_of(
        int64_columns(),
        st.lists(st.integers(I64_MIN, I64_MAX), min_size=30, max_size=200),
        st.lists(st.integers(-1000, 1000), max_size=200),
    ),
    codec=st.sampled_from([LeCoVar, LeCoAngle, DeltaVar]),
)
@settings(max_examples=200, deadline=None)
def test_var_decode_table_equals_per_partition_decode(values, codec):
    """A variable-length layout decodes in one block read exactly as its
    partitions do one at a time, for blobs read back from bytes: partitions
    of any length, one value and ``n == 0`` included."""
    v = np.asarray(values, dtype=np.int64)
    enc = EncodedSequence.from_bytes(codec().encode(v).to_bytes())
    got = codec().decode(enc)
    assert "access_rows" not in vars(enc.partitions)  # no per-partition header tuples
    part = leco._decode_partition if codec is not DeltaVar else lambda t, k: delta_codec._decode_prefixes(t, [k], [t.n[k]])
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
