"""Column-chunk encodings for the Parquet-like store (§5.1).

Three options, as in the paper's experiments:

* ``default`` — Parquet's default: dictionary encoding with bit-packed
  codes, falling back to plain (raw little-endian int64) when the
  dictionary grows too large;
* ``for`` — Frame-of-Reference with a fixed partition size;
* ``leco`` — LeCo-fix with a fixed partition size.

A chunk blob is self-describing: 1 tag byte + payload.  FOR/LeCo payloads
are the §3.3 ``EncodedSequence`` format, so partition headers are available
for skipping without decoding deltas.
"""
from __future__ import annotations

import struct

import numpy as np

from ..baselines.for_codec import FORCodec
from ..core.format import EncodedSequence
from ..core.leco import LeCoFix, access_many
from ..core.bitpack import bits_needed, pack, unpack

TAG_PLAIN, TAG_DICT, TAG_SEQ = 0, 1, 2
_DICT_MAX = 65_536  # Parquet-style dictionary fallback threshold


def encode_chunk(values: np.ndarray, encoding: str, partition_len: int = 10_000) -> bytes:
    v = np.asarray(values, dtype=np.int64)
    if encoding == "default":
        uniq, codes = np.unique(v, return_inverse=True)
        if len(uniq) <= _DICT_MAX and len(uniq) < len(v) // 2:
            width = bits_needed(len(uniq) - 1)
            payload = pack(codes.astype(np.uint64), width)
            return (
                bytes([TAG_DICT])
                + struct.pack("<qiB", len(v), len(uniq), width)
                + uniq.tobytes()
                + payload
            )
        return bytes([TAG_PLAIN]) + struct.pack("<q", len(v)) + v.tobytes()
    codec = FORCodec(partition_len) if encoding == "for" else LeCoFix(partition_len)
    if encoding not in ("for", "leco"):
        raise ValueError(f"unknown encoding {encoding!r}")
    return bytes([TAG_SEQ]) + codec.encode(v, dtype_bits=64).to_bytes()


def _header(fmt: str, blob: bytes) -> tuple:
    """The fixed header ``fmt`` that follows the tag byte."""
    if len(blob) < 1 + struct.calcsize(fmt):
        raise ValueError(f"chunk of {len(blob)} bytes is shorter than its header")
    return struct.unpack_from(fmt, blob, 1)


def parse_chunk(blob: bytes):
    """Return ``("plain"|"dict", np.ndarray)`` or ``("seq", EncodedSequence)``.

    Raises ``ValueError`` on a blob no encoder writes: an empty or truncated
    chunk, or a dictionary code beyond the dictionary."""
    if not blob:
        raise ValueError("empty chunk")
    tag = blob[0]
    if tag == TAG_PLAIN:
        (n,) = _header("<q", blob)
        if n < 0:
            raise ValueError(f"negative value count {n}")
        # .copy(): a real plain decoder materializes values out of the page
        # buffer; zero-copy views would understate Default's decode cost.
        return "plain", np.frombuffer(blob, dtype=np.int64, count=n, offset=9).copy()
    if tag == TAG_DICT:
        n, ndv, width = _header("<qiB", blob)
        if n < 0 or ndv < 0 or width > 64:
            raise ValueError(f"bad dictionary header: n={n}, ndv={ndv}, width={width}")
        off = 1 + 13
        uniq = np.frombuffer(blob, dtype=np.int64, count=ndv, offset=off)
        codes = unpack(blob, width, n, (off + 8 * ndv) * 8)
        if n and int(codes.max()) >= ndv:
            raise ValueError(f"dictionary code {int(codes.max())} beyond the {ndv}-entry dictionary")
        return "dict", uniq[codes.astype(np.int64)]
    return "seq", EncodedSequence.from_bytes(blob[1:])


def decode_chunk(blob: bytes) -> np.ndarray:
    kind, obj = parse_chunk(blob)
    if kind in ("plain", "dict"):
        return np.asarray(obj)
    from ..core.codec_api import get_codec

    return get_codec(obj.scheme).decode(obj)


def gather_positions(blob: bytes, positions: np.ndarray) -> np.ndarray:
    """Decode only the values at ``positions`` (chunk-local).

    FOR/LeCo chunks read each value with one model inference and one delta
    fetch (``access_many``, LeCo/FOR's §4.3.2 access path); plain/dict
    chunks must materialize everything first (the Default cost the paper
    measures)."""
    kind, obj = parse_chunk(blob)
    if kind == "seq":
        return access_many(obj, positions)
    return np.asarray(obj)[positions]
