"""Self-describing storage format for Model+Delta encodings (§3.3, Fig 7).

One :class:`EncodedSequence` holds global metadata and a
:class:`PartitionTable`: the paper's table of partition headers read as
columns.  Row ``k`` of the table is partition ``k``'s model ``(θ0, θ1)``,
integer bias, delta bit-width, length and the offset of its bit-packed
delta array inside one shared payload buffer.  Encoders fill the columns
with a few vectorized calls (``bitpack.pack_rows`` packs every partition of
one width at once); decoders read a partition's scalars from ``access_rows``.

Deltas are stored unsigned relative to the explicit integer bias
(``v = floor(θ0 + θ1·i) + bias + delta``).  The paper instead stores signed
deltas of width φ; an explicit 8-byte bias per partition carries the same
information the in-band sign bits would, with exact integer arithmetic even
for values beyond float64 precision (e.g. 2⁵⁵-scale IDs).  FOR is the
θ0 = θ1 = 0 case.  Delta encoding stores ``n − 1`` first differences per
partition instead of ``n`` deltas (see ``baselines/delta_codec.py``).

Byte layout (``to_bytes``/``from_bytes``):

    magic(2) scheme_id(1) flags(1) n(8) dtype_bits(1) n_parts(4)
    [fixed_len(4)]                 # flags bit0: fixed-length partitions
    [starts: n_parts × uint32]     # otherwise, variable-length
    per partition:
        theta0(f64) theta1(f64) bias(i64) width(1) payload_len(4) payload(...)

``to_bytes`` writes all partition headers and payloads with one scatter;
``from_bytes`` walks the ``payload_len`` fields, gathers the headers into
the table and keeps the payloads as a view of the blob.  The serialized
length is what every compression-ratio measurement reports.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bitpack import packed_size

MAGIC = b"LC"
_SCHEMES = ["LeCo-fix", "LeCo-var", "FOR", "Delta-fix", "Delta-var", "LeCo-angle"]

_GLOBAL_HDR = struct.Struct("<2sBBqBI")
_U32 = struct.Struct("<I")
#: one serialized partition header, ``<ddqBI``: 29 bytes, no padding.
_PART_HDR = np.dtype(
    [("theta0", "<f8"), ("theta1", "<f8"), ("bias", "<i8"), ("width", "u1"), ("payload_len", "<u4")]
)

#: per-partition header cost in bytes: θ0 + θ1 + bias + width byte.
PARTITION_HEADER_BYTES = 25


@dataclass(eq=False)
class PartitionTable:
    """Partition headers as parallel arrays over one payload buffer.

    For Delta encoding, ``bias`` holds the first value, ``theta1`` the
    per-step bias of the stored differences, and the payload holds first
    differences rather than positional deltas; for FOR, ``bias`` is the
    frame minimum.  The scheme id tells the decoder which interpretation
    applies (all integer anchors live in the exact int64 ``bias`` column
    because float64 rounds beyond 2^53).
    """

    theta0: np.ndarray  # float64
    theta1: np.ndarray  # float64
    bias: np.ndarray  # int64
    width: np.ndarray  # uint8, delta bit-width
    n: np.ndarray  # int64, values in the partition
    payload_off: np.ndarray  # int64, byte offset of the packed deltas in ``payload``
    payload_len: np.ndarray  # int64, bytes of packed deltas
    payload: bytes  # any buffer: the encoder's packed bytes or a serialized blob

    @classmethod
    def build(cls, theta0, theta1, bias, width, n, payload_len, payload: bytes) -> "PartitionTable":
        """Table over ``payload`` holding the partitions' packed deltas back to back."""
        payload_len = np.asarray(payload_len, dtype=np.int64)
        return cls(
            np.asarray(theta0, dtype=np.float64),
            np.asarray(theta1, dtype=np.float64),
            np.asarray(bias, dtype=np.int64),
            np.asarray(width, dtype=np.uint8),
            np.asarray(n, dtype=np.int64),
            np.cumsum(payload_len) - payload_len,
            payload_len,
            payload,
        )

    def __len__(self) -> int:
        return len(self.width)

    @cached_property
    def access_rows(self) -> list[tuple[float, float, int, int, int, int]]:
        """``(θ0, θ1, bias, width, payload_off, n)`` per partition as Python
        scalars, built on first use: the per-partition read paths take one
        row instead of six numpy scalars."""
        cols = (self.theta0, self.theta1, self.bias, self.width, self.payload_off, self.n)
        return list(zip(*(c.tolist() for c in cols)))

    def contiguous_payload(self) -> bytes:
        """All packed deltas back to back in partition order."""
        lens = self.payload_len
        if len(self.payload) == lens.sum() and np.array_equal(self.payload_off, np.cumsum(lens) - lens):
            return self.payload
        buf = memoryview(self.payload)
        return b"".join(buf[a : a + m] for a, m in zip(self.payload_off.tolist(), lens.tolist()))


def payload_counts(scheme: str, lens: np.ndarray) -> np.ndarray:
    """Values packed per partition: Delta packs the ``n − 1`` differences."""
    return lens - 1 if scheme.startswith("Delta") else lens


def fixed_size(scheme: str, n: int, L: int, widths: np.ndarray) -> int:
    """The size model of ``n`` values of ``scheme`` in fixed-length-``L``
    partitions with the given delta ``widths`` (int64): their headers and
    packed deltas.  The serialized size adds the global header, the 4-byte
    ``fixed_len`` and each partition's 4-byte ``payload_len``."""
    lens = np.full(len(widths), L)
    lens[-1:] = n - L * (len(widths) - 1)  # the tail
    return PARTITION_HEADER_BYTES * len(lens) + int(packed_size(payload_counts(scheme, lens), widths).sum())


@dataclass
class EncodedSequence:
    """A compressed column chunk: global metadata + partition table."""

    scheme: str
    n: int
    dtype_bits: int
    fixed_len: int | None
    starts: np.ndarray  # uint32, start index of each partition
    partitions: PartitionTable

    def raw_bytes(self) -> int:
        """Uncompressed size, the ratio denominator (n × value width)."""
        return self.n * self.dtype_bits // 8

    def nbytes(self) -> int:
        """Exact serialized size in bytes (== ``len(self.to_bytes())``)."""
        t = self.partitions
        starts = 4 if self.fixed_len is not None else 4 * len(t)
        return _GLOBAL_HDR.size + starts + len(t) * _PART_HDR.itemsize + int(t.payload_len.sum())

    def model_bytes(self) -> int:
        """Metadata/model share of the size (Fig 10 row-1 breakdown)."""
        return self.nbytes() - int(self.partitions.payload_len.sum())

    def ratio(self) -> float:
        return self.nbytes() / self.raw_bytes()

    def partition_of(self, i: int) -> tuple[int, int]:
        """Return ``(partition_index, local_offset)`` for global position ``i``."""
        if self.fixed_len is not None:
            return divmod(i, self.fixed_len)
        k = self.starts.searchsorted(i, side="right").item() - 1
        return k, i - self.starts.item(k)

    def value_bounds(self) -> tuple[list[int], list[int]]:
        """Per-partition ``[lo, hi]`` bounds on the stored values, from the
        headers alone: the model line's ends plus ``bias + [0, 2^width)``.
        Exact Python integers (Delta partitions have no such bound)."""
        t = self.partitions
        first = np.floor(t.theta0)
        last = np.floor(t.theta0 + t.theta1 * np.maximum(t.n - 1, 0))
        los, his = [], []
        for a, b, bias, w in zip(first.tolist(), last.tolist(), t.bias.tolist(), t.width.tolist()):
            los.append(int(min(a, b)) + bias)
            his.append(int(max(a, b)) + bias + (1 << w) - 1)
        return los, his

    # -- serialization ------------------------------------------------------
    def to_bytes(self) -> bytes:
        t = self.partitions
        m = len(t)
        flags = 1 if self.fixed_len is not None else 0
        prefix = _GLOBAL_HDR.pack(
            MAGIC, _SCHEMES.index(self.scheme), flags, self.n, self.dtype_bits, m
        ) + (
            _U32.pack(self.fixed_len)
            if self.fixed_len is not None
            else np.asarray(self.starts, dtype=np.uint32).tobytes()
        )
        hdr = np.empty(m, dtype=_PART_HDR)
        hdr["theta0"], hdr["theta1"], hdr["bias"] = t.theta0, t.theta1, t.bias
        hdr["width"], hdr["payload_len"] = t.width, t.payload_len
        # interleave headers and payloads: every header byte goes to its
        # slot with one scatter, every payload byte fills the rest in order
        rec = _PART_HDR.itemsize + t.payload_len
        hdr_at = len(prefix) + np.cumsum(rec) - rec
        out = np.empty(len(prefix) + int(rec.sum()), dtype=np.uint8)
        is_payload = np.ones(len(out), dtype=bool)
        is_payload[: len(prefix)] = False
        out[: len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
        at = (hdr_at[:, None] + np.arange(_PART_HDR.itemsize)).ravel()
        out[at] = hdr.view(np.uint8)
        is_payload[at] = False
        out[is_payload] = np.frombuffer(t.contiguous_payload(), dtype=np.uint8)
        return out.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "EncodedSequence":
        """Parse a serialized sequence; raises ``ValueError`` on a malformed blob."""
        end = len(blob)
        if end < _GLOBAL_HDR.size:
            raise ValueError(f"truncated header: {end} bytes")
        magic, scheme_id, flags, n, dtype_bits, n_parts = _GLOBAL_HDR.unpack_from(blob, 0)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if scheme_id >= len(_SCHEMES):
            raise ValueError(f"unknown scheme id {scheme_id}")
        scheme = _SCHEMES[scheme_id]
        if n < 0:
            raise ValueError(f"negative length {n}")
        size = _PART_HDR.itemsize
        off = _GLOBAL_HDR.size + (4 if flags & 1 else 4 * n_parts)
        if end < off + size * n_parts:  # before allocating anything per partition
            raise ValueError(f"truncated: {n_parts} partitions need at least {off + size * n_parts} bytes")
        if flags & 1:
            (fixed_len,) = _U32.unpack_from(blob, _GLOBAL_HDR.size)
            if n_parts != (-(-n // fixed_len) if fixed_len else 0) or (n and not fixed_len):
                raise ValueError(f"{n_parts} partitions of length {fixed_len} cannot hold {n} values")
            starts = np.arange(n_parts, dtype=np.uint32) * np.uint32(fixed_len)
        else:
            fixed_len = None
            starts = np.frombuffer(blob, dtype=np.uint32, count=n_parts, offset=_GLOBAL_HDR.size).copy()
            if (n_parts and starts[0] != 0) or (n_parts == 0) != (n == 0):
                raise ValueError("partition starts do not cover the sequence")
        lens = np.diff(starts.astype(np.int64), append=n)
        if n_parts and lens.min() < 1:
            raise ValueError("partition starts are not increasing within the sequence")
        # payload_len fields chain the headers: walk them, then gather
        hdr_at = []
        for _ in range(n_parts):
            if off + size > end:
                raise ValueError("truncated partition header")
            hdr_at.append(off)
            off += size + _U32.unpack_from(blob, off + PARTITION_HEADER_BYTES)[0]
        if off != end:
            raise ValueError("truncated payload" if off > end else f"{end - off} trailing bytes")
        at = np.asarray(hdr_at, dtype=np.int64)
        raw = np.frombuffer(blob, dtype=np.uint8)[at[:, None] + np.arange(size)]
        hdr = raw.view(_PART_HDR).reshape(n_parts)
        width = hdr["width"].copy()
        payload_len = hdr["payload_len"].astype(np.int64)
        if n_parts and width.max() > 64:
            raise ValueError(f"delta width {width.max()} exceeds 64")
        if not (np.isfinite(hdr["theta0"]).all() and np.isfinite(hdr["theta1"]).all()):
            raise ValueError("non-finite model parameter")
        if not np.array_equal(payload_len, packed_size(payload_counts(scheme, lens), width.astype(np.int64))):
            raise ValueError("payload length does not match partition length and width")
        table = PartitionTable(
            hdr["theta0"].copy(), hdr["theta1"].copy(), hdr["bias"].copy(), width,
            lens, at + size, payload_len, blob,
        )
        return cls(scheme, n, dtype_bits, fixed_len, starts, table)
