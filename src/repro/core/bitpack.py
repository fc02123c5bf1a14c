"""Bit-packing substrate: fixed-width codes packed MSB-first into bytes.

This is the physical layer under every fixed-length-delta codec in the
reproduction (LeCo, FOR, Delta, Elias-Fano lower bits).  Values are
unsigned; signed deltas are stored by the codecs as ``delta - bias``
with an explicit per-partition bias, which is exactly the minimal
fixed-width layout the paper's θ0-tweak approximates (see DESIGN.md §2).

Two families of helpers:

* numpy path (widths 0..64): ``pack_rows`` packs many equal-length rows
  (one per partition) in a few vectorized calls per distinct width, and
  ``unpack_rows`` is its inverse; ``pack``/``unpack`` handle one array and
  ``extract`` reads one value in O(1).
* big-int path (arbitrary widths, for the string extension §3.4 where
  mapped integers exceed 64 bits): pure-Python over ``int``.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "bits_needed",
    "bits_needed_vec",
    "packed_size",
    "pack_rows",
    "unpack_rows",
    "pack",
    "unpack",
    "extract",
    "pack_bigints",
    "unpack_bigints",
    "extract_bigint",
]


def bits_needed(max_value: int) -> int:
    """Bits required to store unsigned values in ``[0, max_value]``.

    ``bits_needed(0) == 0`` — a partition whose deltas are all equal to the
    bias stores no delta array at all.
    """
    if max_value < 0:
        raise ValueError(f"max_value must be >= 0, got {max_value}")
    return int(max_value).bit_length()


_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)
#: bit weights, most significant first: a ``width``-bit code's are the last ``width``
_WEIGHTS = _POW2[::-1].copy()

#: values per ``pack_rows``/``unpack_rows`` step; bounds a step's bit
#: matrix (a byte per bit, at most 64 per value) to 4 MiB.  A multiple of
#: 8, so a row split at a block edge stays byte-aligned.
_BLOCK_VALUES = 1 << 16


def bits_needed_vec(spread: np.ndarray) -> np.ndarray:
    """Element-wise :func:`bits_needed`, exact over the full 64-bit range.

    Signed input is read as its two's-complement uint64, so a spread
    ``hi - lo`` taken in wrapping int64 arithmetic gives the exact width.
    """
    x = np.asarray(spread)
    if x.dtype != np.uint64:
        x = x.astype(np.int64, copy=False).view(np.uint64)
    return np.searchsorted(_POW2, x, side="right")


def packed_size(count, width):
    """Bytes taken by ``count`` values packed at ``width`` bits (vectorizes)."""
    return (count * width + 7) // 8


def _as_u64(values) -> np.ndarray:
    """Values as uint64; signed input is read as its two's complement."""
    v = np.asarray(values)
    return v if v.dtype == np.uint64 else v.astype(np.int64, copy=False).view(np.uint64)


def _pack_matrix(be: np.ndarray, width: int) -> np.ndarray:
    """Pack each row of the big-endian ``>u8`` matrix ``be`` at ``width``
    bits: the bit matrix is ``np.unpackbits`` of the value bytes, keeping
    each value's low ``width`` bits, and ``np.packbits`` turns it back into
    bytes, each row padded to whole bytes."""
    g, s = be.shape
    bits = np.unpackbits(be.view(np.uint8), axis=1)
    return np.packbits(bits.reshape(g, s, 64)[:, :, 64 - width :].reshape(g, s * width), axis=1)


def _from_bits(bits: np.ndarray, width: int) -> np.ndarray:
    """The ``width``-bit codes laid back to back in the bit array ``bits``
    (0/1 bytes, most significant first) as uint64: each code's bits dotted
    with the last ``width`` weights of ``_WEIGHTS``."""
    return bits.reshape(-1, width).astype(np.uint64) @ _WEIGHTS[64 - width :]


def pack_rows(rows: np.ndarray, widths: np.ndarray) -> bytes:
    """Pack row ``k`` of the ``(m, L)`` unsigned matrix ``rows`` at
    ``widths[k]`` bits, MSB-first, each row padded to whole bytes.

    Returns the rows' packed bytes concatenated in row order, so row ``k``
    is byte-identical to ``pack(rows[k], widths[k])``.  All rows of one
    width are packed together, in blocks of at most ``_BLOCK_VALUES``
    values.  Signed input is read as its two's-complement uint64.
    """
    v = _as_u64(rows)
    w_all = np.asarray(widths, dtype=np.int64).reshape(-1)
    m, L = v.shape
    if len(w_all) != m:
        raise ValueError(f"{m} rows but {len(w_all)} widths")
    if m and not (0 <= w_all.min() and w_all.max() <= 64):
        raise ValueError(f"width must be in [0, 64], got {w_all.min()}..{w_all.max()}")
    if L == 0:
        return b""
    high = v.max(axis=1) >> np.minimum(w_all, 63).astype(np.uint64)
    if ((high != 0) & (w_all < 64)).any():
        raise ValueError("value out of range for its row's width")
    be = v.astype(">u8")
    sizes = packed_size(L, w_all)
    out = np.zeros(int(sizes.sum()), dtype=np.uint8)
    starts = np.cumsum(sizes) - sizes
    rows_per_block = max(1, _BLOCK_VALUES // L)
    seg = min(L, _BLOCK_VALUES)
    for w in np.unique(w_all).tolist():
        if w == 0:
            continue
        ks = np.flatnonzero(w_all == w)
        for r in range(0, len(ks), rows_per_block):
            kb = ks[r : r + rows_per_block]
            for c in range(0, L, seg):
                packed = _pack_matrix(be[kb, c : c + seg], w)
                dst = starts[kb] + c * w // 8
                out[dst[:, None] + np.arange(packed.shape[1])] = packed
    return out.tobytes()


def unpack_rows(buf: bytes, offsets: np.ndarray, count: int, widths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_rows`: the ``(g, count)`` uint64 block whose
    row ``k`` holds the ``count`` values packed at ``widths[k]`` bits from
    byte ``offsets[k]`` of ``buf``.

    Row ``k`` equals ``unpack(buf, widths[k], count, offsets[k] * 8)``.  All
    rows of one width are unpacked together, in blocks of at most
    ``_BLOCK_VALUES`` values.
    """
    off = np.asarray(offsets, dtype=np.int64).reshape(-1)
    w_all = np.asarray(widths, dtype=np.int64).reshape(-1)
    if len(off) != len(w_all):
        raise ValueError(f"{len(off)} offsets but {len(w_all)} widths")
    if len(w_all) and not (0 <= w_all.min() and w_all.max() <= 64):
        raise ValueError(f"width must be in [0, 64], got {w_all.min()}..{w_all.max()}")
    out = np.zeros((len(w_all), count), dtype=np.uint64)
    if count == 0:
        return out
    raw = np.frombuffer(buf, dtype=np.uint8)
    rows_per_block = max(1, _BLOCK_VALUES // count)
    seg = min(count, _BLOCK_VALUES)
    for w in np.unique(w_all).tolist():
        if w == 0:
            continue
        ks = np.flatnonzero(w_all == w)
        for r in range(0, len(ks), rows_per_block):
            kb = ks[r : r + rows_per_block]
            for c in range(0, count, seg):
                s = min(seg, count - c)
                src = off[kb, None] + c * w // 8 + np.arange(packed_size(s, w))
                bits = np.unpackbits(raw[src], axis=1)[:, : s * w]
                out[kb, c : c + s] = _from_bits(bits, w).reshape(len(kb), s)
    return out


def pack(values: np.ndarray, width: int) -> bytes:
    """Pack unsigned ``values`` at ``width`` bits each, MSB-first.

    The result is ``ceil(n * width / 8)`` bytes; trailing pad bits are 0.
    """
    if width == 0:
        return b""
    if not 0 < width <= 64:
        raise ValueError(f"width must be in [0, 64], got {width}")
    v = _as_u64(values).reshape(1, -1)
    if v.size and width < 64 and int(v.max()) >> width:
        raise ValueError(f"value out of range for width={width}")
    be = v.astype(">u8")
    return b"".join(
        _pack_matrix(be[:, c : c + _BLOCK_VALUES], width).tobytes()
        for c in range(0, v.shape[1], _BLOCK_VALUES)
    )


def unpack(buf: bytes, width: int, n: int, bit: int = 0) -> np.ndarray:
    """Inverse of :func:`pack` — returns the ``n`` uint64 values packed at
    ``width`` bits from bit offset ``bit`` of ``buf``, touching only their
    bytes (a partition's slice ``[a, b)`` is ``bit = payload_off·8 + a·width``)."""
    if width == 0:
        return np.zeros(n, dtype=np.uint64)
    first, skip = divmod(bit, 8)
    end = skip + n * width
    raw = np.frombuffer(buf, dtype=np.uint8, count=(end + 7) // 8, offset=first)
    return _from_bits(np.unpackbits(raw)[skip:end], width)


def extract(buf: bytes, width: int, idx: int, offset: int = 0) -> int:
    """Read the single value at position ``idx`` without unpacking the rest.

    Mirrors the paper's Decoder (§3.3): fetch bits ``[b·i, b·(i+1))`` of the
    packed array that starts ``offset`` bytes into ``buf``.
    """
    if width == 0:
        return 0
    start = offset * 8 + idx * width
    end = start + width
    first, last = start // 8, (end + 7) // 8
    chunk = int.from_bytes(buf[first:last], "big")
    return (chunk >> ((last * 8) - end)) & ((1 << width) - 1)


# ---------------------------------------------------------------------------
# Big-int path (string extension): arbitrary widths over Python ints.
# ---------------------------------------------------------------------------

def pack_bigints(values: list[int], width: int) -> bytes:
    """Pack arbitrary-width unsigned Python ints, MSB-first."""
    if width == 0:
        return b""
    acc = 0
    for v in values:
        if v < 0 or v >> width:
            raise ValueError(f"value {v} out of range for width={width}")
        acc = (acc << width) | v
    total_bits = len(values) * width
    pad = (-total_bits) % 8
    acc <<= pad
    return acc.to_bytes((total_bits + pad) // 8, "big")


def unpack_bigints(buf: bytes, width: int, n: int) -> list[int]:
    """Inverse of :func:`pack_bigints`."""
    if width == 0:
        return [0] * n
    acc = int.from_bytes(buf, "big")
    total_bits = n * width
    acc >>= (len(buf) * 8 - total_bits)
    mask = (1 << width) - 1
    return [(acc >> ((n - 1 - i) * width)) & mask for i in range(n)]


def extract_bigint(buf: bytes, width: int, idx: int) -> int:
    """Single arbitrary-width value at ``idx`` (two bounded byte reads)."""
    if width == 0:
        return 0
    start = idx * width
    end = start + width
    first, last = start // 8, (end + 7) // 8
    chunk = int.from_bytes(buf[first:last], "big")
    return (chunk >> ((last * 8) - end)) & ((1 << width) - 1)
