"""Bit-packing substrate: fixed-width codes packed MSB-first into bytes.

This is the physical layer under every fixed-length-delta codec in the
reproduction (LeCo, FOR, Delta, Elias-Fano lower bits).  Values are
unsigned; signed deltas are stored by the codecs as ``delta - bias``
with an explicit per-partition bias, which is exactly the minimal
fixed-width layout the paper's θ0-tweak approximates (see DESIGN.md §2).

Two families of helpers:

* numpy path (widths 0..64): ``pack_rows`` packs ragged rows (one per
  partition) in groups of eight values, a few vectorized calls per
  distinct width, and ``unpack_rows`` reads equal-length rows back;
  ``pack``/``unpack`` handle one array and ``extract`` reads one value in
  O(1).
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

#: values per ``unpack_rows`` step; bounds a step's bit matrix (a byte per
#: bit, at most 64 per value) to 4 MiB.  A multiple of 8, so a row split at
#: a block edge stays byte-aligned.
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


def _from_bits(bits: np.ndarray, width: int) -> np.ndarray:
    """The ``width``-bit codes laid back to back in the bit array ``bits``
    (0/1 bytes, most significant first) as uint64: each code's bits dotted
    with the last ``width`` weights of ``_WEIGHTS``."""
    return bits.reshape(-1, width).astype(np.uint64) @ _WEIGHTS[64 - width :]


def _lanes(values: np.ndarray, counts: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """The ``(Σ groups, 8)`` lane matrix of ragged rows: row ``k`` takes
    ``groups[k]`` consecutive groups of eight, its ``counts[k]`` values
    followed by zeros."""
    if not (counts % 8).any():
        return values.reshape(-1, 8)
    gstart = np.cumsum(groups) - groups
    vstart = np.cumsum(counts) - counts
    lanes = np.zeros(int(groups.sum()) * 8, dtype=np.uint64)
    lanes[np.repeat(gstart * 8 - vstart, counts) + np.arange(len(values))] = values
    return lanes.reshape(-1, 8)


def _pack_lanes(lanes: np.ndarray, width: int) -> np.ndarray:
    """The ``(g, width)`` bytes of ``g`` groups of eight ``width``-bit values:
    lane ``j`` goes to bit ``j·width`` of its group's 64-bit words, MSB
    first, with one shift, or two when it crosses into the next word; the
    words are written big-endian and trimmed to ``width`` bytes."""
    if width < 64 and len(lanes) and int(lanes.max()) >> width:
        raise ValueError(f"value out of range for width={width}")
    nw = (width + 7) // 8
    # every word is first written by the lane that covers its top bit
    words = np.empty((len(lanes), nw), dtype=np.uint64)
    filled = 0
    for j in range(8 if width else 0):
        q, o = divmod(j * width, 64)
        lane, end = lanes[:, j], o + width
        if end > 64:
            words[:, q] |= lane >> np.uint64(end - 64)
            np.left_shift(lane, np.uint64(128 - end), out=words[:, q + 1])
        elif q < filled:
            words[:, q] |= lane << np.uint64(64 - end)
        else:
            np.left_shift(lane, np.uint64(64 - end), out=words[:, q])
        filled = q + 1 + (end > 64)
    out = words.astype(">u8").view(np.uint8)
    return out if width == 8 * nw else np.ascontiguousarray(out[:, :width])


def pack_rows(values: np.ndarray, counts, widths) -> bytes:
    """Pack ragged rows: row ``k`` is the next ``counts[k]`` values of the
    flat unsigned ``values``, packed at ``widths[k]`` bits MSB-first and
    padded to whole bytes.

    Returns the rows' packed bytes concatenated in row order, so row ``k``
    is byte-identical to ``pack(row_k, widths[k])``.  Each row is
    zero-padded to whole groups of eight values, which fill exactly
    ``width`` bytes; all groups of one width are packed together by
    :func:`_pack_lanes` and written to their rows, which are then trimmed
    to ``packed_size(count, width)`` bytes.  Signed input is read as its
    two's-complement uint64.
    """
    v = _as_u64(values).reshape(-1)
    n = np.asarray(counts, dtype=np.int64).reshape(-1)
    w = np.asarray(widths, dtype=np.int64).reshape(-1)
    if len(n) != len(w):
        raise ValueError(f"{len(n)} counts but {len(w)} widths")
    if len(n) and not (0 <= w.min() and w.max() <= 64):
        raise ValueError(f"width must be in [0, 64], got {w.min()}..{w.max()}")
    if (n < 0).any() or n.sum() != len(v):
        raise ValueError(f"counts must be >= 0 and sum to the {len(v)} values")
    groups = (n + 7) // 8
    lanes = _lanes(v, n, groups)
    # each row's padded bytes start on a group boundary, its groups back to back
    padded = groups * w
    out = np.empty(int(padded.sum()), dtype=np.uint8)
    gw = np.repeat(w, groups)
    pos = np.repeat(np.cumsum(padded) - padded - (np.cumsum(groups) - groups) * w, groups)
    pos += np.arange(len(lanes)) * gw
    for width in np.unique(w).tolist():
        sel = np.flatnonzero(gw == width)
        packed = _pack_lanes(np.take(lanes, sel, axis=0), width)
        if width and len(sel):
            # ``out`` seen as overlapping ``width``-byte items, one per byte offset
            dst = np.ndarray((len(out) - width + 1,), dtype=f"V{width}", buffer=out, strides=(1,))
            dst[pos[sel]] = packed.view(f"V{width}").reshape(-1)
    sizes = packed_size(n, w)
    trim = padded - sizes
    if trim[:-1].any():  # drop the pad bytes of every row but the last
        ends = np.cumsum(padded)[trim > 0]
        t = trim[trim > 0]
        out = np.delete(out, np.repeat(ends - np.cumsum(t), t) + np.arange(int(t.sum())))
    return out[: int(sizes.sum())].tobytes()


def unpack_rows(buf: bytes, offsets: np.ndarray, count: int, widths: np.ndarray) -> np.ndarray:
    """Reads back rows of one length that :func:`pack_rows` packed: the
    ``(g, count)`` uint64 block whose row ``k`` holds the ``count`` values
    packed at ``widths[k]`` bits from byte ``offsets[k]`` of ``buf``.

    Row ``k`` equals ``unpack(buf, widths[k], count, offsets[k] * 8)``.  All
    rows of one width are unpacked together, in blocks of at most
    ``_BLOCK_VALUES`` values.  A width group of consecutive rows that lie
    back to back in ``buf``, as an encoder's table does, is read as one
    ``(g, bytes)`` slice into a slice of the block; other groups (a parsed
    blob has headers between its payloads) gather their rows' bytes.
    """
    off = np.asarray(offsets, dtype=np.int64).reshape(-1)
    w_all = np.asarray(widths, dtype=np.int64).reshape(-1)
    if len(off) != len(w_all):
        raise ValueError(f"{len(off)} offsets but {len(w_all)} widths")
    if len(w_all) and not (0 <= w_all.min() and w_all.max() <= 64):
        raise ValueError(f"width must be in [0, 64], got {w_all.min()}..{w_all.max()}")
    out = np.empty((len(w_all), count), dtype=np.uint64)
    out[w_all == 0] = 0
    if count == 0:
        return out
    raw = np.frombuffer(buf, dtype=np.uint8)
    rows_per_block = max(1, _BLOCK_VALUES // count)
    seg = min(count, _BLOCK_VALUES)
    for w in np.unique(w_all[w_all > 0]).tolist():
        ks = np.flatnonzero(w_all == w)
        size = packed_size(count, w)
        tight = ks[-1] - ks[0] == len(ks) - 1 and (np.diff(off[ks]) == size).all()
        for r in range(0, len(ks), rows_per_block):
            kb = ks[r : r + rows_per_block]
            if tight:  # back to back: a slice in, a slice out
                a = int(off[kb[0]])
                rows = raw[a : a + len(kb) * size].reshape(len(kb), size)
                kb = slice(int(kb[0]), int(kb[0]) + len(kb))
            else:
                rows = raw[off[kb, None] + np.arange(size)]
            for c in range(0, count, seg):
                s = min(seg, count - c)
                bits = np.unpackbits(rows[:, c * w // 8 : c * w // 8 + packed_size(s, w)], axis=1)
                out[kb, c : c + s] = _from_bits(bits[:, : s * w], w).reshape(-1, s)
    return out


def pack(values: np.ndarray, width: int) -> bytes:
    """Pack unsigned ``values`` at ``width`` bits each, MSB-first: the
    one-row case of :func:`pack_rows`.

    The result is ``ceil(n * width / 8)`` bytes; trailing pad bits are 0.
    """
    v = _as_u64(values).reshape(-1)
    return pack_rows(v, [len(v)], [width])


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
