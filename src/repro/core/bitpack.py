"""Bit-packing substrate: fixed-width codes packed MSB-first into bytes.

This is the physical layer under every fixed-length-delta codec in the
reproduction (LeCo, FOR, Delta, Elias-Fano lower bits).  Values are
unsigned; signed deltas are stored by the codecs as ``delta - bias``
with an explicit per-partition bias, which is exactly the minimal
fixed-width layout the paper's θ0-tweak approximates (see DESIGN.md §2).

Two families of helpers:

* numpy path (widths 0..64): ``pack_rows`` packs ragged rows (one per
  partition) and ``unpack_rows`` reads any such rows back, from any byte
  offsets, both in groups of eight values that fill exactly ``width``
  bytes, with one eight-lane kernel call per distinct width; one short
  row takes ``unpack_rows``' short branch instead, one 64-bit word per
  value (``_bits_at``, which ``leco.access_many`` shares);
  ``pack``/``unpack`` are their one-row cases and ``extract`` reads one
  value in O(1).
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


def _unpack_lanes(words: np.ndarray, width: int, lanes: np.ndarray) -> None:
    """Inverse of :func:`_pack_lanes`, lane-major: ``lanes[j, g]`` is value
    ``j`` of group ``g`` from its native 64-bit ``words[:, g]`` (``width >
    0``): bit ``j·width`` on shifted to the top, or'ed with the next word's
    bits when it crosses into it, then shifted down."""
    for j in range(8):
        q, o = divmod(j * width, 64)
        lane = lanes[j]
        np.left_shift(words[q], np.uint64(o), out=lane)
        if o + width > 64:
            lane |= words[q + 1] >> np.uint64(64 - o)
        lane >>= np.uint64(64 - width)


#: a one-row call of at most this many values takes the short branch of
#: :func:`unpack_rows`, one word per value: up to 4,096 values it beat the
#: lane kernel at widths 1, 13, 40 and 64 (one row of width 13 on a 4-vCPU
#: VM: 65 against 101 µs; at 12,288 values 135 against 125 µs)
_SHORT = 4096


def _bits_at(buf, bit: np.ndarray, width) -> np.ndarray:
    """The ``width``-bit value (0..64, an int or one per value) at each bit
    position ``bit`` of ``buf`` as uint64, by a shift and mask (Lemire &
    Boytsov): the big-endian 64-bit word at the value's byte shifted left by
    the bit's place in that byte, the ninth byte's top bits or'ed in for a
    width above 57, then shifted down by ``64 − width``.  Every value must
    end inside ``buf``; one whose word would run past it reads the last
    eight bytes, shifted further."""
    raw = np.frombuffer(buf, dtype=np.uint8)
    if len(raw) < 9:
        raw = np.concatenate([raw, np.zeros(9, dtype=np.uint8)])
    word = bit >> 3
    if len(word) and int(word.max()) > len(raw) - 8:  # the last values read the last word, shifted further
        word = np.minimum(word, len(raw) - 8)
        shift = (bit - 8 * word).view(np.uint64)
    else:
        shift = (bit & 7).view(np.uint64)
    out = np.ndarray((len(raw) - 7,), ">u8", raw, 0, (1,))[word].astype(np.uint64) << shift
    one = isinstance(width, int)
    if (width if one else width.max(initial=0)) > 57:  # the ninth byte, where the word is the value's own
        ninth = raw[np.minimum(word + 8, len(raw) - 1)] >> (np.uint64(8) - shift)
        out |= np.where(shift < 8, ninth, np.uint64(0))
    if not one:
        return np.where(width > 0, out >> (np.uint64(64) - width.astype(np.uint64)), np.uint64(0))
    return out >> np.uint64(64 - width) if width else np.zeros(len(out), dtype=np.uint64)


def unpack_rows(buf: bytes, offsets, counts, widths) -> np.ndarray:
    """Inverse of :func:`pack_rows`: the rows back to back as uint64; row
    ``k`` is ``counts[k]`` values packed at ``widths[k]`` bits from byte
    ``offsets[k]`` of ``buf``.  A row whose bytes do not lie inside ``buf``,
    or a width outside [0, 64], raises ``ValueError``.

    The fixed cost scales with the call.  One row of at most :data:`_SHORT`
    values (a Delta prefix, or one partition's range) is read one 64-bit
    word per value (:func:`_bits_at`).  Otherwise rows are read in groups
    of eight values (``width`` bytes): one :func:`_unpack_lanes` call per
    width > 0 fills a lane matrix, sorted by width only when the call mixes
    widths, whose width-0 groups stay out of it as zeros, and trimmed of the
    pad lanes of every row but the last only when one has them.  A width's
    groups are one strided view when they lie back to back (adjacent rows
    of one width, in an encoder's table or a parsed blob's), else gathered.
    Pad lanes may
    read past their row, and past ``buf`` as zeros."""
    off, n, w = (np.asarray(x, dtype=np.int64).reshape(-1) for x in (offsets, counts, widths))
    if not len(off) == len(n) == len(w):
        raise ValueError(f"{len(off)} offsets, {len(n)} counts and {len(w)} widths")
    size = memoryview(buf).nbytes
    # a count is clipped to one no row of the buffer can hold, so that n·width cannot overflow
    end = off + packed_size(np.minimum(n, 8 * size + 8), w)
    if np.concatenate((off, n, w)).min(initial=0) < 0 or w.max(initial=0) > 64 or end.max(initial=0) > size:
        raise ValueError(f"rows of counts {n.tolist()[:4]}… at widths {w.tolist()[:4]}… are not inside {size} bytes")
    total = int(n.sum())
    if len(n) == 1 and total <= _SHORT:
        width = int(w[0])
        return _bits_at(buf, 8 * int(off[0]) + width * np.arange(total), width)
    if not w.any():  # width-0 rows hold zeros and no bytes
        return np.zeros(total, dtype=np.uint64)
    raw = np.frombuffer(buf, dtype=np.uint8)
    groups = (n + 7) // 8
    gw = np.repeat(w, groups)
    at = np.repeat(off - (np.cumsum(groups) - groups) * w, groups) + np.arange(len(gw)) * gw
    if at.max(initial=0) > len(raw) - 64:  # words may run past the buffer: read zeros there
        lo = int(at.min(initial=0))
        raw, at = np.concatenate([raw[lo:], np.zeros(64, dtype=np.uint8)]), at - lo
    mixed = w.min() < w.max()
    if mixed:  # by width, each width's groups in row order
        order = np.argsort(gw.astype(np.uint8), kind="stable")
        gw, at = gw[order], at[order]
    z = int(np.searchsorted(gw, 1)) if mixed else 0  # width-0 groups sort first and stay out of the lanes
    lanes = np.empty((8, len(gw) - z), dtype=np.uint64)
    for width in np.unique(w[(w > 0) & (n > 0)]).tolist():
        s, e = np.searchsorted(gw, [width, width + 1]).tolist() if mixed else (0, len(gw))
        a, nb = at[s:e], (width + 7) // 8 * 8  # a group reads its whole words
        if (a[1:] - a[:-1] == width).all():  # back to back: one strided view
            words = np.ndarray((e - s, nb // 8), ">u8", raw, int(a[0]), (width, 8))
        else:  # ``raw`` seen as overlapping ``nb``-byte items, one per byte offset
            words = np.ndarray((len(raw) - nb + 1,), f"V{nb}", raw, 0, (1,))[a].view(">u8").reshape(e - s, -1)
        _unpack_lanes(words.T.astype(np.uint64, order="C"), width, lanes[:, s - z : e - z])
    if mixed:  # back to row order: matrix row ``i`` is group ``order[z + i]``; width-0 groups are zeros
        vals = np.zeros((len(gw), 8), dtype=np.uint64)
        vals[order[z:]] = lanes.T
    else:
        vals = lanes.T
    vals, pad = vals.reshape(-1), groups * 8 - n  # lanes past a row's count, at the end of its last group
    if pad[:-1].any():
        at = np.repeat(np.cumsum(groups * 8) - np.cumsum(pad), pad) + np.arange(int(pad.sum()))
        vals = np.delete(vals, at)
    return vals[:total]


def pack(values: np.ndarray, width: int) -> bytes:
    """Pack unsigned ``values`` at ``width`` bits each, MSB-first: the
    one-row case of :func:`pack_rows`.

    The result is ``ceil(n * width / 8)`` bytes; trailing pad bits are 0.
    """
    v = _as_u64(values).reshape(-1)
    return pack_rows(v, [len(v)], [width])


def unpack(buf: bytes, width: int, n: int, offset: int = 0) -> np.ndarray:
    """Inverse of :func:`pack`: the ``n`` uint64 values packed at ``width``
    bits from byte ``offset`` of ``buf``, the one-row case of
    :func:`unpack_rows`."""
    return unpack_rows(buf, [offset], [n], [width])


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
