"""SSTable substrate for the RocksDB index-block experiment (§5.2).

An SSTable is a file of 4KB-ish data blocks of sorted key/value entries
(``klen u16 | key | vlen u16 | value`` repeated), plus an in-memory list of
index entries — one per block: the block's last key (the separator) and a
"block handle" (byte offset + size).  The index-block *representations*
(RocksDB restart-interval delta vs LeCo) live in ``index.py``; this module
only builds the table and parses blocks.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass


@dataclass
class IndexEntry:
    key: bytes  # separator: last key of the block
    offset: int
    size: int


def shortest_separator(last: bytes, nxt: bytes | None) -> bytes:
    """RocksDB's ``FindShortestSeparator``: the shortest string ``s`` with
    ``last <= s < nxt`` (the paper: "shortest string greater than the last
    key in B_{i-1} and smaller than the first key in B_i"); falls back to
    ``last`` when no shorter separator exists."""
    if nxt is None:
        return last
    i = 0
    while i < min(len(last), len(nxt)) and last[i] == nxt[i]:
        i += 1
    if i < len(last) and last[i] + 1 < (nxt[i] if i < len(nxt) else 256):
        return last[: i + 1][:-1] + bytes([last[i] + 1])
    return last


def build_sstable(
    path: str,
    items: list[tuple[bytes, bytes]],
    *,
    block_size: int = 4096,
) -> list[IndexEntry]:
    """Write sorted ``(key, value)`` items into ``path``; returns the index
    with shortened separator keys."""
    blocks: list[tuple[bytes, bytes, int, int]] = []  # (first, last, offset, size)
    with open(path, "wb") as f:
        block = bytearray()
        block_start = 0
        last_key = b""
        first_key: bytes | None = None
        for k, v in items:
            if k < last_key:
                raise ValueError("items must be sorted by key")
            last_key = k
            if first_key is None:
                first_key = k
            block += struct.pack("<H", len(k)) + k + struct.pack("<H", len(v)) + v
            if len(block) >= block_size:
                f.write(block)
                blocks.append((first_key, k, block_start, len(block)))
                block_start += len(block)
                block = bytearray()
                first_key = None
        if block:
            f.write(block)
            blocks.append((first_key, last_key, block_start, len(block)))
    return [
        IndexEntry(
            shortest_separator(last, blocks[i + 1][0] if i + 1 < len(blocks) else None),
            off,
            size,
        )
        for i, (_, last, off, size) in enumerate(blocks)
    ]


def parse_block(blob: bytes) -> list[tuple[bytes, bytes]]:
    out = []
    i = 0
    while i < len(blob):
        (kl,) = struct.unpack_from("<H", blob, i)
        k = blob[i + 2 : i + 2 + kl]
        i += 2 + kl
        (vl,) = struct.unpack_from("<H", blob, i)
        v = blob[i + 2 : i + 2 + vl]
        i += 2 + vl
        out.append((k, v))
    return out


def block_get(entries: list[tuple[bytes, bytes]], key: bytes) -> bytes | None:
    """Binary search inside a parsed data block."""
    lo, hi = 0, len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        if entries[mid][0] < key:
            lo = mid + 1
        else:
            hi = mid
    if lo < len(entries) and entries[lo][0] == key:
        return entries[lo][1]
    return None


def raw_index_bytes(index: list[IndexEntry]) -> int:
    """Uncompressed index size: full keys + 8-byte offset + 4-byte size."""
    return sum(len(e.key) + 12 for e in index)
