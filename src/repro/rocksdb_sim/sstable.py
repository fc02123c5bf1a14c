"""SSTable substrate for the RocksDB index-block experiment (§5.2).

An SSTable is a file of 4KB-ish data blocks of sorted key/value entries
(``klen u16 | key | vlen u16 | value`` repeated), plus an in-memory list of
index entries — one per block: the block's last key (the separator) and a
"block handle" (byte offset + size).  The index-block *representations*
(RocksDB restart-interval delta vs LeCo) live in ``index.py``; this module
only builds the table and reads values out of raw blocks.
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


def block_get(blob: bytes, key: bytes) -> bytes | None:
    """Value of ``key`` in a raw data block, read where it lies: walk the
    entries by their ``u16`` lengths, stop at the first key >= ``key`` and
    slice only that entry's value."""
    i, end = 0, len(blob)
    while i < end:
        j = i + 2 + (blob[i] | blob[i + 1] << 8)  # end of the key
        v = j + 2 + (blob[j] | blob[j + 1] << 8)  # end of the value
        k = blob[i + 2 : j]
        if k >= key:
            return blob[j + 2 : v] if k == key else None
        i = v
    return None


def raw_index_bytes(index: list[IndexEntry]) -> int:
    """Uncompressed index size: full keys + 8-byte offset + 4-byte size."""
    return sum(len(e.key) + 12 for e in index)
