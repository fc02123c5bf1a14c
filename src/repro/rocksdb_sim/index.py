"""Index-block representations (§5.2): RocksDB restart-interval delta vs LeCo.

``RestartIndex(RI)`` reproduces RocksDB's native scheme: within each
compression unit of RI entries, the first key is stored in full (a restart
point, addressed by a 4-byte restart offset) and each following key as
``(shared_prefix_len, suffix)``; block handles are varint delta-encoded
offsets (block sizes are recovered from consecutive offsets; the final
entry stores its size explicitly).  A lookup binary-searches the restart
points, then *sequentially decodes* up to RI entries — the per-seek CPU
cost that grows with RI, exactly the trade-off the paper measures.

``LeCoIndex`` compresses the separator keys with the §3.4 string extension
and the block offsets with LeCo-fix; a lookup binary-searches directly on
the *compressed* keys.  Each probe compares a key's order key
``(min-padded integer, length)`` — one model inference and two bounded bit
reads — with the query's, which is exact within a partition, so a seek
decodes no string and never sequentially decodes a compression unit.
"""
from __future__ import annotations

import bisect

import numpy as np

from ..core.leco import LeCoFix
from ..core.string_codec import StringLeCo
from .sstable import IndexEntry


def _varint(x: int) -> bytes:
    out = bytearray()
    while True:
        b = x & 0x7F
        x >>= 7
        if x:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _read_varint(blob: bytes, pos: int) -> tuple[int, int]:
    x = shift = 0
    while True:
        b = blob[pos]
        pos += 1
        x |= (b & 0x7F) << shift
        if not b & 0x80:
            return x, pos
        shift += 7


class RestartIndex:
    """RocksDB-style prefix-delta index block with restart interval ``ri``."""

    def __init__(self, entries: list[IndexEntry], ri: int):
        self.ri = ri
        self.n = len(entries)
        blob = bytearray()
        self.restarts: list[int] = []  # byte offset of each restart point
        prev = b""
        for j, e in enumerate(entries):
            if j % ri == 0:
                self.restarts.append(len(blob))
                shared = 0
            else:
                shared = 0
                while shared < min(len(prev), len(e.key)) and prev[shared] == e.key[shared]:
                    shared += 1
            suffix = e.key[shared:]
            delta = e.offset - (entries[j - 1].offset if j % ri else 0)
            blob += _varint(shared) + _varint(len(suffix)) + suffix
            blob += _varint(delta) + _varint(e.size)
            prev = e.key
        self.blob = bytes(blob)

    def nbytes(self) -> int:
        return len(self.blob) + 4 * len(self.restarts)

    def _first_key(self, unit: int) -> bytes:
        pos = self.restarts[unit]
        _, pos = _read_varint(self.blob, pos)  # shared == 0
        slen, pos = _read_varint(self.blob, pos)
        return self.blob[pos : pos + slen]

    def seek(self, key: bytes) -> tuple[int, int] | None:
        """Smallest index entry with separator >= key → (offset, size)."""
        lo, hi = 0, len(self.restarts)
        while lo < hi:  # binary search restart points (decode one key each)
            mid = (lo + hi) // 2
            if self._first_key(mid) < key:
                lo = mid + 1
            else:
                hi = mid
        for unit in (max(0, lo - 1), lo):
            if unit >= len(self.restarts):
                break
            pos = self.restarts[unit]
            end = self.restarts[unit + 1] if unit + 1 < len(self.restarts) else len(self.blob)
            prev = b""
            off_acc = 0
            j = 0
            while pos < end:  # sequential decode of the unit (RI-size cost)
                shared, pos = _read_varint(self.blob, pos)
                slen, pos = _read_varint(self.blob, pos)
                cur = prev[:shared] + self.blob[pos : pos + slen]
                pos += slen
                delta, pos = _read_varint(self.blob, pos)
                size, pos = _read_varint(self.blob, pos)
                off_acc = delta if j == 0 else off_acc + delta
                if cur >= key:
                    return off_acc, size
                prev = cur
                j += 1
        return None


class LeCoIndex:
    """LeCo-compressed index block: string keys + linear offsets (§5.2)."""

    def __init__(self, entries: list[IndexEntry], partition_len: int = 64):
        self.n = len(entries)
        self._skc = StringLeCo(partition_len=partition_len, pow2_base=True)
        # the string codec refuses empty input; an empty index stores no keys
        self._keys = self._skc.encode([e.key.decode("latin1") for e in entries]) if entries else None
        end = entries[-1].offset + entries[-1].size if entries else 0
        self._ic = LeCoFix(partition_len)
        self._offs = self._ic.encode(np.asarray([e.offset for e in entries] + [end]), dtype_bits=64)
        # Derived hot metadata (recomputable from the compressed form, so it
        # does not count toward nbytes — the paper's "model often cached"):
        self._part_firsts = [e.key for e in entries[::partition_len]]

    def nbytes(self) -> int:
        return (self._keys.nbytes() if self.n else 0) + self._offs.nbytes()

    def seek(self, key: bytes) -> tuple[int, int] | None:
        if not self.n:
            return None
        # 1) binary search over partitions by their first key (cached)
        pk = max(0, bisect.bisect_left(self._part_firsts, key) - 1)
        part = self._keys.partitions[pk]
        # 2) exact lower bound within the partition on (min-padded int, length)
        q = self._skc.map_query(part, key.decode("latin1"))
        lo = pk * self._keys.partition_len
        hi = lo + part.n
        while lo < hi:
            mid = (lo + hi) // 2
            if self._skc.mapped_value(self._keys, mid) < q:
                lo = mid + 1
            else:
                hi = mid
        if lo >= self.n:
            return None
        off = self._ic.access(self._offs, lo)
        return off, self._ic.access(self._offs, lo + 1) - off


def build_index(entries: list[IndexEntry], kind: str):
    """``kind``: "leco" or "ri<k>" (e.g. ri1, ri16, ri128)."""
    if kind == "leco":
        return LeCoIndex(entries)
    if kind.startswith("ri"):
        return RestartIndex(entries, int(kind[2:]))
    raise ValueError(f"unknown index kind {kind!r}")
