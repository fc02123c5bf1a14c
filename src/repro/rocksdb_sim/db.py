"""Seek path + block cache for the RocksDB experiment (§5.2, Fig 20).

``DB.seek(key)`` follows RocksDB's read path: index-block search (the index
is pinned in cache, as in the paper's ``pin_l0_filter_and_index_blocks_in_
cache`` setting) → block-cache lookup → on miss, a real ``pread`` of the
4KB data block plus a modeled NVMe random-read latency (the paper uses
direct I/O on a local NVMe; the OS page cache would hide that here —
DESIGN.md §2) → a walk of the raw block to the key.

The block cache is an LRU over raw data blocks whose *capacity is
reduced by the pinned index size* — this is precisely the mechanism behind
Fig 20: a smaller compressed index leaves more cache for data blocks.
"""
from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from .index import build_index
from .sstable import IndexEntry, block_get

#: modeled NVMe random-read latency charged per block-cache miss
IO_LATENCY_S = 100e-6


@dataclass
class SeekStats:
    queries: int = 0
    hits: int = 0
    misses: int = 0
    cpu_s: float = 0.0
    modeled_io_s: float = 0.0

    def total_s(self) -> float:
        return self.cpu_s + self.modeled_io_s

    def throughput(self) -> float:
        return self.queries / self.total_s() if self.total_s() else float("inf")


class DB:
    """A single-SSTable store with a pluggable index-block compression."""

    def __init__(
        self,
        path: str,
        entries: list[IndexEntry],
        *,
        index_kind: str = "leco",
        cache_bytes: int = 8 << 20,
    ):
        self.fd = os.open(path, os.O_RDONLY)
        self.index = build_index(entries, index_kind)
        #: the pinned index consumes cache capacity (Fig 20's core trade-off)
        self.cache_capacity = max(0, cache_bytes - self.index.nbytes())
        self.cache: OrderedDict[int, bytes] = OrderedDict()
        self.cache_used = 0
        self.stats = SeekStats()

    def close(self) -> None:
        os.close(self.fd)

    def _fetch_block(self, offset: int, size: int) -> bytes:
        if offset in self.cache:
            self.cache.move_to_end(offset)
            self.stats.hits += 1
            return self.cache[offset]
        self.stats.misses += 1
        self.stats.modeled_io_s += IO_LATENCY_S
        blob = os.pread(self.fd, size, offset)
        self.cache[offset] = blob
        self.cache_used += len(blob)
        while self.cache_used > self.cache_capacity and self.cache:
            _, old = self.cache.popitem(last=False)
            self.cache_used -= len(old)
        return blob

    def seek(self, key: bytes) -> bytes | None:
        t0 = time.perf_counter()
        handle = self.index.seek(key)
        if handle is None:
            self.stats.cpu_s += time.perf_counter() - t0
            self.stats.queries += 1
            return None
        out = block_get(self._fetch_block(*handle), key)
        self.stats.cpu_s += time.perf_counter() - t0
        self.stats.queries += 1
        return out
