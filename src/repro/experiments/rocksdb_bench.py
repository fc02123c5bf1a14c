"""RocksDB index-block experiment (§5.2, Fig 20).

Load ``n`` records (20-byte YCSB-like keys over a dense keyspace, 400-byte
values) into one SSTable, then run skewed Seek queries (80% of queries hit
20% of the keys) against four index-block configurations — LeCo and
restart intervals 1 (RocksDB default), 16 and 128 — across a block-cache
size sweep.  Reports index compression ratios and seek throughput, the
median of ``REPEATS`` runs per configuration.
"""
from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from ..rocksdb_sim.db import DB
from ..rocksdb_sim.sstable import build_sstable, raw_index_bytes

KINDS = ("leco", "ri1", "ri16", "ri128")


def make_workload(n: int, n_queries: int, seed: int = 0):
    """Dense sequential-ish keys + YCSB-like skewed query stream: 80% of
    queries hit a hot 20% of the keyspace, and accesses *within* the hot
    set are Zipf-distributed (as YCSB's zipfian generator produces), so
    every extra megabyte of block cache captures real traffic."""
    g = np.random.default_rng(seed)
    ids = np.cumsum(g.integers(1, 4, n)) + 10**10
    keys = [b"user%015d" % int(k) for k in ids]
    value = bytes(g.integers(0, 256, 400, dtype=np.uint8))
    hot = g.choice(n, max(1, n // 5), replace=False)
    w = 1.0 / np.arange(1, len(hot) + 1) ** 0.99
    w /= w.sum()
    qi = np.where(
        g.random(n_queries) < 0.8,
        g.choice(hot, n_queries, p=w),
        g.integers(0, n, n_queries),
    )
    return keys, value, [keys[i] for i in qi]


@dataclass
class SeekRow:
    index_kind: str
    cache_mb: float
    index_ratio: float
    index_bytes: int
    throughput_ops: float
    misses: int
    cpu_s: float
    io_s: float


#: runs of each (index kind, cache size) cell; a cell reports the run of
#: median throughput (wall-clock throughput moves ±15% between runs)
REPEATS = 3


def run_fig20(
    *,
    n: int = 60_000,
    n_queries: int = 20_000,
    cache_mbs: tuple[float, ...] = (0.25, 0.5, 1, 2, 4),
    seed: int = 0,
) -> list[SeekRow]:
    keys, value, qkeys = make_workload(n, n_queries, seed)
    rows: list[SeekRow] = []
    with tempfile.TemporaryDirectory(prefix="leco-fig20-") as tmp:
        path = os.path.join(tmp, "table.sst")
        entries = build_sstable(path, [(k, value) for k in keys])
        raw = raw_index_bytes(entries)
        for mb in cache_mbs:
            # a repeat runs every kind in turn, so a slow spell of the host
            # falls on all kinds of a cache size rather than on one
            by_kind: dict[str, list] = {kind: [] for kind in KINDS}
            for _ in range(REPEATS):
                for kind in KINDS:
                    db = DB(path, entries, index_kind=kind, cache_bytes=int(mb * 1e6))
                    for qk in qkeys:
                        if db.seek(qk) is None:
                            raise AssertionError(f"missing key under {kind}")
                    db.close()
                    by_kind[kind].append((db.stats, db.index.nbytes()))
            for kind, runs in by_kind.items():
                if len({s.misses for s, _ in runs}) != 1:
                    raise AssertionError(f"{kind} at {mb}MB: misses differ across repeats")
                s, index_bytes = sorted(runs, key=lambda r: r[0].throughput())[REPEATS // 2]
                rows.append(
                    SeekRow(
                        kind, mb, index_bytes / raw, index_bytes,
                        s.throughput(), s.misses, s.cpu_s, s.modeled_io_s,
                    )
                )
    return rows


def print_fig20(rows: list[SeekRow]) -> str:
    lines = ["== Fig 20: RocksDB seek throughput (ops/s) vs block-cache size =="]
    caches = sorted({r.cache_mb for r in rows})
    lines.append("index   ratio    " + " ".join(f"{c:>8.1f}MB" for c in caches))
    by = {(r.index_kind, r.cache_mb): r for r in rows}
    for k in KINDS:
        ratio = by[(k, caches[0])].index_ratio
        cells = " ".join(f"{by[(k, c)].throughput_ops:>10.0f}" for c in caches)
        lines.append(f"{k:7s} {ratio:>6.3f}  {cells}")
    lines.append("")
    lines.append("misses per config:")
    for k in KINDS:
        cells = " ".join(f"{by[(k, c)].misses:>10d}" for c in caches)
        lines.append(f"{k:7s}         {cells}")
    return "\n".join(lines)
