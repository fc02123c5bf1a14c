"""Spark-executed scans over the Parquet-like store (§5.1.1–§5.1.3).

Row groups fan out across Spark executors as an RDD of row-group indexes;
each task reads its chunk files, applies the query with
encoding-appropriate pruning and returns per-task timing stats:

* ``io_s`` — modeled I/O time: bytes read / ``io_gbps`` (the paper runs on
  a local NVMe; the OS page cache would hide real I/O here, so we charge a
  constant-bandwidth model and report bytes — DESIGN.md §2);
* ``decompress_s`` — zlib (≈zstd) block decompression, measured;
* ``scan_s`` — decode + predicate evaluation, measured.

The Fig 14 query is ``SELECT id FROM t WHERE t1 < ts % day < t2`` over an
almost-sorted ``ts``: Default decodes everything; FOR skips partitions
whose header range intersects no daily window but must decode a partition
fully once it overlaps; LeCo additionally inverts its model to decode only
the candidate position range inside a partition (§5.1.1's computation
pruning — valid because a partition's model bounds all its values).  Both
run through ``core.leco.positions_in``, the one exact pruning kernel that
``spark_codec.filter_scan`` uses too.
"""
from __future__ import annotations

import os
import time
import zlib
from typing import Iterator

import numpy as np
from pyspark.sql import SparkSession

from ..core.format import EncodedSequence
from ..core.leco import _decode_partition, decode_table, positions_in
from .encodings import gather_positions, parse_chunk
from .format import ChunkMeta, read_footer

_I64 = np.iinfo(np.int64)
#: the per-task stats each scan sums over its tasks
_STATS = ("rows_out", "bytes_read", "io_s", "decompress_s", "scan_s", "checksum")


def _read(path: str, meta: ChunkMeta, io_gbps: float, fn):
    """``fn(blob)`` on one chunk, and the chunk's cost ``[bytes read, io_s,
    decompress_s, scan_s]``: ``io_s`` charges ``io_gbps``, the rest is measured."""
    with open(os.path.join(path, meta.file), "rb") as f:
        raw = f.read()
    t0 = time.perf_counter()
    blob = zlib.decompress(raw) if meta.compressed else raw
    t1 = time.perf_counter()
    out = fn(blob)
    return out, np.array([len(raw), len(raw) / (io_gbps * 1e9), t1 - t0, time.perf_counter() - t1])


def _mod_positions(blob: bytes, t1: int, t2: int, mod: int) -> np.ndarray:
    """Chunk-local positions where ``t1 < v % mod < t2`` with pruning.

    FOR/LeCo chunks pass the exact daily windows
    ``[d·mod + max(t1+1, 0), d·mod + min(t2, mod) − 1]``, clipped to the
    chunk's value bounds, to :func:`positions_in` — unless the bounds span
    more days than the chunk has values; then the chunk is decoded and
    filtered like a plain one, so the work never exceeds a full decode."""
    kind, obj = parse_chunk(blob)
    if kind == "seq":
        enc: EncodedSequence = obj
        plo, phi = enc.value_bounds()
        if not plo:
            return np.empty(0, dtype=np.int64)
        # header bounds may pass the int64 range (``bias + 2^width``)
        lo, hi = max(min(plo), _I64.min), min(max(phi), _I64.max)
        if hi // mod - lo // mod + 1 <= enc.n:
            w_lo, w_hi = max(t1 + 1, 0), min(t2, mod) - 1
            days = range(lo // mod, hi // mod + 1)
            wins = [(max(d * mod + w_lo, lo), min(d * mod + w_hi, hi)) for d in days]
            wins = [w for w in wins if w[0] <= w[1]]
            return positions_in(enc, [w[0] for w in wins], [w[1] for w in wins])[0]
        obj = decode_table(enc)
    v = np.asarray(obj)
    return np.flatnonzero((v % mod > t1) & (v % mod < t2))


def _decode_part(enc: EncodedSequence, k: int, a: int = 0, b: int | None = None) -> np.ndarray:
    # perfbench's tracer names this function; keep it while it does
    return _decode_partition(enc.partitions, k, a, b)


def _run(spark: SparkSession, metas: list[ChunkMeta], column: str, read_rg) -> dict[str, float]:
    """Fan the row groups of ``column``'s chunks out over the session's
    default parallelism as an RDD of row indexes: each task maps its
    indexes to row-group ids and returns one plain tuple of stats.
    ``read_rg(rg_id)`` returns a row group's output values and cost (see
    :func:`_read`).  The checksum is the values' sum mod 2^62; it and the
    counts are summed as Python ints, so they stay exact at any size."""
    rg_ids = [m.rg_id for m in metas if m.column == column]

    def task(idx: Iterator[int]) -> Iterator[tuple]:
        cost = np.zeros(4)
        rows_out = checksum = 0
        for j in idx:
            vals, c = read_rg(rg_ids[j])
            cost += c
            rows_out += len(vals)
            checksum += int(vals.sum())  # wraps mod 2^64, so exact mod 2^62
        yield rows_out, int(cost[0]), *cost[1:].tolist(), checksum % (1 << 62)

    sc = spark.sparkContext
    parts = sc.parallelize(range(len(rg_ids)), sc.defaultParallelism).mapPartitions(task).collect()
    out = {name: sum(col) for name, col in zip(_STATS, zip(*parts))}
    out["checksum"] %= 1 << 62
    out["total_s"] = out["io_s"] + out["decompress_s"] + out["scan_s"]
    return out


def filter_scan_mod(
    spark: SparkSession,
    path: str,
    *,
    ts_col: str,
    id_col: str,
    t1: int,
    t2: int,
    mod: int = 24 * 60 * 60,
    io_gbps: float = 2.0,
) -> dict[str, float]:
    """Fig 14 query; returns rows_out, io/decompress/scan seconds, bytes."""
    metas = read_footer(path)
    by_rg = {(m.rg_id, m.column): m for m in metas}

    def read_rg(rg: int):
        pos, cost = _read(path, by_rg[rg, ts_col], io_gbps, lambda blob: _mod_positions(blob, t1, t2, mod))
        if not len(pos):
            return pos, cost
        ids, id_cost = _read(path, by_rg[rg, id_col], io_gbps, lambda blob: gather_positions(blob, pos))
        return ids, cost + id_cost

    return _run(spark, metas, ts_col, read_rg)


def bitmap_select(
    spark: SparkSession,
    path: str,
    *,
    column: str,
    positions: np.ndarray,
    io_gbps: float = 2.0,
) -> dict[str, float]:
    """Fig 17: decode ``column`` at global ``positions`` (a filter bitmap).

    Row groups containing no set bit are skipped entirely (zone/bitmap
    skipping); FOR/LeCo chunks read only the selected values."""
    metas = sorted((m for m in read_footer(path) if m.column == column), key=lambda m: m.rg_id)
    bounds = np.cumsum([0] + [m.n for m in metas])
    positions = np.sort(np.asarray(positions, dtype=np.int64))
    cut = np.searchsorted(positions, bounds)
    per_rg = {
        m.rg_id: positions[cut[i] : cut[i + 1]] - bounds[i]
        for i, m in enumerate(metas)
        if cut[i] < cut[i + 1]
    }
    keep = {m.rg_id: m for m in metas if m.rg_id in per_rg}

    def read_rg(rg: int):
        return _read(path, keep[rg], io_gbps, lambda blob: gather_positions(blob, per_rg[rg]))

    return _run(spark, list(keep.values()), column, read_rg)
