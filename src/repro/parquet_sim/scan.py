"""Spark-executed scans over the Parquet-like store (§5.1.1–§5.1.3).

Row groups fan out across Spark executors via ``mapInPandas``; each task
reads its chunk files, applies the query with encoding-appropriate pruning
and returns per-task timing stats:

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
pruning — valid because a partition's model bounds all its values).
"""
from __future__ import annotations

import os
import time
import zlib
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from ..core.format import EncodedSequence
from .encodings import decode_chunk, gather_positions, parse_chunk
from .format import ChunkMeta, read_footer

_STATS_SCHEMA = StructType(
    [
        StructField("rows_out", LongType()),
        StructField("bytes_read", LongType()),
        StructField("io_s", DoubleType()),
        StructField("decompress_s", DoubleType()),
        StructField("scan_s", DoubleType()),
        StructField("checksum", LongType()),
    ]
)


def _read(path: str, meta_row, io_gbps: float) -> tuple[bytes, int, float, float]:
    with open(os.path.join(path, meta_row.file), "rb") as f:
        raw = f.read()
    io_s = len(raw) / (io_gbps * 1e9)
    t0 = time.perf_counter()
    blob = zlib.decompress(raw) if meta_row.compressed else raw
    return blob, len(raw), io_s, time.perf_counter() - t0


def _windows_overlapping(lo: int, hi: int, t1: int, t2: int, mod: int) -> list[tuple[int, int]]:
    """Daily windows ``[d·mod+t1, d·mod+t2]`` intersecting ``[lo, hi]``."""
    out = []
    for d in range(lo // mod, hi // mod + 1):
        wlo, whi = d * mod + t1, d * mod + t2
        if whi >= lo and wlo <= hi:
            out.append((max(wlo, lo), min(whi, hi)))
    return out


def _mod_positions(blob: bytes, t1: int, t2: int, mod: int) -> np.ndarray:
    """Chunk-local positions where ``t1 < v % mod < t2`` with pruning."""
    kind, obj = parse_chunk(blob)
    if kind in ("plain", "dict"):
        v = np.asarray(obj)
        return np.flatnonzero((v % mod > t1) & (v % mod < t2))
    enc: EncodedSequence = obj
    t = enc.partitions
    plo, phi = enc.value_bounds()
    starts = np.append(enc.starts, enc.n).astype(np.int64)
    out = []
    for k in range(len(t)):
        wins = _windows_overlapping(plo[k], phi[k], t1, t2, mod)
        if not wins:
            continue  # partition skipped from the header alone
        t0_, t1_ = t.theta0.item(k), t.theta1.item(k)
        if t1_ <= 0:  # FOR, or a LeCo line with no slope to invert
            vals = _decode_part(enc, k)
            m = (vals % mod > t1) & (vals % mod < t2)
            out.append(starts[k] + np.flatnonzero(m))
            continue
        # LeCo: invert the model per window to bound candidate positions.
        bias, w, n = t.bias.item(k), t.width.item(k), t.n.item(k)
        for wlo, whi in wins:
            a = max(0, int(np.floor((wlo - bias - (1 << w) - t0_) / t1_)))
            b = min(n, int(np.ceil((whi - bias - t0_) / t1_)) + 1)
            if a >= b:
                continue
            vals = _decode_part(enc, k, a, b)
            m = (vals % mod > t1) & (vals % mod < t2)
            out.append(starts[k] + a + np.flatnonzero(m))
    if not out:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(out))


def _decode_part(enc: EncodedSequence, k: int, a: int = 0, b: int | None = None) -> np.ndarray:
    from ..core.leco import _decode_partition

    return _decode_partition(enc.partitions, k, a, b)


def _meta_df(spark: SparkSession, metas: list[ChunkMeta], col: str) -> DataFrame:
    rows = [(m.rg_id, m.file, m.n, m.vmin, m.vmax, m.compressed) for m in metas if m.column == col]
    return spark.createDataFrame(
        pd.DataFrame(rows, columns=["rg_id", "file", "n", "vmin", "vmax", "compressed"])
    ).repartition(16, "rg_id")


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
    by_rg: dict[int, dict[str, ChunkMeta]] = {}
    for m in metas:
        by_rg.setdefault(m.rg_id, {})[m.column] = m

    def task(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        stats = np.zeros(4)
        rows_out = 0
        checksum = 0
        for b in batches:
            for _, r in b.iterrows():
                ts_meta = by_rg[int(r.rg_id)][ts_col]
                blob, nb, io_s, dz_s = _read(path, ts_meta, io_gbps)
                t0 = time.perf_counter()
                pos = _mod_positions(blob, t1, t2, mod)
                scan_s = time.perf_counter() - t0
                stats += (nb, io_s, dz_s, scan_s)
                if len(pos) == 0:
                    continue
                id_meta = by_rg[int(r.rg_id)][id_col]
                blob, nb, io_s, dz_s = _read(path, id_meta, io_gbps)
                t0 = time.perf_counter()
                ids = gather_positions(blob, pos)
                scan_s = time.perf_counter() - t0
                stats += (nb, io_s, dz_s, scan_s)
                rows_out += len(ids)
                checksum += int(ids.sum())
        yield pd.DataFrame(
            [[rows_out, int(stats[0]), stats[1], stats[2], stats[3], checksum % (1 << 62)]],
            columns=[f.name for f in _STATS_SCHEMA.fields],
        )

    agg = _meta_df(spark, metas, ts_col).mapInPandas(task, schema=_STATS_SCHEMA).toPandas()
    return {
        "rows_out": int(agg.rows_out.sum()),
        "bytes_read": int(agg.bytes_read.sum()),
        "io_s": float(agg.io_s.sum()),
        "decompress_s": float(agg.decompress_s.sum()),
        "scan_s": float(agg.scan_s.sum()),
        "total_s": float(agg.io_s.sum() + agg.decompress_s.sum() + agg.scan_s.sum()),
        "checksum": int(agg.checksum.sum()),
    }


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
    skipping); FOR/LeCo chunks decode only touched partitions."""
    metas = [m for m in read_footer(path) if m.column == column]
    metas.sort(key=lambda m: m.rg_id)
    bounds = np.cumsum([0] + [m.n for m in metas])
    positions = np.sort(np.asarray(positions, dtype=np.int64))
    per_rg = {
        m.rg_id: positions[(positions >= bounds[i]) & (positions < bounds[i + 1])] - bounds[i]
        for i, m in enumerate(metas)
    }
    per_rg = {k: v for k, v in per_rg.items() if len(v)}
    keep = [m for m in metas if m.rg_id in per_rg]

    def task(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        stats = np.zeros(4)
        rows_out = checksum = 0
        for b in batches:
            for _, r in b.iterrows():
                m = next(x for x in keep if x.rg_id == int(r.rg_id))
                blob, nb, io_s, dz_s = _read(path, m, io_gbps)
                t0 = time.perf_counter()
                vals = gather_positions(blob, per_rg[m.rg_id])
                scan_s = time.perf_counter() - t0
                stats += (nb, io_s, dz_s, scan_s)
                rows_out += len(vals)
                checksum += int(vals.sum())
        yield pd.DataFrame(
            [[rows_out, int(stats[0]), stats[1], stats[2], stats[3], checksum % (1 << 62)]],
            columns=[f.name for f in _STATS_SCHEMA.fields],
        )

    agg = _meta_df(spark, keep, column).mapInPandas(task, schema=_STATS_SCHEMA).toPandas()
    return {
        "rows_out": int(agg.rows_out.sum()),
        "bytes_read": int(agg.bytes_read.sum()),
        "io_s": float(agg.io_s.sum()),
        "decompress_s": float(agg.decompress_s.sum()),
        "scan_s": float(agg.scan_s.sum()),
        "total_s": float(agg.io_s.sum() + agg.decompress_s.sum() + agg.scan_s.sum()),
        "checksum": int(agg.checksum.sum()),
    }
