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
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from ..core.format import EncodedSequence
from ..core.leco import _decode_partition, decode_table, positions_in
from .encodings import gather_positions, parse_chunk
from .format import ChunkMeta, read_footer

_I64 = np.iinfo(np.int64)
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
