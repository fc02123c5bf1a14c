"""Parquet integration experiments (§5.1): Figs 14, 17, 18, 19.

Workload (Fig 14): a 2-column table — ``ts`` almost-sorted second-level
timestamps (ml-shaped) and ``id`` shuffled fb-shaped user IDs — scaled from
the paper's 200M rows.  Query: ``SELECT id WHERE t1 < ts % 86400 < t2``
with the time range varied to control selectivity.  Fig 17 feeds Zipf-
clustered bitmaps to a single-column file.  Fig 18/19 re-run with zlib
(the offline zstd stand-in) block compression.

The modeled I/O bandwidth is scaled down with the data (DESIGN.md §2) so
the I/O:CPU balance stays representative of the paper's NVMe setup.
"""
from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..datasets import gen_fb, gen_ml, load_int
from ..parquet_sim.format import file_bytes, write_file
from ..parquet_sim.scan import bitmap_select, filter_scan_mod

DAY = 24 * 60 * 60
ENCODINGS = ("default", "for", "leco")
IO_GBPS = 0.05  # scaled NVMe bandwidth (see module docstring)


def fig14_table(n: int, seed: int = 0) -> pd.DataFrame:
    ts, _ = gen_ml(n)
    ts = ts // 1000  # ms → s
    ids, _ = gen_fb(n)
    g = np.random.default_rng(seed)
    g.shuffle(ids)
    return pd.DataFrame({"ts": ts, "id": ids})


def write_fig14_files(
    pdf: pd.DataFrame, *, row_group_rows: int = 100_000, partition_len: int = 10_000,
    block_compression: str | None = None, base_dir: str | None = None,
) -> dict[str, str]:
    base = base_dir or tempfile.mkdtemp(prefix="leco-parquet-")
    paths = {}
    for enc in ENCODINGS:
        path = f"{base}/{enc}" + ("-zlib" if block_compression else "")
        write_file(
            pdf, path, {"ts": enc, "id": enc},
            row_group_rows=row_group_rows, partition_len=partition_len,
            block_compression=block_compression,
        )
        paths[enc] = path
    return paths


@dataclass
class ScanResult:
    encoding: str
    selectivity: float
    file_mb: float
    rows_out: int
    io_s: float
    decompress_s: float
    scan_s: float
    total_s: float


def run_fig14(
    spark: SparkSession,
    paths: dict[str, str],
    *,
    windows: tuple[int, ...] = (600, 3600, 14400),
    io_gbps: float = IO_GBPS,
) -> list[ScanResult]:
    out: list[ScanResult] = []
    for width in windows:
        t1, t2 = 3600, 3600 + width
        for enc, path in paths.items():
            r = filter_scan_mod(
                spark, path, ts_col="ts", id_col="id", t1=t1, t2=t2, mod=DAY, io_gbps=io_gbps
            )
            out.append(
                ScanResult(
                    enc, width / DAY, file_bytes(path) / 1e6, r["rows_out"],
                    r["io_s"], r["decompress_s"], r["scan_s"], r["total_s"],
                )
            )
    return out


#: set-bit runs per Fig 17 bitmap
_BITMAP_RUNS = 10


def zipf_bitmap(n: int, selectivity: float, seed: int = 1) -> np.ndarray:
    """Fig 17 bitmaps: ``_BITMAP_RUNS`` set-bit runs with Zipf-like run sizes."""
    g = np.random.default_rng(seed)
    k = max(1, int(n * selectivity))
    w = 1.0 / np.arange(1, _BITMAP_RUNS + 1) ** 1.2
    sizes = np.maximum(1, (k * w / w.sum()).astype(int))
    starts = np.sort(g.integers(0, max(1, n - int(sizes.max())), _BITMAP_RUNS))
    pos = np.unique(
        np.concatenate([np.arange(s, min(n, s + sz)) for s, sz in zip(starts, sizes)])
    )
    return pos


def run_fig17(
    spark: SparkSession,
    *,
    dataset: str,
    n: int = 400_000,
    selectivities: tuple[float, ...] = (0.0001, 0.001, 0.01, 0.1),
    row_group_rows: int = 50_000,
    block_compression: str | None = None,
    io_gbps: float = IO_GBPS,
    base_dir: str | None = None,
) -> list[ScanResult]:
    values, _ = load_int(dataset, n)
    pdf = pd.DataFrame({"v": values})
    base = base_dir or tempfile.mkdtemp(prefix=f"leco-bm-{dataset}-")
    out: list[ScanResult] = []
    for enc in ENCODINGS:
        path = f"{base}/{enc}" + ("-zlib" if block_compression else "")
        write_file(
            pdf, path, {"v": enc}, row_group_rows=row_group_rows,
            block_compression=block_compression,
        )
        for sel in selectivities:
            pos = zipf_bitmap(n, sel)
            r = bitmap_select(spark, path, column="v", positions=pos, io_gbps=io_gbps)
            out.append(
                ScanResult(
                    enc, sel, file_bytes(path) / 1e6, r["rows_out"],
                    r["io_s"], r["decompress_s"], r["scan_s"], r["total_s"],
                )
            )
    return out


def run_fig18(*, datasets=("normal", "poisson", "books", "ml"), n: int = 300_000) -> list[dict]:
    """File sizes with and without zlib on top of each encoding."""
    rows = []
    for ds in datasets:
        values, _ = load_int(ds, n)
        pdf = pd.DataFrame({"v": values})
        for enc in ENCODINGS:
            sizes = {}
            for bc in (None, "zlib"):
                base = tempfile.mkdtemp(prefix="leco-f18-")
                path = f"{base}/f"
                write_file(pdf, path, {"v": enc}, row_group_rows=100_000, block_compression=bc)
                sizes["zlib" if bc else "plain"] = file_bytes(path)
                shutil.rmtree(base)
            rows.append(
                {
                    "dataset": ds, "encoding": enc,
                    "plain_mb": sizes["plain"] / 1e6, "zlib_mb": sizes["zlib"] / 1e6,
                    "zlib_gain": 1 - sizes["zlib"] / sizes["plain"],
                }
            )
    return rows


def print_fig18(rows: list[dict]) -> str:
    lines = ["== Fig 18: file sizes with zlib (zstd stand-in) block compression =="]
    lines.append(f"{'dataset':10s} {'encoding':9s} {'plain_MB':>9s} {'zlib_MB':>9s} {'zlib_gain':>10s}")
    for r in rows:
        lines.append(
            f"{r['dataset']:10s} {r['encoding']:9s} {r['plain_mb']:>9.3f} "
            f"{r['zlib_mb']:>9.3f} {r['zlib_gain']:>9.1%}"
        )
    return "\n".join(lines)


def run_fig19(
    spark: SparkSession, *, n: int = 300_000, selectivity: float = 0.01, io_gbps: float = IO_GBPS
) -> list[tuple[str, ScanResult]]:
    """Fig 19: bitmap-selection time breakdown (ml, sel=0.01) with/without
    zlib — shows block decompression outweighing its I/O savings."""
    out: list[tuple[str, ScanResult]] = []
    for bc in (None, "zlib"):
        rs = run_fig17(
            spark, dataset="ml", n=n, selectivities=(selectivity,),
            block_compression=bc, io_gbps=io_gbps,
        )
        out.extend(("zlib" if bc else "plain", r) for r in rs)
    return out


def print_fig19(rows: list[tuple[str, ScanResult]]) -> str:
    lines = ["== Fig 19: time breakdown with block compression (ml, sel=0.01) =="]
    lines.append(f"{'config':14s} {'file_MB':>8s} {'io_s':>7s} {'decompress_s':>12s} {'scan_s':>7s} {'total_s':>8s}")
    for bc, r in rows:
        lines.append(
            f"{r.encoding + '+' + bc:14s} {r.file_mb:>8.2f} {r.io_s:>7.3f} "
            f"{r.decompress_s:>12.3f} {r.scan_s:>7.3f} {r.total_s:>8.3f}"
        )
    return "\n".join(lines)


def print_fig14(results: list[ScanResult]) -> str:
    lines = ["== Fig 14: Parquet filter-scan  SELECT id WHERE t1 < ts%day < t2 =="]
    lines.append(
        f"{'enc':8s} {'sel':>7s} {'file_MB':>8s} {'rows':>8s} {'io_s':>7s} {'scan_s':>7s} {'total_s':>8s}"
    )
    for r in results:
        lines.append(
            f"{r.encoding:8s} {r.selectivity:>7.4f} {r.file_mb:>8.2f} {r.rows_out:>8d} "
            f"{r.io_s:>7.3f} {r.scan_s:>7.3f} {r.total_s:>8.3f}"
        )
    return "\n".join(lines)


def print_fig17(results: list[ScanResult], title: str = "Fig 17") -> str:
    lines = [f"== {title}: Parquet bitmap selection =="]
    lines.append(
        f"{'enc':8s} {'sel':>8s} {'file_MB':>8s} {'io_s':>7s} {'dz_s':>7s} {'scan_s':>7s} {'total_s':>8s}"
    )
    for r in results:
        lines.append(
            f"{r.encoding:8s} {r.selectivity:>8.4f} {r.file_mb:>8.2f} {r.io_s:>7.3f} "
            f"{r.decompress_s:>7.3f} {r.scan_s:>7.3f} {r.total_s:>8.3f}"
        )
    return "\n".join(lines)
