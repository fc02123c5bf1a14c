"""``scan``: the read path users wait on, through Spark (§5.1, Figs 14/17).

Set-up writes the Fig 14 ``(ts, id)`` table (``n`` rows in ``row_group``-row
groups) in the ``leco`` and ``for`` encodings and caches an ``encode_column``
DataFrame of ``ts``; all encoding happens there.  One cycle runs, round
robin, against both files: ``filter_scan_mod`` at three daily windows and
``bitmap_select`` on ``id`` at two selectivities (the main operation), and
between them range aggregates on ``ts`` over ``spark_codec.decode_column``
of the cached frame (the second operation).  Every result is compared with
a numpy oracle built at set-up: row count plus checksum.

This loads ``from_bytes``, ``unpack``, decode, ``gather_positions``, the
Parquet scans' model-inversion pruning and Spark orchestration.  Executor
code runs in separate Python workers, so the traced run replays each
query's per-chunk calls driver-side over the same files and cached blobs.

``spark_codec.filter_scan`` is not in the mix: it drops rows when a
partition's slope is below 1 (sorted ``ts`` with repeated seconds), so the
range aggregates decode the whole column and filter in Spark instead.
"""
from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd

from repro import datasets, spark_codec
from repro.core import format as cformat
from repro.core.codec_api import get_codec
from repro.experiments.parquet_bench import IO_GBPS, zipf_bitmap
from repro.parquet_sim import encodings as penc
from repro.parquet_sim import format as pq
from repro.parquet_sim import scan as pscan

import sparkenv
from harness import Op, median, tail, timed_median, warm_until_steady

DAY = 24 * 60 * 60
T1 = 3600
MOD_WINDOWS = (600, 3600, 14400)
BITMAP_SELS = (1e-4, 1e-2)
RANGE_FRACS = (1e-3, 1e-2, 1e-1)  # range window widths, as a share of the ts span
RANGES_PER_FRAC = 2
ENCODINGS = ("leco", "for")
CHECKSUM_MOD = 1 << 62  # the scans sum per-task checksums, each reduced mod 2^62
WARM_BLOCK = 6
WARM_MAX_BLOCKS = 3


class Scan:
    name = "scan"

    def __init__(self, seed: int, work_dir: str, src_dir: str, *,
                 n: int = 8_000_000, row_group: int = 500_000):
        self.seed, self.work_dir, self.src_dir = seed, work_dir, src_dir
        self.n, self.row_group = n, row_group
        self.tracer = None
        self.spark = None
        self.paths = {enc: os.path.join(work_dir, f"fig14-{enc}") for enc in ENCODINGS}
        self.first_counts: dict[int, dict[str, float]] = {}  # op index -> counts of its first run
        self._decoded = None  # the cached column, decoded by the first traced replay

    # -- set-up ---------------------------------------------------------------
    def _generate(self) -> None:
        ts = datasets.gen_ml(self.n, seed=self.seed)[0] // 1000  # ms -> s
        ids = datasets.gen_fb(self.n, seed=self.seed + 1)[0]
        np.random.default_rng(self.seed).shuffle(ids)
        self.ts, self.ids = ts, ids
        self.pdf = pd.DataFrame({"ts": ts, "id": ids})

    def _write(self) -> None:
        for enc, path in self.paths.items():
            pq.write_file(self.pdf, path, {"ts": enc, "id": enc}, row_group_rows=self.row_group)

    def _cache(self) -> None:
        # one Arrow batch, hence one Spark partition, per executor thread; the
        # default 10K-row batches would give n/10K partitions of tiny chunks
        conf = self.spark.conf
        conf.set("spark.sql.execution.arrow.maxRecordsPerBatch", str(-(-self.n // sparkenv.threads())))
        try:
            sdf = self.spark.createDataFrame(pd.DataFrame({"ts": self.ts}))
        finally:
            conf.unset("spark.sql.execution.arrow.maxRecordsPerBatch")
        self.enc_df = spark_codec.encode_column(
            sdf, "ts", scheme="LeCo-fix", chunk_rows=self.row_group
        ).cache()
        self.enc_df.count()

    def _oracles(self) -> None:
        ts, ids = self.ts, self.ids
        tod = ts % DAY
        self.mod_want = {}
        for w in MOD_WINDOWS:
            m = (tod > T1) & (tod < T1 + w)
            self.mod_want[w] = (int(m.sum()), int(ids[m].sum()) % CHECKSUM_MOD)
        self.bitmaps = {s: zipf_bitmap(self.n, s, seed=self.seed) for s in BITMAP_SELS}
        self.bm_want = {
            s: (len(p), int(ids[p].sum()) % CHECKSUM_MOD) for s, p in self.bitmaps.items()
        }
        g = np.random.default_rng(self.seed)
        t_min, span = int(ts.min()), int(ts.max() - ts.min())
        self.ranges = []
        for _ in range(RANGES_PER_FRAC):
            for frac in RANGE_FRACS:
                width = int(span * frac)
                lo = t_min + int(g.integers(0, span - width))  # the window lies inside the data
                hi = lo + width
                m = (ts >= lo) & (ts <= hi)
                self.ranges.append((frac, lo, hi, int(m.sum()), int(ts[m].sum())))

    def setup(self) -> dict[str, float]:
        t0 = time.perf_counter()
        self.spark = sparkenv.start(self.work_dir, self.src_dir)
        parts = {"spark_start": time.perf_counter() - t0}
        # one repetition each: the run's time budget goes to the Spark session,
        # the cache and the warm-up, which cannot be repeated in one process
        parts["datagen"] = timed_median(self._generate, 1)
        parts["write"] = timed_median(self._write, 1)
        parts["cache"] = timed_median(self._cache, 1)
        self._oracles()
        raw = 8 * self.n
        self.sizes = {f"file.{e}": (pq.file_bytes(p), 2 * raw) for e, p in self.paths.items()}
        self.sizes["cache.ts"] = (spark_codec.sizes(self.enc_df)["encoded_bytes"], raw)
        return parts

    def warm_up(self, ledger) -> tuple[int, float]:
        return warm_until_steady(ledger, self.ops(), block=WARM_BLOCK, max_blocks=WARM_MAX_BLOCKS)

    # -- operations -------------------------------------------------------------
    def _op(self, j: int, kind: str, label: str, job, want, replay):
        """Wrap a Spark job: time it, compare with the oracle, replay when traced."""

        def op() -> Op:
            t0 = time.perf_counter()
            if self.tracer:
                with self.tracer.span("spark.job"):
                    got, counts = job()
            else:
                got, counts = job()
            dt = time.perf_counter() - t0
            error = None if got == want else f"got (rows, checksum) {got}, want {want}"
            if self.tracer:
                replayed = replay()
                if replayed != want:
                    error = (error or "") + f" driver-side replay got {replayed}, want {want}"
            self.first_counts.setdefault(j, counts)
            return Op(kind, label, dt, error, counts)

        op.label = label
        return op

    def _mod_op(self, j: int, enc: str, w: int):
        path = self.paths[enc]

        def job():
            r = pscan.filter_scan_mod(
                self.spark, path, ts_col="ts", id_col="id", t1=T1, t2=T1 + w, mod=DAY,
                io_gbps=IO_GBPS,
            )
            return (r["rows_out"], r["checksum"] % CHECKSUM_MOD), _task_counts(r)

        return self._op(j, "op", f"mod{w}.{enc}", job, self.mod_want[w],
                        lambda: self._replay_mod(path, w))

    def _bitmap_op(self, j: int, enc: str, sel: float):
        path = self.paths[enc]

        def job():
            r = pscan.bitmap_select(
                self.spark, path, column="id", positions=self.bitmaps[sel], io_gbps=IO_GBPS
            )
            return (r["rows_out"], r["checksum"] % CHECKSUM_MOD), _task_counts(r)

        return self._op(j, "op", f"bm{sel:g}.{enc}", job, self.bm_want[sel],
                        lambda: self._replay_bitmap(path, sel))

    def _range_op(self, j: int, k: int):
        from pyspark.sql import functions as F

        _, lo, hi, cnt, total = self.ranges[k]

        def job():
            r = (
                spark_codec.decode_column(self.enc_df, "ts")
                .where(F.col("ts").between(lo, hi))
                .agg(F.count("*").alias("c"), F.sum("ts").alias("s"))
                .collect()[0]
            )
            return (int(r.c), int(r.s or 0)), {"rows_out": int(r.c)}

        # every window decodes the whole column, so all share one type
        return self._op(j, "op2", "decode", job, (cnt, total),
                        lambda: self._replay_range(lo, hi))

    def ops(self) -> list:
        parquet = [("mod", enc, w) for w in MOD_WINDOWS for enc in ENCODINGS]
        parquet += [("bm", enc, s) for s in BITMAP_SELS for enc in ENCODINGS]
        # interleave kinds, so the warm-up (the first operations) meets each of them
        order = [parquet[i] for i in (0, 7, 3, 8, 4, 6, 1, 9, 2, 5)]
        after = {k * len(order) // len(self.ranges): k for k in range(len(self.ranges))}
        out: list = []
        for i, (kind, enc, arg) in enumerate(order):
            make = self._mod_op if kind == "mod" else self._bitmap_op
            out.append(make(len(out), enc, arg))
            if i in after:
                out.append(self._range_op(len(out), after[i]))
        return out

    # -- driver-side replay of the executors' per-chunk calls (traced run) -----
    def _replay_mod(self, path: str, w: int) -> tuple[int, int]:
        by_rg: dict[int, dict[str, pq.ChunkMeta]] = {}
        for m in pq.read_footer(path):
            by_rg.setdefault(m.rg_id, {})[m.column] = m
        rows = checksum = 0
        with self.tracer.span("parquet.task"):
            for rg in sorted(by_rg):
                blob, _ = pq.read_chunk(path, by_rg[rg]["ts"])
                pos = pscan._mod_positions(blob, T1, T1 + w, DAY)
                if len(pos) == 0:
                    continue
                blob, _ = pq.read_chunk(path, by_rg[rg]["id"])
                got = penc.gather_positions(blob, pos)
                rows += len(got)
                checksum += int(got.sum())
        return rows, checksum % CHECKSUM_MOD

    def _replay_bitmap(self, path: str, sel: float) -> tuple[int, int]:
        metas = sorted((m for m in pq.read_footer(path) if m.column == "id"), key=lambda m: m.rg_id)
        bounds = np.cumsum([0] + [m.n for m in metas])
        pos = self.bitmaps[sel]
        rows = checksum = 0
        with self.tracer.span("parquet.task"):
            for i, m in enumerate(metas):
                local = pos[(pos >= bounds[i]) & (pos < bounds[i + 1])] - bounds[i]
                if len(local) == 0:
                    continue
                blob, _ = pq.read_chunk(path, m)
                got = penc.gather_positions(blob, local)
                rows += len(got)
                checksum += int(got.sum())
        return rows, checksum % CHECKSUM_MOD

    def _replay_range(self, lo: int, hi: int) -> tuple[int, int]:
        # every window decodes the same column: replay the decode once per
        # workload and filter the kept values for the others, which keeps
        # the traced cycle within the run's time limit
        if self._decoded is None:
            with self.tracer.pause():
                rows = self.enc_df.select("scheme", "blob").collect()
            with self.tracer.span("spark_codec.decode_column"):
                self._decoded = np.concatenate([
                    get_codec(r.scheme).decode(cformat.EncodedSequence.from_bytes(bytes(r.blob)))
                    for r in rows
                ])
        vals = self._decoded[(self._decoded >= lo) & (self._decoded <= hi)]
        return len(vals), int(vals.sum())

    # -- reporting --------------------------------------------------------------
    def counters(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for counts in self.first_counts.values():
            for k in ("bytes_read", "rows_out"):
                out[k] = out.get(k, 0) + counts.get(k, 0)
        return out

    def named_metrics(self, ledger) -> dict[str, tuple[float, str]]:
        q = ledger.seconds()
        t = tail(q) or (0.0, 0.0)
        out = {
            "scan.query_p50_s": (median(q), "s"),
            "scan.query_tail_s": (t[0], "s"),
            "scan.query_tail_pct": (t[1], "%"),
        }
        for label in ledger.labels():
            out[f"scan.{label}.p50_s"] = (median(ledger.seconds(label=label)), "s")
        return out

    def close(self) -> None:
        if self.spark is not None:
            sparkenv.stop(self.spark)
            self.spark = None


def _task_counts(r: dict) -> dict[str, float]:
    """Per-task stats the Parquet scans already return, summed over tasks."""
    return {k: r[k] for k in ("bytes_read", "rows_out", "io_s", "decompress_s", "scan_s")}
