"""``lookup``: point reads, in process and without Spark (§5.2, Fig 20).

One SSTable of ``n_keys`` 20-byte keys with 400-byte values, indexed by the
LeCo index block, serves a skewed seek stream (``make_workload``: 80% of
seeks hit a Zipf-weighted hot 20%).  The block cache is smaller than the
hot set, so about two thirds of seeks miss.  After each seek the client
reads the row's integer column, stored both LeCo-fix and LeCo-var
(``access`` on each), and every ``RANGE_EVERY``-th seek also reads a short
range of it (``decode_range``).  Each cycle starts from an empty cache, so
every cycle does identical work.  This loads ``extract``, ``partition_of``,
the string codec's index search and the block cache, and runs no Spark code.
"""
from __future__ import annotations

import contextlib
import os
import time

import numpy as np

from repro import datasets
from repro.core import leco
from repro.experiments.rocksdb_bench import make_workload
from repro.rocksdb_sim import db as rdb
from repro.rocksdb_sim import sstable

from harness import SETUP_REPS, Op, median, tail, timed_median

CACHE_BYTES = 2_000_000
RANGE_EVERY = 16
RANGE_LEN = 64


class Lookup:
    name = "lookup"

    def __init__(self, seed: int, work_dir: str, *, n_keys: int = 200_000, seeks: int = 10_000):
        self.seed, self.work_dir, self.n_keys, self.n_seeks = seed, work_dir, n_keys, seeks
        self.tracer = None
        self.path = os.path.join(work_dir, "table.sst")
        self.db = None
        self.cycle_stats = None

    # -- set-up ---------------------------------------------------------------
    def _generate(self) -> None:
        self.keys, self.value, self.qkeys = make_workload(self.n_keys, self.n_seeks, self.seed)
        rank = {k: i for i, k in enumerate(self.keys)}
        self.rows = np.asarray([rank[k] for k in self.qkeys], dtype=np.int64)
        self.column = datasets.gen_books(self.n_keys, seed=self.seed)[0]

    def _write(self) -> None:
        self.entries = sstable.build_sstable(self.path, [(k, self.value) for k in self.keys])

    def _open(self) -> None:
        if self.db is not None:
            self.db.close()
        self.db = rdb.DB(self.path, self.entries, index_kind="leco", cache_bytes=CACHE_BYTES)

    def _encode_columns(self) -> None:
        self.fix, self.var = leco.LeCoFix(), leco.LeCoVar()
        self.enc_fix = self.fix.encode(self.column)
        self.enc_var = self.var.encode(self.column)

    def setup(self) -> dict[str, float]:
        parts = {
            "datagen": timed_median(self._generate, SETUP_REPS),
            "write": timed_median(self._write, SETUP_REPS),
            "index_build": timed_median(self._open, SETUP_REPS),
            "encode": timed_median(self._encode_columns, 1),  # LeCo-var: seconds per call
        }
        col_raw = 8 * self.n_keys
        self.index_bytes = self.db.index.nbytes()
        self.sizes = {
            "index": (self.index_bytes, sstable.raw_index_bytes(self.entries)),
            "column.fix": (self.enc_fix.nbytes(), col_raw),
            "column.var": (self.enc_var.nbytes(), col_raw),
        }
        return parts

    def warm_up(self, ledger) -> tuple[int, float]:
        t0 = time.perf_counter()
        ops = self.ops()
        for fn in ops:
            ledger.run(fn)
        return len(ops), time.perf_counter() - t0

    # -- operations -------------------------------------------------------------
    def _quiet(self):
        return self.tracer.pause() if self.tracer else contextlib.nullcontext()

    def _reset_cache(self) -> None:
        db = self.db
        db.cache.clear()
        db.cache_used = 0
        db.stats = rdb.SeekStats()

    def _seek(self, j: int):
        key = self.qkeys[j]
        first, last = j == 0, j == len(self.qkeys) - 1

        def op() -> Op:
            db = self.db
            if first:
                self._reset_cache()
            io0 = db.stats.modeled_io_s
            t0 = time.perf_counter()
            got = db.seek(key)
            dt = time.perf_counter() - t0 + (db.stats.modeled_io_s - io0)
            if last:
                self.cycle_stats = db.stats
            return Op("op", "seek", dt, None if got == self.value else "seek returned a wrong value")

        op.label = "seek"
        return op

    def _row(self, j: int):
        i = int(self.rows[j])

        def op() -> Op:
            t0 = time.perf_counter()
            a = self.fix.access(self.enc_fix, i)
            b = self.var.access(self.enc_var, i)
            dt = time.perf_counter() - t0
            want = int(self.column[i])
            return Op("op2", "row", dt, None if a == want and b == want else "access returned a wrong value")

        op.label = "row"
        return op

    def _range(self, j: int):
        i = int(self.rows[j])
        stop = min(self.n_keys, i + RANGE_LEN)

        def op() -> Op:
            t0 = time.perf_counter()
            a = self.fix.decode_range(self.enc_fix, i, stop)
            b = self.var.decode_range(self.enc_var, i, stop)
            dt = time.perf_counter() - t0
            with self._quiet():
                want = self.column[i:stop]
                ok = np.array_equal(a, want) and np.array_equal(b, want)
            return Op("aux", "range", dt, None if ok else "decode_range returned wrong values")

        op.label = "range"
        return op

    def ops(self) -> list:
        out = []
        for j in range(len(self.qkeys)):
            out += [self._seek(j), self._row(j)]
            if j % RANGE_EVERY == 0:
                out.append(self._range(j))
        return out

    # -- reporting --------------------------------------------------------------
    def counters(self) -> dict[str, float]:
        s = self.cycle_stats
        return {
            "seeks": self.n_seeks,
            "cache_hits": s.hits if s else 0,
            "cache_misses": s.misses if s else 0,
            "values_accessed": 2 * self.n_seeks,
            "values_decoded": 2 * sum(
                min(self.n_keys, int(self.rows[j]) + RANGE_LEN) - int(self.rows[j])
                for j in range(0, self.n_seeks, RANGE_EVERY)
            ),
        }

    def named_metrics(self, ledger) -> dict[str, tuple[float, str]]:
        seeks = ledger.seconds("op")
        t = tail(seeks) or (0.0, 0.0)
        return {
            "lookup.seek_p50_us": (median(seeks) * 1e6, "us"),
            "lookup.seek_tail_us": (t[0] * 1e6, "us"),
            "lookup.seek_tail_pct": (t[1], "%"),
            "lookup.access_p50_us": (median(ledger.seconds("op2")) / 2 * 1e6, "us"),
            "lookup.range_p50_us": (median(ledger.seconds("aux")) * 1e6, "us"),
        }

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
