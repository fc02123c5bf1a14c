"""Benchmark entry point.

    python3 perfbench/run.py --workload {ingest,scan,lookup} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src``.
Every run sets up, warms up, then runs whole cycles of the workload's
operation mix, untraced, until ``--seconds`` have passed (at least one).
``--trace 0`` reports the end-to-end metrics from them.  ``--trace 1`` then
runs exactly one traced cycle and reports per-layer self times, counts and
the tracing overhead against the untraced cycles.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name every failed operation and print the workload's figures by name.
Full results, and for ``--trace 1`` every span, go to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from collections import Counter

from harness import Ledger, run_cycles, typical_latency
from sparkenv import threads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("ingest", "scan", "lookup")

#: end-to-end metrics reported with ``--trace 0`` (name -> unit)
END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "op2_ms": "ms",
    "bytes_ratio": "ratio",
}

_SELF_TIMED = [
    "bitpack.pack", "bitpack.unpack", "bitpack.extract",
    "regressor.fit", "leco.fit_rows", "leco.fixed_widths",
    "partitioner.search", "partitioner.var",
    "codec.encode", "codec.decode", "codec.decode_range", "codec.access",
    "format.to_bytes", "format.from_bytes",
    "parquet.write_file", "parquet.parse_chunk", "parquet.mod_positions", "parquet.gather",
    "parquet.task", "spark_codec.decode_column",
    "rocksdb.seek", "rocksdb.index_seek", "rocksdb.fetch_block",
    "string_codec.decode", "string_codec.map",
]
_CALLS = [
    "bitpack.pack", "bitpack.unpack", "bitpack.extract", "regressor.fit",
    "codec.access", "format.from_bytes", "parquet.gather", "rocksdb.seek",
]
_SCAN_LABELS = (
    [f"mod{w}.{e}" for w in (600, 3600, 14400) for e in ("leco", "for")]
    + [f"bm{s:g}.{e}" for s in (1e-4, 1e-2) for e in ("leco", "for")]
    + ["decode"]
)

#: per-layer metrics reported with ``--trace 1`` (name -> unit); 0 where a
#: workload does not load the layer
PER_LAYER = {
    **{f"{n}_s": "s" for n in _SELF_TIMED},
    **{f"{n}_calls": "count" for n in _CALLS},
    "bitpack.bytes": "B",
    "codec.values_encoded": "count",
    "codec.values_decoded": "count",
    "partitioner.partitions": "count",
    "partitioner.mean_len": "values",
    "format.model_share": "ratio",
    "parquet.task_scan_s": "s",
    "parquet.decompress_s": "s",
    "parquet.io_s": "s",
    "parquet.bytes_read": "B",
    "parquet.rows_out": "count",
    "spark.job_wall_s": "s",
    "spark.task_busy_s": "s",
    "spark.busy_share": "ratio",
    "rocksdb.cache_hits": "count",
    "rocksdb.cache_misses": "count",
    "rocksdb.hit_rate": "ratio",
    "rocksdb.modeled_io_s": "s",
    "rocksdb.index_bytes": "B",
    "rocksdb.index_build_s": "s",
    "setup.spark_start_s": "s",
    "setup.datagen_s": "s",
    "setup.write_s": "s",
    "setup.cache_s": "s",
    "setup.encode_s": "s",
    "setup.warmup_s": "s",
    "setup.warmup_ops": "count",
    "ingest.encode_fix_mvps": "Mvalues/s",
    "ingest.encode_var_mvps": "Mvalues/s",
    "scan.query_p50_s": "s",
    "scan.query_tail_s": "s",
    "scan.query_tail_pct": "%",
    **{f"scan.{label}.p50_s": "s" for label in _SCAN_LABELS},
    "lookup.seek_p50_us": "us",
    "lookup.seek_tail_us": "us",
    "lookup.seek_tail_pct": "%",
    "lookup.access_p50_us": "us",
    "lookup.range_p50_us": "us",
    "fail_frac": "ratio",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}


def make_workload(name: str, seed: int, work_dir: str):
    if name == "ingest":
        from ingest import Ingest

        return Ingest(seed, work_dir)
    if name == "lookup":
        from lookup import Lookup

        return Lookup(seed, work_dir)
    from scan import Scan

    return Scan(seed, work_dir, SRC)


def bytes_ratio(workload) -> float:
    stored = sum(s for s, _ in workload.sizes.values())
    raw = sum(r for _, r in workload.sizes.values())
    return stored / raw


def end_to_end(workload, parts: dict, ledger) -> dict[str, float]:
    return {
        "setup_s": sum(parts.values()),
        "op_ms": typical_latency(ledger, "op") * 1e3,
        "op2_ms": typical_latency(ledger, "op2") * 1e3,
        "bytes_ratio": bytes_ratio(workload),
    }


def per_layer(workload, tracer, parts: dict, warm: tuple, ref, ref_cycles: int, traced,
              fail_frac: float) -> dict[str, float]:
    m = {name: 0.0 for name in PER_LAYER}
    for name in _SELF_TIMED:
        m[f"{name}_s"] = tracer.self_s.get(name, 0.0)
    for name in _CALLS:
        m[f"{name}_calls"] = tracer.calls.get(name, 0)
    c = tracer.count
    for key in ("bitpack.bytes", "codec.values_encoded", "codec.values_decoded",
                "partitioner.partitions"):
        m[key] = c.get(key, 0)
    if c.get("partitioner.partitions"):
        m["partitioner.mean_len"] = c["codec.values_encoded"] / c["partitioner.partitions"]
    if c.get("format.encoded_bytes"):
        m["format.model_share"] = c["format.model_bytes"] / c["format.encoded_bytes"]
    for part, secs in parts.items():
        key = "rocksdb.index_build_s" if part == "index_build" else f"setup.{part}_s"
        m[key] = secs
    m["setup.warmup_ops"], m["setup.warmup_s"] = warm

    counts = traced.counts()
    if workload.name == "scan":
        for key, stat in (("parquet.task_scan_s", "scan_s"), ("parquet.decompress_s", "decompress_s"),
                          ("parquet.io_s", "io_s"), ("parquet.bytes_read", "bytes_read"),
                          ("parquet.rows_out", "rows_out")):
            m[key] = counts.get(stat, 0)
        parquet_wall = sum(traced.seconds("op"))
        m["spark.job_wall_s"] = sum(traced.seconds())
        m["spark.task_busy_s"] = counts.get("scan_s", 0) + counts.get("decompress_s", 0)
        if parquet_wall:
            m["spark.busy_share"] = m["spark.task_busy_s"] / (parquet_wall * threads())
    if workload.name == "lookup":
        s = workload.cycle_stats
        m["rocksdb.cache_hits"], m["rocksdb.cache_misses"] = s.hits, s.misses
        m["rocksdb.hit_rate"] = s.hits / max(1, s.hits + s.misses)
        m["rocksdb.modeled_io_s"] = s.modeled_io_s
        m["rocksdb.index_bytes"] = workload.index_bytes
    for key, (value, _) in workload.named_metrics(ref).items():
        if key in m:
            m[key] = value
    ref_per_cycle = sum(ref.seconds()) / ref_cycles
    m["trace.overhead"] = sum(traced.seconds()) / ref_per_cycle - 1 if ref_per_cycle else 0.0
    m["trace.spans"] = len(tracer.spans)
    m["fail_frac"] = fail_frac
    return m


def run(args, work_dir: str, out_dir: str) -> dict:
    workload = make_workload(args.workload, args.seed, work_dir)
    warm_ledger, ledger, traced = Ledger(), Ledger(), Ledger()
    tracer = None
    try:
        parts = workload.setup()
        warm = workload.warm_up(warm_ledger)
        ref_cycles = len(run_cycles(workload, ledger, args.seconds,
                                    getattr(workload, "min_cycles", 1)))
        if args.trace:
            tracer = Tracer()
            workload.tracer = tracer
            with tracer:
                run_cycles(workload, traced, 0)
            workload.tracer = None
        ledgers = (warm_ledger, ledger, traced)
        attempted = sum(lg.attempted for lg in ledgers)
        failures = [f for lg in ledgers for f in lg.failures]
        fail_frac = len(failures) / max(1, attempted)
        if args.trace:
            metrics = per_layer(workload, tracer, parts, warm, ledger, ref_cycles, traced, fail_frac)
            units = PER_LAYER
        else:
            metrics = end_to_end(workload, parts, ledger)
            units = END_TO_END
        named = workload.named_metrics(ledger)
        counters = workload.counters()
    finally:
        workload.close()

    for f, k in Counter(failures).items():
        print(f"FAILED {args.workload} {f} (x{k})")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} operations, "
          f"{len(failures)} failed (fail_frac {fail_frac:.6g})")
    print("  set-up: " + ", ".join(f"{k} {v:.3f} s" for k, v in parts.items())
          + f"; warm-up {warm[0]} ops {warm[1]:.3f} s")
    if not args.trace:
        for key, (value, unit) in sorted(named.items()):
            print(f"  {key} = {value:.6g} {unit}")
    print("  per cycle: " + ", ".join(f"{k} {v:g}" for k, v in counters.items()))
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({**result, "failures": failures, "setup_parts": parts,
                   "warm_up": {"operations": warm[0], "seconds": warm[1]},
                   "cycles": ref_cycles,
                   "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                   "counters_per_cycle": counters}, f, indent=1)
    if tracer is not None:
        tracer.write_spans(stem + ".spans.tsv")
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program's source is missing: {SRC}", file=sys.stderr)
        return 2
    # in-process workloads run single-threaded; set before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    os.environ["TMPDIR"] = work_dir
    tempfile.tempdir = work_dir
    try:
        result = run(args, work_dir, os.path.join(ROOT, ".perfbench_out"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
