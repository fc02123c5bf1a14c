"""Self-test of the benchmark, at small sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Two runs with one seed must give identical counts and ``bytes_ratio``;
another seed must change the inputs and still pass every output check.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from harness import Ledger, run_cycles  # noqa: E402
from tracing import Tracer  # noqa: E402


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes() if isinstance(a, np.ndarray) else repr(a).encode())
    return h.hexdigest()


def _inputs(wl) -> str:
    if wl.name == "ingest":
        return _digest(*wl.data.values())
    if wl.name == "lookup":
        return _digest(wl.keys, wl.qkeys, wl.column)
    return _digest(wl.ts, wl.ids)


def _one_run(make, seed: int, work_dir) -> dict:
    """Set up, run one untraced and one traced cycle; return what must repeat."""
    wl = make(seed, str(work_dir))
    try:
        wl.setup()
        ledger, traced = Ledger(), Ledger()
        run_cycles(wl, ledger, 0)
        tracer = Tracer()
        wl.tracer = tracer
        with tracer:
            run_cycles(wl, traced, 0)
        wl.tracer = None
        return {
            "failures": ledger.failures + traced.failures,
            "attempted": ledger.attempted + traced.attempted,
            "calls": dict(tracer.calls),
            "counts": dict(tracer.count),
            "counters": wl.counters(),
            "bytes_ratio": run.bytes_ratio(wl),
            "inputs": _inputs(wl),
        }
    finally:
        wl.close()


def _check_repeatable(make, tmp_path, seeds=(7, 8)):
    a = _one_run(make, seeds[0], tmp_path / "a")
    b = _one_run(make, seeds[0], tmp_path / "b")
    c = _one_run(make, seeds[1], tmp_path / "c")
    for r in (a, b, c):
        assert r["attempted"] > 0
        assert r["failures"] == []
    for key in ("calls", "counts", "counters", "bytes_ratio", "inputs"):
        assert a[key] == b[key], key
    assert a["inputs"] != c["inputs"]


def test_ingest_repeats_per_seed(tmp_path):
    from ingest import Ingest

    _check_repeatable(lambda s, d: Ingest(s, _mk(d), n=30_000, var_n=3_000), tmp_path)


def test_lookup_repeats_per_seed(tmp_path):
    from lookup import Lookup

    _check_repeatable(lambda s, d: Lookup(s, _mk(d), n_keys=20_000, seeks=1_000), tmp_path)


def test_scan_repeats_per_seed(tmp_path):
    pytest.importorskip("pyspark")
    from scan import Scan

    src = os.path.join(ROOT, "src")
    _check_repeatable(
        lambda s, d: Scan(s, _mk(d), src, n=200_000, row_group=50_000), tmp_path
    )


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _mk(d) -> str:
    os.makedirs(d, exist_ok=True)
    return str(d)
