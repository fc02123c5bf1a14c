"""Fig 10 row 2: random access latency per (data set × scheme)."""
import numpy as np

from _record import record
from repro.core.leco import LeCoFix
from repro.datasets import load_int
from repro.experiments.micro import weighted_summary

from _shared import micro_rows


def test_fig10_random_access(benchmark):
    rows = micro_rows()
    lines = ["dataset      scheme       access_us"]
    for r in rows:
        lines.append(
            f"{r.dataset:12s} {r.scheme:12s} "
            + ("n/a" if r.access_us is None else f"{r.access_us:9.2f}")
        )
    record("Fig 10 (row 2) — random access latency (us)", "\n".join(lines))
    by = {(r.dataset, r.scheme): r for r in rows}
    # paper §4.3.2: Delta is ~an order of magnitude slower than LeCo-fix
    for ds in ("linear", "books", "fb"):
        assert by[(ds, "Delta-fix")].access_us > 3 * by[(ds, "LeCo-fix")].access_us
    # paper §4.3.2: LeCo-var's access adds only a metadata search to LeCo-fix's
    summary = weighted_summary(rows)
    assert summary["LeCo-var"]["access_us"] < 2 * summary["LeCo-fix"]["access_us"]
    v, bits = load_int("books", 100_000)
    enc = LeCoFix().encode(v, dtype_bits=bits)
    codec = LeCoFix()
    g = np.random.default_rng(0)
    pos = g.integers(0, len(v), 200)
    benchmark(lambda: [codec.access(enc, int(i)) for i in pos])
