"""The Parquet scans' checksum is exact for ids near 2^61.

``filter_scan_mod`` and ``bitmap_select`` return the sum of the selected
values mod 2^62.  With ids near 2^61 every task's sum passes 2^53 (where
float64 rounds) and the sum over tasks passes 2^62, so a checksum that is
summed through floats, or not reduced after the tasks are added up, comes
out wrong.
"""
import numpy as np
import pandas as pd
import pytest

from repro.datasets import gen_ml
from repro.parquet_sim.format import write_file
from repro.parquet_sim.scan import bitmap_select, filter_scan_mod

DAY = 86400
N = 40_000


@pytest.fixture(scope="module")
def big_ids():
    g = np.random.default_rng(7)
    ts, _ = gen_ml(N)
    return pd.DataFrame({"ts": ts // 1000, "id": (1 << 61) + g.integers(0, 1 << 40, N)})


def _exact(values) -> int:
    return sum(int(x) for x in values) % (1 << 62)


@pytest.mark.parametrize("encoding", ["default", "for", "leco"])
def test_checksums_exact_past_float_precision(spark, big_ids, tmp_path, encoding):
    path = str(tmp_path / encoding)
    write_file(big_ids, path, {"ts": encoding, "id": encoding}, row_group_rows=5_000)
    ts, ids = big_ids.ts.to_numpy(), big_ids.id.to_numpy()

    r = filter_scan_mod(spark, path, ts_col="ts", id_col="id", t1=3600, t2=50_400)
    hit = (ts % DAY > 3600) & (ts % DAY < 50_400)
    assert r["rows_out"] == hit.sum()
    assert r["checksum"] == _exact(ids[hit])

    pos = np.sort(np.random.default_rng(8).choice(N, 4_000, replace=False))
    r = bitmap_select(spark, path, column="id", positions=pos)
    assert r["rows_out"] == len(pos)
    assert r["checksum"] == _exact(ids[pos])
