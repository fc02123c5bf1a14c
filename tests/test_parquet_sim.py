"""Parquet-like store tests (§5.1), incl. DuckDB-oracle query equivalence."""
import functools
import os
import struct
import tempfile

import numpy as np
import pandas as pd
import pytest

from repro.datasets import gen_ml
from repro.core.bitpack import pack
from repro.core.format import EncodedSequence
from repro.parquet_sim.encodings import TAG_DICT, decode_chunk, encode_chunk, gather_positions, parse_chunk
from repro.parquet_sim.format import file_bytes, read_column, read_footer, write_file
from repro.parquet_sim.scan import _mod_positions, bitmap_select, filter_scan_mod

DAY = 86400


@pytest.fixture(scope="module")
def table():
    g = np.random.default_rng(0)
    ts, _ = gen_ml(60_000)
    ids = g.integers(0, 1 << 40, 60_000)
    return pd.DataFrame({"ts": ts // 1000, "id": ids})


@pytest.fixture(scope="module", params=["default", "for", "leco"])
def written(request, table, tmp_path_factory):
    path = str(tmp_path_factory.mktemp(f"pq-{request.param}"))
    write_file(table, path, {"ts": request.param, "id": request.param}, row_group_rows=20_000)
    return request.param, path


@pytest.mark.parametrize("encoding", ["default", "for", "leco"])
@pytest.mark.parametrize("shape", ["sorted", "random", "lowcard"])
def test_chunk_roundtrip(encoding, shape):
    g = np.random.default_rng(1)
    v = {
        "sorted": np.sort(g.integers(0, 10**9, 5000)),
        "random": g.integers(-(10**6), 10**6, 5000),
        "lowcard": g.choice([10, 20, 30], 5000).astype(np.int64),
    }[shape]
    blob = encode_chunk(v, encoding, partition_len=512)
    assert np.array_equal(decode_chunk(blob), v)


@pytest.mark.parametrize("encoding", ["default", "for", "leco"])
def test_gather_positions(encoding):
    g = np.random.default_rng(2)
    v = np.sort(g.integers(0, 10**8, 8000))
    blob = encode_chunk(v, encoding, partition_len=1000)
    pos = np.sort(g.choice(8000, 200, replace=False))
    assert np.array_equal(gather_positions(blob, pos), v[pos])
    dense = np.arange(3000, 7000)
    assert np.array_equal(gather_positions(blob, dense), v[dense])


@pytest.mark.parametrize("encoding", ["for", "leco"])
def test_parsed_chunk_shares_the_blob(encoding):
    """A FOR or LeCo chunk is parsed without copying it: the sequence's
    payload is a view of the blob, and it decodes to the column."""
    v = np.sort(np.random.default_rng(4).integers(0, 10**8, 3000))
    blob = encode_chunk(v, encoding, partition_len=500)
    kind, enc = parse_chunk(blob)
    assert kind == "seq" and np.array_equal(decode_chunk(blob), v)
    payload = np.frombuffer(enc.partitions.payload, dtype=np.uint8)
    assert len(payload) and np.shares_memory(payload, np.frombuffer(blob, dtype=np.uint8))


def test_dictionary_fallback_to_plain():
    g = np.random.default_rng(3)
    unique_heavy = g.integers(0, 2**50, 5000)  # ~all distinct → plain
    assert encode_chunk(unique_heavy, "default")[0] == 0  # TAG_PLAIN
    low = g.choice(100, 5000).astype(np.int64)
    assert encode_chunk(low, "default")[0] == 1  # TAG_DICT


def test_parse_chunk_rejects_malformed_blobs():
    """An empty chunk, a plain or dict chunk cut anywhere, and a dict code
    beyond the dictionary raise ``ValueError``, never ``IndexError`` or
    ``struct.error``."""
    g = np.random.default_rng(4)
    plain = encode_chunk(g.integers(0, 2**50, 50), "default")
    dict_blob = encode_chunk(g.choice([10, 20, 30], 50).astype(np.int64), "default")
    assert (plain[0], dict_blob[0]) == (0, TAG_DICT)
    with pytest.raises(ValueError):
        parse_chunk(b"")
    for blob in (plain, dict_blob):
        for cut in range(1, len(blob)):
            with pytest.raises(ValueError):
                parse_chunk(blob[:cut])
    # three entries, 2-bit codes: code 3 has no entry
    head = bytes([TAG_DICT]) + struct.pack("<qiB", 4, 3, 2) + np.array([10, 20, 30]).tobytes()
    with pytest.raises(ValueError):
        parse_chunk(head + pack(np.array([0, 1, 2, 3], dtype=np.uint64), 2))
    kind, v = parse_chunk(head + pack(np.array([0, 1, 2, 2], dtype=np.uint64), 2))
    assert kind == "dict" and v.tolist() == [10, 20, 30, 30]


def test_parse_chunk_rejects_headers_no_encoder_writes():
    """A dict chunk whose codes are wider or narrower than its dictionary
    needs, or a plain or dict chunk with bytes after its values, raises
    ``ValueError`` even when the codes it holds would parse."""
    entries = np.array([10, 20, 30]).tobytes()
    codes = np.array([0, 1, 2, 2, 1, 0, 0, 1], dtype=np.uint64)
    for width in (1, 3, 8):  # three entries need 2-bit codes
        blob = bytes([TAG_DICT]) + struct.pack("<qiB", 8, 3, width) + entries + pack(codes % (1 << width), width)
        with pytest.raises(ValueError):
            parse_chunk(blob)
    good = bytes([TAG_DICT]) + struct.pack("<qiB", 8, 3, 2) + entries + pack(codes, 2)
    assert parse_chunk(good)[1].tolist() == [10, 20, 30, 30, 20, 10, 10, 20]
    plain = encode_chunk(np.arange(5) * 2**40, "default")
    assert plain[0] == 0 and parse_chunk(plain)[1].tolist() == (np.arange(5) * 2**40).tolist()
    for blob in (good + b"\0", plain + b"\0"):
        with pytest.raises(ValueError):
            parse_chunk(blob)


def test_unknown_encoding_rejected():
    with pytest.raises(ValueError):
        encode_chunk(np.arange(10), "zigzag")


def test_write_read_column(written, table):
    enc, path = written
    assert np.array_equal(read_column(path, "ts"), table.ts.to_numpy(dtype=np.int64))
    assert np.array_equal(read_column(path, "id"), table.id.to_numpy(dtype=np.int64))


def test_footer_zone_maps(written, table):
    _, path = written
    metas = [m for m in read_footer(path) if m.column == "ts"]
    ts = table.ts.to_numpy()
    for m in metas:
        seg = ts[m.rg_id * 20_000 : (m.rg_id + 1) * 20_000]
        assert m.vmin == seg.min() and m.vmax == seg.max()


def test_filter_scan_mod_matches_duckdb(spark, written, table):
    """The Fig 14 query must return exactly DuckDB's answer regardless of
    encoding (count + id-sum checksum)."""
    import duckdb

    _, path = written
    r = filter_scan_mod(spark, path, ts_col="ts", id_col="id", t1=3600, t2=10800)
    con = duckdb.connect()
    con.register("t", table)
    cnt, sm = con.execute(
        f"SELECT count(*), COALESCE(sum(id),0) FROM t WHERE ts % {DAY} > 3600 AND ts % {DAY} < 10800"
    ).fetchone()
    con.close()
    assert r["rows_out"] == cnt
    assert r["checksum"] == int(sm) % (1 << 62)


def test_bitmap_select_matches_reference(spark, written, table):
    _, path = written
    g = np.random.default_rng(4)
    pos = np.sort(g.choice(len(table), 1500, replace=False))
    r = bitmap_select(spark, path, column="id", positions=pos)
    ids = table.id.to_numpy(dtype=np.int64)
    assert r["rows_out"] == len(pos)
    assert r["checksum"] == int(ids[pos].sum()) % (1 << 62)


def test_zlib_block_compression_roundtrip(spark, table, tmp_path):
    path = str(tmp_path / "z")
    write_file(table, path, {"ts": "leco"}, row_group_rows=20_000, block_compression="zlib")
    assert np.array_equal(read_column(path, "ts"), table.ts.to_numpy(dtype=np.int64))
    r = bitmap_select(spark, path, column="ts", positions=np.arange(100))
    assert r["rows_out"] == 100 and r["decompress_s"] > 0


def test_zlib_reduces_file_size(table, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_file(table, a, {"ts": "default"}, row_group_rows=20_000)
    write_file(table, b, {"ts": "default"}, row_group_rows=20_000, block_compression="zlib")
    assert file_bytes(b) < file_bytes(a)


def test_leco_file_smaller_than_default(table, tmp_path):
    a, b = str(tmp_path / "d"), str(tmp_path / "l")
    write_file(table, a, {"ts": "default", "id": "default"}, row_group_rows=20_000)
    write_file(table, b, {"ts": "leco", "id": "leco"}, row_group_rows=20_000)
    assert file_bytes(b) < file_bytes(a)


def test_invalid_block_compression():
    with pytest.raises(ValueError):
        write_file(pd.DataFrame({"x": [1]}), tempfile.mkdtemp(), {"x": "leco"}, block_compression="lz77")


@pytest.mark.parametrize("encoding", ["leco", "for"])
def test_mod_positions_builds_value_bounds_once(monkeypatch, encoding):
    """A pruned chunk's header bounds are read twice, for its day span and
    for ``positions_in``'s header skip, and built once."""
    built = []
    bounds = EncodedSequence.value_bounds.func
    counted = functools.cached_property(lambda enc: built.append(enc) or bounds(enc))
    counted.__set_name__(EncodedSequence, "value_bounds")
    monkeypatch.setattr(EncodedSequence, "value_bounds", counted)
    day = 86_400
    v = np.sort(np.random.default_rng(6).integers(0, 5 * day, 20_000))
    got = _mod_positions(encode_chunk(v, encoding, partition_len=1_000), 3_600, 7_200, day)
    assert np.array_equal(got, np.flatnonzero((v % day > 3_600) & (v % day < 7_200)))
    assert len(built) == 1
