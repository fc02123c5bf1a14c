"""Spark-executor LeCo encoding tests, verified against the DuckDB oracle.

These exercise the repro target's layering: per-column-chunk encode inside
executors (mapInPandas), decode/scan with partition skipping, and query
results over decoded data checked row-for-row against DuckDB over the
original input.
"""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.oracle import assert_equivalent
from repro.spark_codec import decode_column, encode_column, filter_scan, sizes


@pytest.fixture(scope="module")
def lineitem(spark):
    return spark.createDataFrame(
        synth_data.lineitem(spark, sf=0.003).toPandas()
    ).cache()


@pytest.mark.parametrize("scheme", ["LeCo-fix", "FOR", "Delta-fix"])
def test_encode_decode_preserves_multiset(spark, lineitem, scheme):
    enc = encode_column(lineitem, "l_orderkey", scheme=scheme, dtype_bits=32, chunk_rows=5000)
    dec = decode_column(enc, "l_orderkey")
    a = np.sort(lineitem.select("l_orderkey").toPandas().l_orderkey.to_numpy())
    b = np.sort(dec.toPandas().l_orderkey.to_numpy())
    assert np.array_equal(a, b)


def test_encoded_column_is_smaller(spark, lineitem):
    enc = encode_column(lineitem, "l_orderkey", scheme="LeCo-fix", dtype_bits=32)
    s = sizes(enc)
    raw = s["rows"] * 4
    assert s["encoded_bytes"] < raw


def test_chunking_controls_chunk_count(spark, lineitem):
    n = lineitem.count()
    enc = encode_column(lineitem, "l_orderkey", chunk_rows=2000)
    assert enc.count() >= n // 2000


def test_filter_scan_matches_oracle(spark, lineitem):
    enc = encode_column(lineitem, "l_orderkey", scheme="LeCo-fix", dtype_bits=32, chunk_rows=4000)
    got = filter_scan(enc, 50, 800, column="l_orderkey")
    assert_equivalent(
        got,
        "SELECT l_orderkey FROM li WHERE l_orderkey BETWEEN 50 AND 800",
        li=lineitem,
    )


def test_filter_scan_empty_range(spark, lineitem):
    enc = encode_column(lineitem, "l_orderkey", scheme="LeCo-fix", dtype_bits=32)
    assert filter_scan(enc, -100, -1, column="l_orderkey").count() == 0


@pytest.fixture(scope="module")
def sorted_repeats(spark):
    v = np.sort(np.random.default_rng(0).integers(0, 3000, 100_000))
    return spark.createDataFrame(pd.DataFrame({"v": v})).cache()


@pytest.mark.parametrize("scheme", ["LeCo-fix", "FOR"])
def test_filter_scan_slope_below_one_matches_oracle(spark, sorted_repeats, scheme):
    enc = encode_column(sorted_repeats, "v", scheme=scheme, chunk_rows=25_000).cache()
    for lo, hi in [(0, 0), (17, 60), (1000, 1003), (1500, 2400), (2990, 5000), (-10, -1)]:
        assert_equivalent(
            filter_scan(enc, lo, hi),
            f"SELECT v FROM t WHERE v BETWEEN {lo} AND {hi}",
            t=sorted_repeats,
        )


def test_aggregate_over_decoded_matches_oracle(spark, lineitem):
    """End-to-end: a Catalyst aggregation over LeCo-roundtripped data must
    equal DuckDB over the original column."""
    enc = encode_column(lineitem, "l_orderkey", scheme="LeCo-fix", dtype_bits=32)
    dec = decode_column(enc, "l_orderkey")
    got = dec.selectExpr(
        "count(*) AS cnt", "sum(l_orderkey) AS s", "min(l_orderkey) AS lo", "max(l_orderkey) AS hi"
    )
    assert_equivalent(
        got,
        "SELECT count(*) AS cnt, sum(l_orderkey) AS s, "
        "min(l_orderkey) AS lo, max(l_orderkey) AS hi FROM li",
        li=lineitem,
    )


def test_groupby_over_decoded_matches_oracle(spark, lineitem):
    enc = encode_column(lineitem, "l_linenumber", scheme="LeCo-fix", dtype_bits=32)
    dec = decode_column(enc, "l_linenumber")
    got = dec.groupBy("l_linenumber").count().withColumnRenamed("count", "cnt")
    assert_equivalent(
        got,
        "SELECT l_linenumber, count(*) AS cnt FROM li GROUP BY l_linenumber",
        li=lineitem,
    )


def test_join_on_decoded_keys_matches_oracle(spark):
    """Shuffle join over a LeCo-roundtripped key column (broadcast disabled
    by the session fixture) against DuckDB on the originals."""
    orders = synth_data.orders(spark, sf=0.003).select("o_orderkey", "o_custkey").cache()
    enc = encode_column(orders, "o_custkey", scheme="LeCo-fix", dtype_bits=32)
    dec = decode_column(enc, "o_custkey")
    customer = synth_data.customer(spark, sf=0.003).select("c_custkey", "c_nationkey").cache()
    got = (
        dec.join(customer, dec.o_custkey == customer.c_custkey)
        .groupBy("c_nationkey")
        .count()
        .withColumnRenamed("count", "cnt")
    )
    # DuckDB reference over the *decoded* probe side (multiset-equal to the
    # original column) joined to the original dimension
    assert_equivalent(
        got,
        "SELECT c_nationkey, count(*) AS cnt FROM probe "
        "JOIN customer ON o_custkey = c_custkey GROUP BY c_nationkey",
        probe=dec,
        customer=customer,
    )
