"""LeCo as a per-column-chunk encoding inside Spark executors.

This is the repro target's layering (see DESIGN.md): the paper integrates
LeCo into Parquet's column chunks; here the same encode → prune → decode
control flow runs inside Spark executors as DataFrame→DataFrame transforms
via ``mapInPandas`` (Arrow columnar batches in, encoded binary blobs out,
and the reverse on the scan side with model-based partition skipping).

* :func:`encode_column` — one encoded blob per column chunk (a chunk is one
  Spark partition's slice of the column, optionally re-chunked to
  ``chunk_rows``), carrying the self-describing §3.3 format.
* :func:`decode_column` — full scan/decode of an encoded column.
* :func:`filter_scan` — range-predicate scan that skips whole chunks by
  zone map and hands FOR and LeCo chunks to ``core.leco.positions_in``, the
  one exact pruning kernel: it skips partitions by their header bounds and
  inverts a LeCo model to decode only the candidate position range of a
  partition (the §5.1.1 computation-pruning trick).  Only Delta chunks,
  whose headers bound no values, are decoded whole and then filtered.

All transforms go through the DataFrame API so Catalyst plans the
surrounding query; the codec work itself is columnar numpy inside the
executor (exactly where Parquet's encoder would run).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import (
    BinaryType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from .core.codec_api import get_codec
from .core.format import EncodedSequence
from .core.leco import positions_in

_ENC_SCHEMA = StructType(
    [
        StructField("chunk_id", LongType()),
        StructField("n", LongType()),
        StructField("vmin", LongType()),
        StructField("vmax", LongType()),
        StructField("scheme", StringType()),
        StructField("blob", BinaryType()),
    ]
)


def encode_column(
    df: DataFrame,
    column: str,
    *,
    scheme: str = "LeCo-fix",
    dtype_bits: int = 64,
    chunk_rows: int | None = None,
) -> DataFrame:
    """Encode ``df[column]`` per column chunk inside the executors.

    Returns a DataFrame of ``(chunk_id, n, vmin, vmax, scheme, blob)`` rows,
    one per chunk.  ``vmin``/``vmax`` are the chunk zone map.  ``chunk_id``
    is ``spark_partition_id * 2^20 + chunk_index`` so chunk order within a
    Spark partition is recoverable.
    """

    def encode(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        from pyspark import TaskContext

        pid = TaskContext.get().partitionId()
        codec = get_codec(scheme)
        values = np.concatenate(
            [b[column].to_numpy(dtype=np.int64) for b in batches] or [np.empty(0, np.int64)]
        )
        if len(values) == 0:
            return
        step = chunk_rows or len(values)
        out = []
        for k, s in enumerate(range(0, len(values), step)):
            chunk = values[s : s + step]
            enc = codec.encode(chunk, dtype_bits=dtype_bits)
            out.append(
                (pid * (1 << 20) + k, len(chunk), int(chunk.min()), int(chunk.max()),
                 scheme, enc.to_bytes())
            )
        yield pd.DataFrame(out, columns=[f.name for f in _ENC_SCHEMA.fields])

    return df.select(column).mapInPandas(encode, schema=_ENC_SCHEMA)


def decode_column(enc_df: DataFrame, column: str = "v") -> DataFrame:
    """Decode an encoded column back to values (executor-side)."""

    def decode(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for b in batches:
            for _, row in b.iterrows():
                enc = EncodedSequence.from_bytes(bytes(row.blob))
                values = get_codec(row.scheme).decode(enc)
                yield pd.DataFrame({column: values})

    return enc_df.mapInPandas(decode, schema=StructType([StructField(column, LongType())]))


def filter_scan(enc_df: DataFrame, lo: int, hi: int, column: str = "v") -> DataFrame:
    """Return values in ``[lo, hi]`` from an encoded column, using chunk
    zone maps, then partition-header skipping and model-inversion pruning."""

    def scan(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for b in batches:
            for _, row in b.iterrows():
                if row.vmax < lo or row.vmin > hi:
                    continue  # chunk skipped via zone map
                enc = EncodedSequence.from_bytes(bytes(row.blob))
                if enc.scheme.startswith("Delta"):  # no value bounds in the headers
                    values = get_codec(row.scheme).decode(enc)
                    values = values[(values >= lo) & (values <= hi)]
                else:
                    _, values = positions_in(enc, [lo], [hi])
                yield pd.DataFrame({column: values})

    return enc_df.mapInPandas(scan, schema=StructType([StructField(column, LongType())]))


def sizes(enc_df: DataFrame) -> dict[str, int]:
    """Total encoded vs raw bytes of an encoded column (for ratio checks)."""
    rows = enc_df.selectExpr("sum(length(blob)) AS b", "sum(n) AS n").collect()[0]
    return {"encoded_bytes": int(rows.b), "rows": int(rows.n)}
