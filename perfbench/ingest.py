"""``ingest``: the write path, in process and without Spark.

One cycle writes each of the nine §4.1 integer data sets (``n`` values
each) as a Parquet-like file in the ``leco`` and ``for`` encodings, with
the partition length searched per row group as in §4.2, and LeCo-var
encodes plus serializes a ``var_n``-value slice of four of them.  It
loads the partitioner, the regressor and ``_fit_rows``, ``bitpack.pack``,
``to_bytes`` and the file writer; it runs no unpack, extract or Spark code.
Outputs are checked outside the timed region: the first output of each
operation is decoded and compared with its input, later outputs of the
same operation must be byte-identical to it.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import time

import numpy as np
import pandas as pd

from repro import datasets
from repro.core import format as cformat
from repro.core import leco
from repro.parquet_sim import format as pq

from harness import SETUP_REPS, Op, timed_median

ENCODINGS = ("leco", "for")
VAR_SETS = ("books", "normal", "ml", "movieid")


class Ingest:
    name = "ingest"
    min_cycles = 2  # every operation type gets two samples per run

    def __init__(self, seed: int, work_dir: str, *, n: int = 1_000_000, var_n: int = 50_000):
        self.seed, self.work_dir, self.n, self.var_n = seed, work_dir, n, var_n
        self.tracer = None
        self._verified: dict[str, bytes] = {}  # op label -> digest of its first verified output
        self.sizes: dict[str, tuple[int, int]] = {}  # op label -> (stored, raw) bytes

    # -- set-up ---------------------------------------------------------------
    def _generate(self) -> None:
        self.data = {
            name: gen(self.n, seed=self.seed * 1000 + k)[0]
            for k, (name, gen) in enumerate(datasets.INTEGER_DATASETS.items())
        }
        # a fixed position: LeCo-var's cost depends on where in a data set's
        # shape the slice lies, and the seed should vary only the data
        s = (self.n - self.var_n) // 2
        self.var_slices = {name: self.data[name][s : s + self.var_n].copy() for name in VAR_SETS}
        self.frames = {name: pd.DataFrame({"v": v}) for name, v in self.data.items()}

    def setup(self) -> dict[str, float]:
        return {"datagen": timed_median(self._generate, SETUP_REPS)}

    def warm_up(self, ledger) -> tuple[int, float]:
        # none: first-cycle writes are not measurably slower than later ones
        return 0, 0.0

    # -- operations -------------------------------------------------------------
    def _quiet(self):
        return self.tracer.pause() if self.tracer else contextlib.nullcontext()

    def _write(self, name: str, enc: str):
        label = f"write.{enc}.{name}"
        path = os.path.join(self.work_dir, label)

        def op() -> Op:
            pdf = self.frames[name]
            t0 = time.perf_counter()
            pq.write_file(pdf, path, {"v": enc}, partition_len=None)
            dt = time.perf_counter() - t0
            with self._quiet():
                error = self._check(
                    label, _file_image(path), lambda: pq.read_column(path, "v"),
                    self.data[name], pq.file_bytes(path),
                )
            return Op("op", label, dt, error, {"values": self.n})

        op.label = label
        return op

    def _var(self, name: str):
        label = f"var.{name}"

        def op() -> Op:
            v = self.var_slices[name]
            t0 = time.perf_counter()
            blob = leco.LeCoVar().encode(v).to_bytes()
            dt = time.perf_counter() - t0
            with self._quiet():
                error = self._check(
                    label, blob,
                    lambda: leco.LeCoVar().decode(cformat.EncodedSequence.from_bytes(blob)),
                    v, len(blob),
                )
            return Op("op2", label, dt, error, {"values": len(v)})

        op.label = label
        return op

    def _check(self, label: str, out: bytes, decode, expected: np.ndarray, stored: int) -> str | None:
        digest = hashlib.sha256(out).digest()
        if label in self._verified:
            return None if digest == self._verified[label] else "output differs from its verified first write"
        if not np.array_equal(decode(), expected):
            return "decoded output differs from the input"
        self._verified[label] = digest
        self.sizes[label] = (stored, 8 * len(expected))
        return None

    def ops(self) -> list:
        writes = [self._write(name, enc) for enc in ENCODINGS for name in self.data]
        out = []
        step = len(writes) // len(VAR_SETS)
        for k, name in enumerate(VAR_SETS):  # spread the var encodes through the cycle
            out.extend(writes[k * step : (k + 1) * step])
            out.append(self._var(name))
        out.extend(writes[len(VAR_SETS) * step :])
        return out

    # -- reporting --------------------------------------------------------------
    def named_metrics(self, ledger) -> dict[str, tuple[float, str]]:
        out = {}
        for kind, key in (("op", "ingest.encode_fix_mvps"), ("op2", "ingest.encode_var_mvps")):
            ops = [o for o in ledger.ops if o.kind == kind and o.error is None]
            secs = sum(o.seconds for o in ops)
            out[key] = (sum(o.counts["values"] for o in ops) / secs / 1e6 if secs else 0.0, "Mvalues/s")
        return out

    def counters(self) -> dict[str, float]:
        """Per-cycle counts that do not depend on the machine."""
        return {
            "values_encoded": 2 * len(self.data) * self.n + len(VAR_SETS) * self.var_n,
            "bytes_stored": sum(s for s, _ in self.sizes.values()),
        }

    def close(self) -> None:
        pass


def _file_image(path: str) -> bytes:
    """Footer plus every chunk blob of a Parquet-like file, in footer order."""
    with open(os.path.join(path, "footer.json"), "rb") as f:
        parts = [f.read()]
    for m in pq.read_footer(path):
        with open(os.path.join(path, m.file), "rb") as f:
            parts.append(f.read())
    return b"".join(parts)
