"""In-memory span tracing around calls into the program's layers.

The program is not edited: :class:`Tracer` wraps functions and methods by
rebinding them in every loaded ``repro`` module (and on their classes), so
a call through any import path records a span.  Function-local imports
(``from ..core.bitpack import unpack`` inside a function body) read the
defining module's attribute at call time, so they see the wrapper too.

Each span is ``(id, parent, name, start, end)``.  A span's self time is its
duration minus the time covered by its child spans; calls are synchronous
and single-threaded, so children nest strictly inside their parent.
Counters (values, bytes, partitions) are taken at the same boundaries.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import time
from collections import defaultdict


def _count_pack(tr, args, out):
    tr.count["bitpack.bytes"] += len(out)


def _count_unpack(tr, args, out):
    tr.count["bitpack.bytes"] += len(args[0])


def _count_encode(tr, args, enc):
    tr.count["codec.values_encoded"] += enc.n
    tr.count["partitioner.partitions"] += len(enc.partitions)
    tr.count["format.model_bytes"] += enc.model_bytes()
    tr.count["format.encoded_bytes"] += enc.nbytes()


def _count_decode(tr, args, out):
    # nested decode spans (decode -> _decode_partition) count values once
    if tr.parent_name() != "codec.decode":
        tr.count["codec.values_decoded"] += len(out)


# (span name, module, attribute, counter hook).  A dotted attribute names a
# method on a class of that module.  Spans sharing a name share a metric.
WRAP_POINTS = [
    ("bitpack.pack", "repro.core.bitpack", "pack", _count_pack),
    ("bitpack.pack", "repro.core.bitpack", "pack_bigints", _count_pack),
    ("bitpack.unpack", "repro.core.bitpack", "unpack", _count_unpack),
    ("bitpack.unpack", "repro.core.bitpack", "unpack_bigints", _count_unpack),
    ("bitpack.extract", "repro.core.bitpack", "extract", None),
    ("bitpack.extract", "repro.core.bitpack", "extract_bigint", None),
    ("regressor.fit", "repro.core.regressor", "LinearRegressor.fit", None),
    ("leco.fit_rows", "repro.core.leco", "_fit_rows", None),
    ("leco.fixed_widths", "repro.core.leco", "fixed_widths_linear", None),
    ("partitioner.search", "repro.core.partitioner", "search_fixed_length", None),
    ("partitioner.var", "repro.core.partitioner", "var_partitions", None),
    ("codec.encode", "repro.core.leco", "LeCoFix.encode", _count_encode),
    ("codec.encode", "repro.core.leco", "LeCoVar.encode", _count_encode),
    ("codec.encode", "repro.baselines.for_codec", "FORCodec.encode", _count_encode),
    ("codec.decode", "repro.core.leco", "_LeCoBase.decode", _count_decode),
    ("codec.decode", "repro.core.leco", "_decode_partition", _count_decode),
    ("codec.decode", "repro.baselines.for_codec", "FORCodec.decode", _count_decode),
    ("codec.decode", "repro.parquet_sim.scan", "_decode_part", _count_decode),
    ("codec.decode_range", "repro.core.leco", "_LeCoBase.decode_range", None),
    ("codec.access", "repro.core.leco", "_LeCoBase.access", None),
    ("codec.access", "repro.baselines.for_codec", "FORCodec.access", None),
    ("format.to_bytes", "repro.core.format", "EncodedSequence.to_bytes", None),
    ("format.from_bytes", "repro.core.format", "EncodedSequence.from_bytes", None),
    ("parquet.write_file", "repro.parquet_sim.format", "write_file", None),
    ("parquet.parse_chunk", "repro.parquet_sim.encodings", "parse_chunk", None),
    ("parquet.gather", "repro.parquet_sim.encodings", "gather_positions", None),
    ("parquet.mod_positions", "repro.parquet_sim.scan", "_mod_positions", None),
    ("rocksdb.seek", "repro.rocksdb_sim.db", "DB.seek", None),
    ("rocksdb.fetch_block", "repro.rocksdb_sim.db", "DB._fetch_block", None),
    ("rocksdb.index_seek", "repro.rocksdb_sim.index", "LeCoIndex.seek", None),
    ("string_codec.decode", "repro.core.string_codec", "StringLeCo.access", None),
    ("string_codec.map", "repro.core.string_codec", "StringLeCo.mapped_value", None),
    ("string_codec.map", "repro.core.string_codec", "StringLeCo.map_query", None),
]


class Tracer:
    """Records spans and counters for wrapped calls and :meth:`span` blocks."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._stack: list[list] = []  # [span id, name, seconds covered by children]
        self._undo: list[tuple[object, str, object]] = []
        self.paused = False

    # -- recording ----------------------------------------------------------
    def parent_name(self) -> str | None:
        """Name of the span enclosing the one now closing (hooks run inside it)."""
        return self._stack[-2][1] if len(self._stack) > 1 else None

    def _enter(self, name: str) -> float:
        self._stack.append([next(self._ids), name, 0.0])
        return time.perf_counter()

    def _exit(self, start: float) -> None:
        end = time.perf_counter()
        sid, name, covered = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - covered
        self.calls[name] += 1
        parent = 0
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        self.spans.append((sid, parent, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of benchmark code."""
        start = self._enter(name)
        try:
            yield
        finally:
            self._exit(start)

    @contextlib.contextmanager
    def pause(self):
        """Calls inside this block (the benchmark's own output checks) record nothing."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            start = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, out)
                return out
            finally:
                tracer._exit(start)

        return wrapper

    # -- installing wrappers -------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`WRAP_POINTS` wherever it is bound.

        Benchmark code calls entry points through their module (``pq.write_file``),
        so rebinding inside ``repro`` modules is enough."""
        for modname in {w[1] for w in WRAP_POINTS}:
            importlib.import_module(modname)  # so every importer is loaded first
        for name, modname, attr, hook in WRAP_POINTS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(name, raw.__func__, hook))
                else:
                    new = self._wrap(name, raw, hook)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(mod, attr)
            wrapped = self._wrap(name, fn, hook)
            for m in list(sys.modules.values()):
                if not getattr(m, "__name__", "").startswith("repro"):
                    continue
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._undo.append((m, key, fn))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        """Restore every rebinding made by :meth:`install`."""
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ---------------------------------------------------------------
    def write_spans(self, path: str) -> None:
        """Write all spans as tab-separated ``id parent name start end`` lines."""
        with open(path, "w") as f:
            f.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, name, start, end in sorted(self.spans):
                f.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
