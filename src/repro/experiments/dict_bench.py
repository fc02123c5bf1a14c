"""Order-preserving dictionary compression under a memory budget (§4.4, Fig 11).

The paper's setup: a probe-side column is order-preserving-dictionary
encoded; the query filters 1% of rows then probes an in-memory hash table
(50% hit rate).  The dictionary — the value array mapping code → value —
is compressed with {LeCo, FOR, Raw} and paged through a buffer pool with a
fixed memory budget; a page miss costs one modeled NVMe random read.

The medicare data set (10M 64-bit integers augmented to 1.5B) is
proprietary-ish BI data; our stand-in is a serially smooth sorted unique
dictionary (near-arithmetic values with small noise — the regime in which
the paper reports LeCo 0.23% vs FOR 17%).  See DESIGN.md §2.

Throughput is raw probe bytes / (cpu + modeled I/O) — the paper's metric.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..baselines.for_codec import FORCodec
from ..core.format import _PART_HDR
from ..core.leco import LeCoVar
from ..rocksdb_sim.db import IO_LATENCY_S

PAGE = 4096
#: FOR's frame length for the paged dictionary
_FOR_FRAME = 1024


def medicare_like(n_unique: int, seed: int = 7) -> np.ndarray:
    """Sorted unique dictionary values: near-arithmetic with sparse jumps."""
    g = np.random.default_rng(seed)
    gaps = np.ones(n_unique, dtype=np.int64)
    jump = g.random(n_unique) < 0.001
    gaps[jump] += g.integers(1, 50, int(jump.sum()))
    return np.cumsum(gaps) + 10_000_000


@dataclass
class DictResult:
    method: str
    budget_mb: float
    dict_bytes: int
    dict_ratio: float
    throughput_mbps: float
    page_misses: int


class _PagedDict:
    """Code → value access through a paged, LRU-buffered dictionary."""

    def __init__(self, method: str, values: np.ndarray):
        self.method = method
        self.values = values
        if method == "Raw":
            self.nbytes = len(values) * 8
            self._page_of = lambda c: (c * 8) // PAGE
        else:
            # LeCo uses the variable-length Partitioner: the near-arithmetic
            # runs between jumps become near-zero-width partitions, the
            # mechanism behind the paper's extreme dictionary ratios (§4.4).
            codec = FORCodec(_FOR_FRAME) if method == "FOR" else LeCoVar(tau=0.05)
            self.enc = codec.encode(values, dtype_bits=64)
            self.codec = codec
            self.nbytes = self.enc.nbytes()
            # byte offset of each partition within the serialized dictionary
            sizes = _PART_HDR.itemsize + self.enc.partitions.payload_len
            self._part_off = np.concatenate(([0], np.cumsum(sizes)))
            starts = np.append(self.enc.starts, len(values)).astype(np.int64)
            self._starts = starts

            def page_of(c: int) -> int:
                k = int(np.searchsorted(self._starts, c, side="right")) - 1
                return int(self._part_off[k]) // PAGE

            self._page_of = page_of

    def lookup(self, code: int) -> tuple[int, int]:
        """Return (value, page) — the caller charges the buffer pool."""
        if self.method == "Raw":
            return int(self.values[code]), self._page_of(code)
        return self.codec.access(self.enc, code), self._page_of(code)


def run_dict_bench(
    *,
    n_unique: int = 1_500_000,
    n_probe: int = 400_000,
    selectivity: float = 0.01,
    budgets_mb: tuple[float, ...] = (1, 2, 4, 8, 16),
    seed: int = 0,
) -> list[DictResult]:
    g = np.random.default_rng(seed)
    dictionary = medicare_like(n_unique)
    codes = g.integers(0, n_unique, n_probe)
    qualifying = codes[g.random(n_probe) < selectivity]
    # 50%-hit in-memory hash table over dictionary values
    hashed = set(
        int(v) for v in dictionary[g.choice(n_unique, n_unique // 2, replace=False)]
    )
    results: list[DictResult] = []
    for method in ("Raw", "FOR", "LeCo"):
        pd_ = _PagedDict(method, dictionary)
        for budget in budgets_mb:
            budget_pages = max(1, int(budget * 1e6) // PAGE)
            from collections import OrderedDict

            pool: OrderedDict[int, None] = OrderedDict()
            misses = 0
            hits = 0
            t0 = time.perf_counter()
            for c in qualifying:
                v, page = pd_.lookup(int(c))
                if page in pool:
                    pool.move_to_end(page)
                else:
                    misses += 1
                    pool[page] = None
                    if len(pool) > budget_pages:
                        pool.popitem(last=False)
                if v in hashed:
                    hits += 1
            cpu = time.perf_counter() - t0
            total = cpu + misses * IO_LATENCY_S
            results.append(
                DictResult(
                    method, budget, pd_.nbytes, pd_.nbytes / (n_unique * 8),
                    n_probe * 8 / total / 1e6, misses,
                )
            )
    return results


def print_fig11(results: list[DictResult]) -> str:
    lines = ["== Fig 11: dictionary-compressed hash-join throughput (MB/s of probe input) =="]
    budgets = sorted({r.budget_mb for r in results})
    lines.append("method  dict_ratio " + " ".join(f"{b:>9.2f}MB" for b in budgets))
    by = {(r.method, r.budget_mb): r for r in results}
    for m in ("Raw", "FOR", "LeCo"):
        r0 = next(r for r in results if r.method == m)
        cells = " ".join(f"{by[(m, b)].throughput_mbps:>11.1f}" for b in budgets)
        lines.append(f"{m:7s} {r0.dict_ratio:>9.4f} {cells}")
    return "\n".join(lines)
