"""Closed-loop runner and statistics shared by the workloads.

A workload is an object with:

* ``setup()`` — builds its inputs and stores them; returns ``{part: seconds}``
  (each part the median of its repetitions) and sets ``sizes``, a map of
  ``name -> (stored bytes, raw bytes)``;
* ``warm_up(ledger)`` — runs operations until latency stops drifting;
  returns ``(operations, seconds)``;
* ``ops()`` — one cycle: the fixed, seed-determined list of operations.
  Each operation is a zero-argument callable returning an :class:`Op`;
  it checks its own output outside its timed region;
* ``counters()`` — hardware-neutral counts for one cycle;
* ``named_metrics(ledger)`` — the workload's own figures, ``name -> (value, unit)``;
* ``close()`` — releases files and processes.

``tracer`` is ``None``, or the :class:`tracing.Tracer` of a traced cycle.
``min_cycles`` is the fewest whole cycles a run measures.

One client runs the operations of ``ops()`` in order, each after the
previous one completed, for whole cycles only, so every run measures the
same mix.
"""
from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: median repetitions of each cheap set-up part
SETUP_REPS = 3


@dataclass
class Op:
    """One completed operation of the closed loop."""

    kind: str  # "op" (the workload's main operation), "op2" or "aux"
    label: str  # operation type, e.g. "mod600.leco"
    seconds: float  # timed region only
    error: str | None = None  # set when the output was wrong or it raised
    counts: dict[str, float] = field(default_factory=dict)


class Ledger:
    """Every operation attempted, its latency and whether its output was right."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.failures: list[str] = []

    def add(self, op: Op) -> None:
        self.ops.append(op)
        if op.error is not None:
            self.failures.append(f"{op.label}: {op.error}")

    def run(self, fn) -> Op:
        """Run one operation; an exception counts as a failed operation."""
        try:
            op = fn()
        except Exception as e:  # noqa: BLE001 - counted, never retried
            label = getattr(fn, "label", getattr(fn, "__name__", "op"))
            op = Op("aux", label, 0.0, f"{type(e).__name__}: {e}")
        self.add(op)
        return op

    @property
    def attempted(self) -> int:
        return len(self.ops)

    def seconds(self, kind: str | None = None, label: str | None = None) -> list[float]:
        return [
            o.seconds for o in self.ops
            if o.error is None and (kind is None or o.kind == kind)
            and (label is None or o.label == label)
        ]

    def labels(self, kind: str | None = None) -> list[str]:
        return sorted({o.label for o in self.ops if kind is None or o.kind == kind})

    def counts(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for o in self.ops:
            for k, v in o.counts.items():
                out[k] += v
        return dict(out)


def timed_median(fn, reps: int = SETUP_REPS) -> float:
    """Median wall time of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it: (value, pct)."""
    n = len(values)
    if n < 11:
        return None
    s = sorted(values)
    return s[n - 11], 100.0 * (n - 10) / n


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def typical_latency(ledger: Ledger, kind: str) -> float:
    """Geometric mean, over the operation types of ``kind``, of each type's
    median latency.  Unlike a pooled median it does not jump between the
    latency clusters of different operation types."""
    meds = [median(ledger.seconds(kind, label)) for label in ledger.labels(kind)]
    meds = [m for m in meds if m > 0]
    return statistics.geometric_mean(meds) if meds else 0.0


def run_cycles(workload, ledger: Ledger, seconds: float, min_cycles: int = 1) -> list[float]:
    """Run whole cycles until ``seconds`` have passed and at least
    ``min_cycles`` completed.  Returns the wall time of each cycle."""
    ops = workload.ops()
    times: list[float] = []
    t_start = time.perf_counter()
    while len(times) < min_cycles or time.perf_counter() - t_start < seconds:
        t0 = time.perf_counter()
        for fn in ops:
            ledger.run(fn)
        times.append(time.perf_counter() - t0)
    return times


def warm_until_steady(ledger: Ledger, ops: list, *, block: int, max_blocks: int,
                      drift: float = 0.10) -> tuple[int, float]:
    """Repeat the first ``block`` operations of a cycle until the median
    latency of one repetition is within ``drift`` of the previous one.

    Returns (operations run, seconds spent)."""
    t0 = time.perf_counter()
    prev = None
    runs = 0
    for _ in range(max_blocks):
        lat = [ledger.run(fn).seconds for fn in ops[:block]]
        runs += len(lat)
        cur = statistics.median(lat)
        if prev is not None and abs(cur / prev - 1) <= drift:
            break
        prev = cur
    return runs, time.perf_counter() - t0
