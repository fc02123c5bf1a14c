"""Partitioners (§3.2): split a sequence so Model+Delta compresses best.

Three schemes:

* :func:`fixed_partitions` + :func:`search_fixed_length` — fixed-length
  partitions with the paper's sampling-based "U-shape" size search (§3.2.1).
* :func:`var_partitions` — the greedy **split/merge** variable-length
  algorithm (§3.2.2) using the approximate difficulty metric
  ``Δ̃(v[i,j)) = bits(max(dₖ) − min(dₖ))`` over the first differences, with
  the cost rule ``C = (len+1)·Δ̃_new − len·Δ̃_old ≤ τ·S_M`` in the split
  phase, followed by merge passes (with exact widths) until fixpoint.
* :func:`dp_optimal_partitions` — exact dynamic program, O(n²); the test
  oracle the paper's §3.2.2 validates against (greedy ≤ ~3% worse).

Deviation from the paper (documented in DESIGN.md §4): the split phase scans
left-to-right instead of seeding at minimum second-order-delta positions;
tests bound the gap against the DP optimum.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .bitpack import bits_needed_vec

__all__ = [
    "fixed_partitions",
    "fixed_rows",
    "var_rows",
    "search_fixed_length",
    "var_partitions",
    "dp_optimal_partitions",
]

#: minimum values per starting partition for a linear Regressor (§3.2.2).
MIN_PARTITION = 3

#: S_M, a partition's model size in bits: two 64-bit parameters (LeCo's
#: θ0 and θ1; Delta's first value and difference bias).
MODEL_BITS = 128


def fixed_partitions(n: int, length: int) -> np.ndarray:
    """Start indices of fixed-``length`` partitions covering ``[0, n)``."""
    if length <= 0:
        raise ValueError(f"partition length must be positive, got {length}")
    return np.arange(0, n, length, dtype=np.uint32)


def fixed_rows(values: np.ndarray, length: int) -> list[np.ndarray]:
    """``values`` cut into fixed-``length`` partitions as 2-D blocks: the
    full partitions as one ``(m, length)`` matrix, then the short tail as a
    ``(1, r)`` row; an empty block is left out."""
    m = len(values) // length
    blocks = [values[: m * length].reshape(m, length)] if m else []
    if len(values) % length:
        blocks.append(values[m * length :].reshape(1, -1))
    return blocks


def var_rows(values: np.ndarray, starts: np.ndarray) -> list[np.ndarray]:
    """``values`` cut at ``starts``: one ``(1, n_k)`` block per partition."""
    bounds = np.append(starts, len(values)).astype(np.int64).tolist()
    return [values[a:b].reshape(1, -1) for a, b in zip(bounds[:-1], bounds[1:])]


#: the fixed-length search samples this share of the values (<1% suffices,
#: §3.2.1) in chunks at seeded positions, and tries L = 2^_MIN_EXP .. 2^_MAX_EXP
_SAMPLE_RATE, _SAMPLE_SEED, _MIN_EXP, _MAX_EXP = 0.01, 0, 4, 17


def search_fixed_length(values: np.ndarray, cost_of: Callable[[np.ndarray, int], int]) -> int:
    """Sampling-based partition-size search (§3.2.1).

    ``cost_of(sample, L)`` returns the compressed size in bytes of ``sample``
    split into length-``L`` partitions.  We sample a few contiguous
    subsequences (sampling rate <1% suffices per the paper), sweep ``L`` over
    powers of two until past the U-shape minimum (exponential phase), then
    refine around the best with two midpoint probes.
    """
    n = len(values)
    target = max(4096, int(n * _SAMPLE_RATE))
    if n <= target * 2:
        sample = np.asarray(values)
    else:
        g = np.random.default_rng(_SAMPLE_SEED)
        chunk = max(512, target // 8)
        starts = g.integers(0, n - chunk, size=max(1, target // chunk))
        sample = np.concatenate([values[s : s + chunk] for s in np.sort(starts)])
    best_l, best_c = None, None
    prev_c = None
    rising = 0
    for e in range(_MIN_EXP, _MAX_EXP + 1):
        L = 1 << e
        if L > len(sample):
            break
        c = cost_of(sample, L)
        if best_c is None or c < best_c:
            best_l, best_c = L, c
        rising = rising + 1 if prev_c is not None and c > prev_c else 0
        prev_c = c
        if rising >= 2:  # past the global minimum of the U-shape
            break
    if best_l is None:  # input smaller than the smallest candidate size
        return max(1, len(sample))
    # refine: probe the midpoints of the neighbouring octaves.
    for L in (best_l * 3 // 4, best_l * 3 // 2):
        if MIN_PARTITION <= L <= len(sample):
            c = cost_of(sample, L)
            if c < best_c:
                best_l, best_c = L, c
    return int(best_l)


#: first block of first differences the split phase scans per partition;
#: a block with no cut grows ×4 and is scanned again.
_SPLIT_BLOCK = 64


def _split(d: np.ndarray, threshold: float) -> list[int]:
    """Split phase: grow each partition left to right while the cost of
    adding the next value, ``C = (len+1)·Δ̃_new − len·Δ̃_old``, stays within
    ``threshold``; the first value with ``C > threshold`` starts a new one.

    ``d`` holds the (wrapping int64) first differences.  Each partition's
    running max/min of ``d`` is taken over a block at a time, so every
    candidate cost of the block is evaluated in one vectorized step; the
    spread is read as uint64, exact over the full int64 range."""
    starts = [0]
    p, size = 0, _SPLIT_BLOCK
    lens = np.arange(MIN_PARTITION, len(d) + 2)  # partition length before each candidate
    while len(d) - p >= MIN_PARTITION:
        blk = d[p : p + size]
        w = bits_needed_vec(np.maximum.accumulate(blk) - np.minimum.accumulate(blk))
        # entry i of the block adds value p + 1 + i, whose partition then
        # holds i + 2 values; the first MIN_PARTITION - 1 join unconditionally
        ln = lens[: len(blk) - MIN_PARTITION + 1]
        cost = (ln + 1) * w[MIN_PARTITION - 1 :] - ln * w[MIN_PARTITION - 2 : -1]
        cut = np.flatnonzero(cost > threshold)
        if len(cut):
            p += MIN_PARTITION + int(cut[0])
            starts.append(p)
            size = _SPLIT_BLOCK
        elif p + size >= len(d):
            break
        else:
            size *= 4
    return starts


#: at most this many merge passes (a fixpoint usually comes sooner)
_MAX_MERGE_PASSES = 8


def var_partitions(
    values: np.ndarray,
    *,
    tau: float,
    exact_width: Callable[[np.ndarray], int],
) -> np.ndarray:
    """Greedy split/merge variable-length partitioning (§3.2.2).

    ``exact_width(sub)`` returns the true delta bit-width the codec would use
    for a partition holding ``sub`` (invoking its Regressor); the split phase
    only uses the cheap Δ̃ approximation, the refine and merge phases use
    exact widths, each range's width computed once per call.
    Returns the partition start indices (uint32, first element 0; none for
    empty input).
    """
    v = np.asarray(values, dtype=np.int64)
    n = len(v)
    if n <= MIN_PARTITION:
        return np.zeros(min(n, 1), dtype=np.uint32)
    starts = _split(np.diff(v), tau * MODEL_BITS)

    memo: dict[tuple[int, int], int] = {}

    def width(a: int, b: int) -> int:
        """Exact width of ``v[a:b]``; a range is fitted at most once."""
        w = memo.get((a, b))
        if w is None:
            w = memo[a, b] = exact_width(v[a:b])
        return w

    # --- refine phase: recursively bisect partitions while it shrinks the
    # exact encoded size.  The split phase's Δ̃ metric is insensitive to the
    # slow drift of random-walk-like data (stable first-difference spread but
    # growing deviation from any one line), so it can grow one enormous
    # partition; the paper avoids this by seeding many concurrent starting
    # partitions.  Top-down bisection with exact widths recovers the same
    # effect; the merge phase below re-joins any over-splits.
    refined: list[int] = []
    for k, s in enumerate(starts):
        e = starts[k + 1] if k + 1 < len(starts) else n
        refined.extend(_bisect(s, e, width))
    starts = refined

    # --- merge phase: exact-width pairwise merges to fixpoint --------------
    bounds = starts + [n]
    widths = [width(bounds[k], bounds[k + 1]) for k in range(len(starts))]
    for _ in range(_MAX_MERGE_PASSES):
        merged_any = False
        k = 0
        while k + 1 < len(widths):
            a, b, c = bounds[k], bounds[k + 1], bounds[k + 2]
            w_m = width(a, c)
            merged = MODEL_BITS + (c - a) * w_m
            separate = 2 * MODEL_BITS + (b - a) * widths[k] + (c - b) * widths[k + 1]
            if merged <= separate:
                del bounds[k + 1]
                widths[k : k + 2] = [w_m]
                merged_any = True
            else:
                k += 1
        if not merged_any:
            break
    return np.asarray(bounds[:-1], dtype=np.uint32)


def _bisect(lo: int, hi: int, width: Callable[[int, int], int]) -> list[int]:
    """Recursively split ``[lo, hi)`` at the midpoint while the exact encoded
    size (model + deltas, in bits; ``width(a, b)`` of ``[a, b)``) decreases.
    Returns partition starts."""
    if hi - lo < 2 * MIN_PARTITION:
        return [lo]
    mid = (lo + hi) // 2
    whole = MODEL_BITS + (hi - lo) * width(lo, hi)
    halves = 2 * MODEL_BITS + (mid - lo) * width(lo, mid) + (hi - mid) * width(mid, hi)
    if halves >= whole:
        return [lo]
    return _bisect(lo, mid, width) + _bisect(mid, hi, width)


def dp_optimal_partitions(values: Sequence[int], cost_bits: Callable[[np.ndarray], int]) -> np.ndarray:
    """Exact optimal partitioning by dynamic programming (test oracle only).

    ``cost_bits(sub)`` is the total encoded size in bits of one partition
    holding ``sub`` (model + deltas).  O(n²) subproblems, each cost call
    O(len); fine for the ≤ few-hundred-element inputs used in tests.
    """
    v = np.asarray(values, dtype=np.int64)
    n = len(v)
    INF = float("inf")
    best = [INF] * (n + 1)
    prev = [0] * (n + 1)
    best[0] = 0.0
    for j in range(1, n + 1):
        for i in range(max(0, j - 4096), j):
            if best[i] == INF:
                continue
            c = best[i] + cost_bits(v[i:j])
            if c < best[j]:
                best[j], prev[j] = c, i
    cuts = []
    j = n
    while j > 0:
        cuts.append(prev[j])
        j = prev[j]
    return np.asarray(sorted(cuts), dtype=np.uint32)
