"""Partitioners (§3.2): split a sequence so Model+Delta compresses best.

Two schemes:

* :func:`fixed_partitions` + :func:`search_fixed_length` — fixed-length
  partitions with the paper's sampling-based "U-shape" size search (§3.2.1).
* :func:`var_partitions` — the greedy **split/merge** variable-length
  algorithm (§3.2.2) using the approximate difficulty metric
  ``Δ̃(v[i,j)) = bits(max(dₖ) − min(dₖ))`` over the first differences, with
  the cost rule ``C = (len+1)·Δ̃_new − len·Δ̃_old ≤ τ·S_M`` in the split
  phase, then a bisection refine and merge passes (with exact widths)
  until fixpoint.

Deviation from the paper (documented in DESIGN.md §4): the split phase scans
left-to-right instead of seeding at minimum second-order-delta positions;
tests bound the gap against an exact dynamic program.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .bitpack import bits_needed_vec

__all__ = [
    "fixed_partitions",
    "search_fixed_length",
    "var_partitions",
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


#: first differences the split phase walks per partition as Python ints;
#: a partition that outgrows them is scanned in numpy blocks from its
#: start, ×4 larger each time no cut is found.
_SPLIT_BLOCK = 64


def _scalar_cut(d: list[int], threshold: float) -> int | None:
    """Offset from a partition's start of its first cut among its first
    differences ``d`` (Python ints), or None."""
    # entry j adds value j + 1, whose partition then holds j + 2 values;
    # the first MIN_PARTITION − 1 join unconditionally
    hi, lo = max(d[: MIN_PARTITION - 1]), min(d[: MIN_PARTITION - 1])
    w = (hi - lo).bit_length()
    for j in range(MIN_PARTITION - 1, len(d)):
        x = d[j]
        if x > hi:
            hi, w_new = x, (x - lo).bit_length()
        elif x < lo:
            lo, w_new = x, (hi - x).bit_length()
        else:
            w_new = w
        if (j + 2) * w_new - (j + 1) * w > threshold:
            return j + 1
        w = w_new
    return None


def _block_cut(d: np.ndarray, threshold: float) -> int | None:
    """:func:`_scalar_cut` of the int64 block ``d`` in one vectorized step,
    the running max/min spread read as uint64: exact over all of int64."""
    w = bits_needed_vec(np.maximum.accumulate(d) - np.minimum.accumulate(d))
    ln = np.arange(MIN_PARTITION, len(d) + 1)  # partition length before each candidate
    cost = (ln + 1) * w[MIN_PARTITION - 1 :] - ln * w[MIN_PARTITION - 2 : -1]
    cut = np.flatnonzero(cost > threshold)
    return MIN_PARTITION + int(cut[0]) if len(cut) else None


def _split(d: np.ndarray, threshold: float) -> list[int]:
    """Split phase: grow each partition left to right while the cost of
    adding the next value, ``C = (len+1)·Δ̃_new − len·Δ̃_old``, stays within
    ``threshold``; the first value with ``C > threshold`` starts a new one.

    ``d`` holds the (wrapping int64) first differences.  Each partition's
    first ``_SPLIT_BLOCK`` are walked as Python ints, where the spread
    ``hi − lo`` is exact; a longer partition is scanned in blocks."""
    starts, p, n = [0], 0, len(d)
    while n - p >= MIN_PARTITION:
        size = _SPLIT_BLOCK
        cut = _scalar_cut(d[p : p + size].tolist(), threshold)
        while cut is None and p + size < n:
            size *= 4
            cut = _block_cut(d[p : p + size], threshold)
        if cut is None:
            break
        p += cut
        starts.append(p)
    return starts


#: at most this many merge passes (a fixpoint usually comes sooner)
_MAX_MERGE_PASSES = 8

#: longest candidate a merge pass fits ahead of its walk; a longer one
#: costs a fit of its own in the width callback anyway
_SPECULATE_LEN = 128


def _merges(a: int, b: int, c: int, w_ab: int, w_bc: int, w_ac: int) -> bool:
    """The merge rule: ``v[a:b]`` and ``v[b:c]`` become one partition when
    that is no larger than the two apart."""
    return MODEL_BITS + (c - a) * w_ac <= 2 * MODEL_BITS + (b - a) * w_ab + (c - b) * w_bc


def _speculate(bounds: list[int], widths: list[int], memo: dict, fit: Callable[[list], None]) -> None:
    """Fit ahead, in a few batched ``fit`` calls, the candidates a merge pass
    over ``bounds`` will most likely ask for.  The pass merges partition
    ``k`` with its right neighbours while the rule holds, then starts over
    from the first one it refused.  Here every partition starts such a
    chain, and all chains advance in lockstep, one candidate each per
    round; a chain stops at its first refusal or at a candidate longer than
    ``_SPECULATE_LEN`` values, and one whose first partition a live chain to
    its left has absorbed is dropped, as the pass would not start there.
    The pass itself is not changed: it reads these widths from ``memo`` and
    fits any candidate missed here."""
    last = len(widths) - 1
    chains = [(k, k, widths[k]) for k in range(last)]  # (first partition, last partition, width)
    while chains:
        chains = [(s, e, w) for s, e, w in chains if e < last and bounds[e + 2] - bounds[s] <= _SPECULATE_LEN]
        fit([(bounds[s], bounds[e + 2]) for s, e, _ in chains])
        live, reach = [], -1
        for s, e, w in chains:
            a, b, c = bounds[s], bounds[e + 1], bounds[e + 2]
            if s > reach and _merges(a, b, c, w, widths[e + 1], memo[a, c]):
                live.append((s, e + 1, memo[a, c]))
                reach = e + 1
        chains = live


def var_partitions(
    values: np.ndarray,
    *,
    tau: float,
    exact_widths: Callable[[np.ndarray, Sequence[int], Sequence[int]], Sequence[int]],
) -> np.ndarray:
    """Greedy split/merge variable-length partitioning (§3.2.2).

    ``exact_widths(v, starts, stops)`` returns the true delta bit-width the
    codec would use for each partition ``v[a:b]`` (invoking its Regressor);
    the split phase only uses the cheap Δ̃ approximation, the refine and
    merge phases use exact widths, each range's width computed once per call.
    Returns the partition start indices (uint32, first element 0; none for
    empty input).
    """
    v = np.asarray(values, dtype=np.int64)
    n = len(v)
    if n <= MIN_PARTITION:
        return np.zeros(min(n, 1), dtype=np.uint32)
    starts = _split(np.diff(v), tau * MODEL_BITS)

    memo: dict[tuple[int, int], int] = {}

    def fit(ranges: list[tuple[int, int]]) -> None:
        """Exact widths of the distinct ``ranges`` not yet fitted, in one call."""
        new = [r for r in ranges if r not in memo]
        if new:
            memo.update(zip(new, map(int, exact_widths(v, *zip(*new)))))

    def width(a: int, b: int) -> int:
        """Exact width of ``v[a:b]``; a range is fitted at most once."""
        if (a, b) not in memo:
            memo[a, b] = int(exact_widths(v, (a,), (b,))[0])
        return memo[a, b]

    # --- refine phase: bisect partitions while it shrinks the exact encoded
    # size, breadth first: one call fits the whole range and both halves of
    # every node of a level.  The split phase's Δ̃ metric misses the slow
    # drift of random-walk-like data, so it can grow one enormous partition;
    # the paper seeds many concurrent starting partitions instead.  Top-down
    # bisection with exact widths recovers the same effect; the merge phase
    # below re-joins any over-splits.
    bounds = starts + [n]
    level = [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b - a >= 2 * MIN_PARTITION]
    while level:
        fit([r for a, b in level for r in ((a, b), (a, (a + b) // 2), ((a + b) // 2, b))])
        nodes, level = level, []
        for a, b in nodes:
            mid = (a + b) // 2
            halves = 2 * MODEL_BITS + (mid - a) * memo[a, mid] + (b - mid) * memo[mid, b]
            if halves < MODEL_BITS + (b - a) * memo[a, b]:
                starts.append(mid)
                level += [r for r in ((a, mid), (mid, b)) if r[1] - r[0] >= 2 * MIN_PARTITION]

    # --- merge phase: exact-width pairwise merges to fixpoint --------------
    bounds = sorted(starts) + [n]
    fit(list(zip(bounds[:-1], bounds[1:])))
    widths = [memo[r] for r in zip(bounds[:-1], bounds[1:])]
    for _ in range(_MAX_MERGE_PASSES):
        _speculate(bounds, widths, memo, fit)
        merged_any = False
        k = 0
        while k + 1 < len(widths):
            a, b, c = bounds[k], bounds[k + 1], bounds[k + 2]
            w_m = width(a, c)
            if _merges(a, b, c, widths[k], widths[k + 1], w_m):
                del bounds[k + 1]
                widths[k : k + 2] = [w_m]
                merged_any = True
            else:
                k += 1
        if not merged_any:
            break
    return np.asarray(bounds[:-1], dtype=np.uint32)
