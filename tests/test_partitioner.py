"""Unit tests for the Partitioner (§3.2): fixed, variable, DP-optimal, PLA."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.delta_codec import _delta_fit, _delta_width
from repro.core.bitpack import bits_needed
from repro.core.leco import _linear_width
from repro.core.partitioner import (
    MIN_PARTITION,
    _split,
    dp_optimal_partitions,
    fixed_partitions,
    search_fixed_length,
    var_partitions,
)
from repro.datasets import INTEGER_DATASETS
from repro.core.format import EncodedSequence
from repro.core.pla import LeCoAngle, angle_partitions
from repro.core.regressor import LinearRegressor


def test_fixed_partitions_cover():
    starts = fixed_partitions(1000, 128)
    assert starts[0] == 0
    assert list(np.diff(starts)) == [128] * (len(starts) - 1)
    assert starts[-1] < 1000


def test_fixed_partitions_rejects_nonpositive():
    with pytest.raises(ValueError):
        fixed_partitions(10, 0)


def _starts_valid(starts, n):
    s = list(starts)
    assert s[0] == 0
    assert all(a < b for a, b in zip(s, s[1:]))
    assert s[-1] < n


@pytest.mark.parametrize("tau", [0.0, 0.05, 0.1, 0.2])
def test_var_partitions_valid(tau):
    g = np.random.default_rng(3)
    v = np.cumsum(g.integers(0, 50, 5000)).astype(np.int64)
    starts = var_partitions(v, tau=tau, exact_width=_linear_width)
    _starts_valid(starts, len(v))


def test_var_partitions_tiny_input():
    starts = var_partitions(np.array([1, 2, 3]), tau=0.1, exact_width=_linear_width)
    assert list(starts) == [0]


def test_var_partitions_detects_regime_change():
    """Two clean linear regimes with different slopes should be split."""
    v = np.concatenate([7 * np.arange(500), 100000 - 90 * np.arange(500)]).astype(np.int64)
    starts = var_partitions(v, tau=0.1, exact_width=_linear_width)
    assert len(starts) >= 2
    # some boundary near the regime switch at 500
    assert any(abs(int(s) - 500) <= MIN_PARTITION * 2 for s in starts)


def test_var_partitions_merges_uniform_data():
    """One clean line should end as very few partitions."""
    v = (11 * np.arange(4000)).astype(np.int64)
    starts = var_partitions(v, tau=0.1, exact_width=_linear_width)
    assert len(starts) <= 4


def _enc_bits(sub):
    return 128 + len(sub) * _linear_width(np.asarray(sub))


@pytest.mark.parametrize("seed", range(5))
def test_greedy_within_envelope_of_dp(seed):
    """§3.2.2 validation: greedy var-partitioning stays within a small factor
    of the DP optimum (the paper reports <3%; we allow 15% at tiny scale
    where header granularity dominates)."""
    g = np.random.default_rng(seed)
    v = np.cumsum(g.integers(0, 2 ** int(g.integers(1, 8)), 250)).astype(np.int64)
    starts = var_partitions(v, tau=0.05, exact_width=_linear_width)
    bounds = list(starts) + [len(v)]
    greedy = sum(_enc_bits(v[bounds[i] : bounds[i + 1]]) for i in range(len(starts)))
    opt_starts = dp_optimal_partitions(v, _enc_bits)
    ob = list(opt_starts) + [len(v)]
    optimal = sum(_enc_bits(v[ob[i] : ob[i + 1]]) for i in range(len(opt_starts)))
    assert greedy <= optimal * 1.15 + 256


def test_dp_is_no_worse_than_single_partition():
    g = np.random.default_rng(9)
    v = np.cumsum(g.integers(0, 100, 200)).astype(np.int64)
    opt = dp_optimal_partitions(v, _enc_bits)
    ob = list(opt) + [len(v)]
    total = sum(_enc_bits(v[ob[i] : ob[i + 1]]) for i in range(len(opt)))
    assert total <= _enc_bits(v)


def test_search_fixed_length_finds_u_shape_minimum():
    """On clean linear data larger partitions amortize headers: search should
    not return the smallest size probed."""
    v = (3 * np.arange(60_000)).astype(np.int64)

    def cost(sample, L):
        total = 0
        for s in range(0, len(sample), L):
            sub = sample[s : s + L]
            total += 25 + (len(sub) * _linear_width(sub) + 7) // 8
        return total

    L = search_fixed_length(v, cost)
    assert L >= 128


def test_search_fixed_length_small_input():
    v = np.arange(100, dtype=np.int64)

    def cost(sample, L):
        return len(sample) // L + 1

    assert search_fixed_length(v, cost) >= 16


def test_angle_partitions_respect_error_bound():
    g = np.random.default_rng(4)
    v = np.cumsum(g.integers(0, 20, 2000)).astype(np.int64)
    eps = 64.0
    starts = angle_partitions(v, eps)
    _starts_valid(starts, len(v))
    bounds = list(starts) + [len(v)]
    reg = LinearRegressor()
    for i in range(len(starts)):
        sub = v[bounds[i] : bounds[i + 1]].astype(np.float64)
        if len(sub) < 2:
            continue
        # a feasible line through the anchor exists within ±eps; the LSM fit
        # must then achieve max error within ~2*eps
        m = reg.fit(sub)
        err = np.abs(sub - (m.theta0 + m.theta1 * np.arange(len(sub))))
        assert err.max() <= 2 * eps + 2


def test_angle_partitions_single_segment_for_line():
    v = (5 * np.arange(1000)).astype(np.int64)
    assert len(angle_partitions(v, 8.0)) == 1


def test_angle_partitions_empty_gives_no_starts():
    starts = angle_partitions(np.array([]), 8.0)
    assert starts.dtype == np.uint32 and len(starts) == 0
    codec = LeCoAngle()
    enc = EncodedSequence.from_bytes(codec.encode(np.array([], dtype=np.int64)).to_bytes())
    assert enc.n == 0 and len(enc.partitions) == 0
    assert codec.decode(enc).dtype == np.int64 and len(codec.decode(enc)) == 0


def test_delta_width_metric():
    assert _delta_width(np.array([10, 12, 14, 16])) == 2  # raw diffs of 2
    assert _delta_width(np.array([5])) == 0
    # single negative diff: bias −1 absorbs it entirely → width 0
    assert _delta_width(np.array([10, 9])) == 0
    # mixed diffs: bias −1, spread 2−(−1)=3 → 2 bits
    assert _delta_width(np.array([10, 9, 11])) == 2
    # a bias ≤ −2^53 is stored as wrapping differences at width 64
    assert _delta_width(np.array([0, -(2**53), 7])) == 64


_STEPS = st.one_of(
    st.integers(-8, 8),
    st.integers(-(2**53) - 2, -(2**53) + 2),  # where θ1 stops holding the bias exactly
    st.integers(-(2**63), 2**63 - 1),
)


@given(first=st.integers(-(2**63), 2**63 - 1), steps=st.lists(_STEPS, max_size=8))
@settings(max_examples=300, deadline=None)
def test_delta_width_is_the_stored_width(first, steps):
    """The Partitioner's scalar width is the one ``_delta_fit`` stores the
    partition at, wide difference biases included."""
    r = np.cumsum(np.array([first] + steps, dtype=np.int64))  # wraps, so np.diff(r) == steps
    assert _delta_width(r) == _delta_fit(r[None])[3][0]


# --- differential tests of the vectorized split phase ----------------------
# The oracle is the scalar split/merge Partitioner the block-scan split
# replaced, kept here verbatim (split loop, refine, merge, no width memo) so
# the library holds one split only.


def _oracle_split(v, threshold):
    """The per-element split loop: Python-int running max/min of the first
    differences, two ``bits_needed`` calls per value."""
    n = len(v)
    d = np.diff(v)
    starts = [0]
    p_start = 0
    dmax = dmin = None
    for j in range(1, n):
        dj = int(d[j - 1])
        length = j - p_start
        if length < MIN_PARTITION:
            dmax = dj if dmax is None else max(dmax, dj)
            dmin = dj if dmin is None else min(dmin, dj)
            continue
        w_old = bits_needed(dmax - dmin)
        nmax, nmin = max(dmax, dj), min(dmin, dj)
        w_new = bits_needed(nmax - nmin)
        cost = (length + 1) * w_new - length * w_old
        if cost <= threshold:
            dmax, dmin = nmax, nmin
        else:
            starts.append(j)
            p_start = j
            dmax = dmin = None
    return starts


def _oracle_bisect(v, lo, hi, exact_width, model_bits):
    if hi - lo < 2 * MIN_PARTITION:
        return [lo]
    mid = (lo + hi) // 2
    whole = model_bits + (hi - lo) * exact_width(v[lo:hi])
    halves = (
        2 * model_bits
        + (mid - lo) * exact_width(v[lo:mid])
        + (hi - mid) * exact_width(v[mid:hi])
    )
    if halves >= whole:
        return [lo]
    return _oracle_bisect(v, lo, mid, exact_width, model_bits) + _oracle_bisect(
        v, mid, hi, exact_width, model_bits
    )


def _oracle_var_partitions(values, *, tau, model_bits, exact_width, max_merge_passes=8):
    v = np.asarray(values, dtype=np.int64)
    n = len(v)
    if n <= MIN_PARTITION:
        return np.zeros(min(n, 1), dtype=np.uint32)
    starts = _oracle_split(v, tau * model_bits)
    refined = []
    for k, s in enumerate(starts):
        e = starts[k + 1] if k + 1 < len(starts) else n
        refined.extend(_oracle_bisect(v, s, e, exact_width, model_bits))
    starts = refined
    bounds = starts + [n]
    widths = [exact_width(v[bounds[k] : bounds[k + 1]]) for k in range(len(starts))]
    for _ in range(max_merge_passes):
        merged_any = False
        k = 0
        while k + 1 < len(widths):
            a, b, c = bounds[k], bounds[k + 1], bounds[k + 2]
            w_m = exact_width(v[a:c])
            merged = model_bits + (c - a) * w_m
            separate = 2 * model_bits + (b - a) * widths[k] + (c - b) * widths[k + 1]
            if merged <= separate:
                del bounds[k + 1]
                widths[k : k + 2] = [w_m]
                merged_any = True
            else:
                k += 1
        if not merged_any:
            break
    return np.asarray(bounds[:-1], dtype=np.uint32)


I64_MIN, I64_MAX = -(2**63), 2**63 - 1
TAUS = [0.0, 0.05, 0.1, 0.2, 1.0]


@st.composite
def split_inputs(draw):
    """int64 columns the split must treat exactly like the scalar loop:
    arbitrary full-range values (``np.diff`` wraps), constant runs, repeats,
    sorted Poisson runs, 0–6 values, and lines long enough that one
    partition spans several scan blocks, with a regime change inside."""
    kind = draw(st.sampled_from(["any", "tiny", "constant", "poisson", "long_line"]))
    if kind in ("any", "tiny"):
        ints = st.one_of(st.integers(I64_MIN, I64_MAX), st.sampled_from([I64_MIN, -1, 0, 1, I64_MAX]))
        return draw(st.lists(ints, min_size=0, max_size=6 if kind == "tiny" else 300))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 3000))
    base = draw(st.one_of(st.integers(-1000, 1000), st.integers(-(2**61), 2**61)))
    if kind == "constant":
        runs = g.integers(1, 200, n // 8 + 1)
        return (base + np.repeat(g.integers(-50, 50, len(runs)), runs)[:n]).tolist()
    if kind == "poisson":
        steps = g.poisson(draw(st.sampled_from([0.02, 0.5, 3.0, 1000.0])), n)
        return (base + np.cumsum(steps)).tolist()
    slope, cut = draw(st.integers(-(2**40), 2**40)), draw(st.integers(0, 5000))
    i = np.arange(n + 1000, dtype=np.int64)
    return (base + slope * i + np.where(i >= cut, 7 * (i - cut), 0)).tolist()


@given(values=split_inputs(), tau=st.sampled_from(TAUS))
@settings(max_examples=300, deadline=None)
def test_split_matches_scalar_loop(values, tau):
    v = np.asarray(values, dtype=np.int64)
    if len(v) <= MIN_PARTITION:  # var_partitions returns before splitting
        return
    assert _split(np.diff(v), tau * 128) == _oracle_split(v, tau * 128)


@given(
    values=split_inputs(),
    tau=st.sampled_from(TAUS),
    width=st.sampled_from([_linear_width, _delta_width]),
)
@settings(max_examples=150, deadline=None)
def test_var_partitions_matches_scalar_oracle(values, tau, width):
    got = var_partitions(values, tau=tau, exact_width=width)
    want = _oracle_var_partitions(values, tau=tau, model_bits=128, exact_width=width)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_var_partitions_matches_scalar_oracle_on_datasets():
    """Identical starts on every §4.1 data set (Fig 15/16 do not move)."""
    for name, gen in INTEGER_DATASETS.items():
        v = gen(20_000)[0]
        for width in (_linear_width, _delta_width):
            got = var_partitions(v, tau=0.1, exact_width=width)
            want = _oracle_var_partitions(v, tau=0.1, model_bits=128, exact_width=width)
            assert got.tolist() == want.tolist(), (name, width.__name__)


def _counting(exact_width, v, fitted):
    """``exact_width`` that records each range it fits as ``(start, len)``."""
    base = v.__array_interface__["data"][0]

    def width(sub):
        fitted.append(((sub.__array_interface__["data"][0] - base) // 8, len(sub)))
        return exact_width(sub)

    return width


@pytest.mark.parametrize("name", ["books", "normal", "ml", "movieid"])
@pytest.mark.parametrize("exact_width", [_linear_width, _delta_width])
def test_var_partitions_fits_each_range_once(name, exact_width):
    """Hardware-neutral counter: within one call no range is fitted twice,
    and the calls are exactly the distinct ranges the unmemoized
    Partitioner fitted."""
    v = np.ascontiguousarray(INTEGER_DATASETS[name](20_000)[0], dtype=np.int64)
    fitted, old = [], []
    var_partitions(v, tau=0.1, exact_width=_counting(exact_width, v, fitted))
    _oracle_var_partitions(v, tau=0.1, model_bits=128, exact_width=_counting(exact_width, v, old))
    assert len(fitted) == len(set(fitted))
    assert set(fitted) == set(old)
    assert len(fitted) < len(old)
