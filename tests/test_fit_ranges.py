"""The batched fits of the variable-length layout must equal their one-range
forms bit for bit: ``fit_ranges`` against ``_fit_one`` (which stays the
oracle), ``_row_sums`` against ``np.sum``, and Delta's ``reduceat`` widths
and fit against ``_delta_width`` and a one-range fit kept here.  The
one-range fit itself (``_fit_one`` through ``LinearRegressor.fit``) must
equal the straightforward form kept here as its oracle."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.delta_codec import _WIDE_BIAS, _delta_fit, _delta_width, _delta_widths
from repro.core.bitpack import bits_needed
from repro.core.leco import _SAFE, _fit_one, _linear_widths, _row_sums, fit_ranges
from repro.core.regressor import LinearModel, LinearRegressor, centered, positions

I64_MIN, I64_MAX = -(2**63), 2**63 - 1


def _oracle_regressor_fit(values):
    """``LinearRegressor.fit`` as first written: a fresh array per step."""
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    if n == 1:
        return LinearModel(float(v[0]), 0.0)
    i = positions(n)
    ibar = (n - 1) / 2.0
    vbar = v.sum() / n
    c = i - ibar
    theta1 = float((c * (v - vbar)).sum()) / float((c * c).sum())
    theta0 = vbar - theta1 * ibar
    deltas = np.asarray(values, dtype=np.int64) - np.floor(theta0 + theta1 * i).astype(np.int64)
    shift = (float(deltas.max()) + float(deltas.min())) / 2.0
    return LinearModel(theta0 + shift, theta1)


def _oracle_fit_one(values):
    """``_fit_one`` as first written: the Regressor, then its prediction."""
    v = np.asarray(values, dtype=np.int64)
    lo, hi = int(v.min()), int(v.max())
    w_const = (hi - lo).bit_length()
    if max(-lo, hi) < _SAFE:
        model = _oracle_regressor_fit(v)
        t0, t1 = model.theta0, model.theta1
        if max(abs(math.floor(t0)), abs(math.floor(t0 + t1 * (len(v) - 1)))) < _SAFE:
            deltas = v - np.floor(t0 + t1 * positions(len(v))).astype(np.int64)
            dlo = int(deltas.min())
            w_lin = (int(deltas.max()) - dlo).bit_length()
            if w_lin <= w_const:
                return t0, t1, dlo, w_lin, deltas
    c0 = float(lo) if float(lo) < 2.0**63 else 0.0
    return c0, 0.0, lo - int(c0), w_const, v - int(c0)


@st.composite
def fit_values(draw):
    """One partition of 1–3,000 values or one beyond the cached positions
    (2^16): full-range values, constant runs, sorted runs, ±2^62 edges."""
    n = draw(st.one_of(st.integers(1, 3000), st.sampled_from([65_537, 70_001])))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["any", "constant", "sorted", "edge"]))
    if kind == "any":
        return g.integers(I64_MIN, I64_MAX, n, endpoint=True, dtype=np.int64)
    if kind == "constant":
        return np.full(n, draw(st.integers(I64_MIN, I64_MAX)), dtype=np.int64)
    if kind == "sorted":
        steps = g.poisson(draw(st.sampled_from([0.1, 5.0, 1e6])), n)
        return draw(st.integers(-(2**61), 2**61)) + np.cumsum(steps)
    edges = [-(2**62) - 1, -(2**62), -(2**62) + 1, 0, 2**62 - 1, 2**62, 2**62 + 1]
    return g.choice(np.array(edges + [I64_MIN, I64_MAX]), n)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@given(v=fit_values())
@settings(max_examples=300, deadline=None)
def test_fit_one_is_its_oracle(v):
    """θ0 and θ1 as bytes, bias, width and deltas, and the Regressor's model."""
    got, want = _fit_one(v), _oracle_fit_one(v)
    assert (_bits(got[0]), _bits(got[1])) == (_bits(want[0]), _bits(want[1]))
    assert got[2:4] == want[2:4] and got[4].tolist() == want[4].tolist()
    if max(-int(v.min()), int(v.max())) < _SAFE:
        m, o = LinearRegressor().fit(v), _oracle_regressor_fit(v)
        assert (_bits(m.theta0), _bits(m.theta1)) == (_bits(o.theta0), _bits(o.theta1))


def test_centered_is_positions_minus_mean():
    g = np.random.default_rng(7)
    for n in [1, 2, 3, 4, 65_535, 65_536, 65_537, 70_001, *g.integers(1, 65_536, 200).tolist()]:
        assert centered(n).tobytes() == (positions(n) - (n - 1) / 2.0).tobytes()

_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(-(2**62), 2**62).map(float),
)


@st.composite
def float_rows(draw):
    """A few float64 rows of 1–128 values in a block padded to a multiple
    of 8 with junk past each row's end, drawn from a palette of values:
    all-±0.0 rows, mixed magnitudes."""
    n = np.array(draw(st.lists(st.integers(1, 128), min_size=1, max_size=6)))
    P = -(-int(n.max()) // 8) * 8
    palette = draw(st.lists(_FLOATS, min_size=1, max_size=8))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return g.choice(np.array(palette), (len(n), P)), n


@given(rows=float_rows())
@settings(max_examples=400, deadline=None)
def test_row_sums_is_numpy_sum(rows):
    x, n = rows
    with np.errstate(over="ignore", invalid="ignore"):
        got = _row_sums(x, n)
        want = np.array([np.sum(x[r, : n[r]].copy()) for r in range(len(n))])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_row_sums_every_length():
    """Every length 1–128, all −0.0 and a mix of magnitudes that cancel."""
    g = np.random.default_rng(5)
    n = np.arange(1, 129)
    for x in (
        np.full((128, 128), -0.0),
        g.standard_normal((128, 128)) * 10.0 ** g.integers(-300, 300, (128, 128)),
        np.where(g.random((128, 128)) < 0.5, 1e16, -1e16) + g.integers(-3, 4, (128, 128)),
    ):
        want = np.array([np.sum(x[r, : n[r]].copy()) for r in range(128)])
        assert _row_sums(x, n).view(np.int64).tolist() == want.view(np.int64).tolist()


@st.composite
def ranged_values(draw):
    """An int64 column and 2–8 ranges of 1–300 values inside it: full-range
    values, constant runs, sorted runs, repeats near ±2^62."""
    kind = draw(st.sampled_from(["any", "constant", "sorted", "edge"]))
    n = draw(st.integers(1, 600))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "any":
        v = g.integers(I64_MIN, I64_MAX, n, endpoint=True, dtype=np.int64)
    elif kind == "constant":
        v = np.repeat(g.integers(-(2**62), 2**62, n // 16 + 1), 16)[:n]
    elif kind == "sorted":
        v = draw(st.integers(-(2**61), 2**61)) + np.cumsum(g.poisson(draw(st.sampled_from([0.1, 5.0, 1e6])), n))
    else:
        v = g.choice(np.array([I64_MIN, -(2**62), -(2**62) + 1, 0, 2**62 - 1, 2**62, I64_MAX]), n)
    v = np.asarray(v, dtype=np.int64)
    ranges = []
    for _ in range(draw(st.integers(2, 8))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(a + 1, min(n, a + 300)))
        ranges.append((a, b))
    return v, ranges


def _assert_fit_one(v, ranges):
    """``fit_ranges`` of ``ranges`` equals ``_fit_one`` of each, range by range."""
    starts, stops = (np.array(c, dtype=np.int64) for c in zip(*ranges))
    theta0, theta1, bias, width, stored = fit_ranges(v, starts, stops)
    at = 0
    for k, (a, b) in enumerate(ranges):
        t0, t1, b0, w, deltas = _fit_one(v[a:b])
        assert np.float64(theta0[k]).tobytes() == np.float64(t0).tobytes()
        assert np.float64(theta1[k]).tobytes() == np.float64(t1).tobytes()
        assert (int(bias[k]), int(width[k])) == (b0, w)
        assert stored[at : at + b - a].tolist() == (deltas - b0).tolist()
        at += b - a
    assert at == len(stored)


@given(case=ranged_values())
@settings(max_examples=300, deadline=None)
def test_fit_ranges_is_fit_one(case):
    _assert_fit_one(*case)


def test_ranges_across_blocks():
    """More short ranges than one padded block holds, around long ones."""
    g = np.random.default_rng(3)
    v = np.cumsum(g.integers(-9, 40, 5000))
    cuts = np.sort(g.choice(np.arange(1, 4000), 600, replace=False)).tolist()
    bounds = [0, *cuts, 4000, 4700, 5000]
    _assert_fit_one(v, list(zip(bounds[:-1], bounds[1:])))


def test_one_range():
    """One range, short or long, and the width callback's one-range path."""
    v = np.cumsum(np.random.default_rng(2).integers(-5, 50, 400))
    for a, b in ((3, 4), (2, 130), (0, 400)):
        _assert_fit_one(v, [(a, b)])
        assert _linear_widths(v, [a], [b]) == [_fit_one(v[a:b])[3]]


def _oracle_delta_fit(sub):
    """Delta's fit of one partition, with Python integers: the first value,
    the difference bias, the width and the stored differences."""
    d = np.diff(sub)
    dbias = min(0, int(d.min())) if len(d) else 0
    width = bits_needed(int(d.max()) - dbias) if len(d) else 0
    if dbias <= _WIDE_BIAS:
        dbias, width = 0, 64
    return int(sub[0]), dbias, width, (d - np.int64(dbias)).tolist()


@given(case=ranged_values())
@settings(max_examples=200, deadline=None)
def test_delta_ranges_are_delta_width_and_fit(case):
    """Widths of any ranges; the fit of partitions cut at the ranges' starts."""
    v, ranges = case
    starts, stops = (np.array(c, dtype=np.int64) for c in zip(*ranges))
    assert np.asarray(_delta_widths(v, starts, stops)).tolist() == [_delta_width(v[a:b]) for a, b in ranges]
    cuts = sorted({0, *starts.tolist()}) + [len(v)]
    theta0, theta1, first, width, stored = _delta_fit(v, np.array(cuts[:-1]), np.array(cuts[1:]))
    at = 0
    for k, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        v0, dbias, w, want = _oracle_delta_fit(v[a:b])
        assert (theta0[k], theta1[k], first[k], width[k]) == (0.0, float(dbias), v0, w)
        assert stored[at : at + b - a - 1].tolist() == want
        at += b - a - 1
    assert at == len(stored)
