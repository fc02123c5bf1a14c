"""Unit tests for the Regressor (§3.1): LSM fit + θ0-tweak."""
import math

import numpy as np
import pytest

from repro.baselines.for_codec import FORCodec
from repro.core.leco import _linear_width
from repro.core.regressor import LinearModel, LinearRegressor


def test_fit_exact_line():
    v = 3 + 7 * np.arange(100)
    m = LinearRegressor().fit(v)
    assert m.theta1 == pytest.approx(7.0)
    # exact line → zero-width deltas
    assert _linear_width(v) <= 1


def test_fit_single_point():
    m = LinearRegressor().fit(np.array([42]))
    assert (m.theta0, m.theta1) == (42.0, 0.0)


def test_fit_empty_raises():
    with pytest.raises(ValueError):
        LinearRegressor().fit(np.array([]))


def test_theta0_tweak_balances_errors():
    """After the §3.1 tweak, |δmax| and |δmin| differ by at most 1."""
    g = np.random.default_rng(0)
    v = (5 * np.arange(500) + g.integers(0, 100, 500)).astype(np.int64)
    m = LinearRegressor().fit(v)
    deltas = v - m.predict(np.arange(500))
    assert abs(abs(int(deltas.max())) - abs(int(deltas.min()))) <= 1


def test_tweak_never_hurts_width():
    """The tweaked intercept's max-abs error is minimal for the LSM slope."""
    g = np.random.default_rng(1)
    for seed in range(10):
        g = np.random.default_rng(seed)
        v = np.cumsum(g.integers(0, 9, 200)).astype(np.int64)
        reg = LinearRegressor()
        m = reg.fit(v)
        deltas = v - m.predict(np.arange(200))
        width_tweaked = int(np.ceil(np.log2(max(1, abs(int(deltas.max()))) + 1)))
        # compare against the raw LSM intercept (no tweak)
        i = np.arange(200, dtype=np.float64)
        t1 = float(np.polyfit(i, v.astype(float), 1)[0])
        t0 = float(v.mean() - t1 * i.mean())
        raw = v - np.floor(t0 + t1 * i).astype(np.int64)
        width_raw = int(np.ceil(np.log2(max(abs(int(raw.max())), abs(int(raw.min())), 1) + 1)))
        assert width_tweaked <= width_raw + 1


def test_constant_regressor_is_for_model():
    """FOR stores the horizontal line: θ0 = θ1 = 0, frame minimum in bias."""
    v = np.array([5, 9, 7, 5, 12])
    t = FORCodec(5).encode(v).partitions
    assert (t.theta0[0], t.theta1[0], t.bias[0]) == (0.0, 0.0, 5)


def test_predict_vector_matches_scalar():
    """The access path's scalar ``math.floor`` agrees with ``predict``."""
    m = LinearModel(10.37, 2.91)
    idx = np.arange(50)
    vec = m.predict(idx)
    for i in idx:
        assert vec[i] == math.floor(m.theta0 + m.theta1 * int(i))


def test_delta_width_values():
    v = np.array([10, 11, 12, 13])
    assert _linear_width(v) == 0


def test_negative_slope_fit():
    v = (1000 - 3 * np.arange(100)).astype(np.int64)
    m = LinearRegressor().fit(v)
    assert m.theta1 == pytest.approx(-3.0)
    assert _linear_width(v) <= 1
