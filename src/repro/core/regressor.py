"""Regressors (§3.1): fit one model per partition, minimizing the *max* error.

The default is linear regression ``v̂(i) = θ0 + θ1·i`` fit by least squares,
then re-centered (the paper's "θ0-tweak") so the signed prediction errors are
balanced around zero — which minimizes the fixed bit-width of the delta array
for the LSM slope.  Because the storage layer (``core/format.py``) stores
``delta − δmin`` with an explicit bias, the encoded size is exactly the
minimum achievable for the chosen slope regardless of the intercept; the
tweak is still applied so the stored model matches the paper's semantics.
FOR's horizontal line is the θ1 = 0 case of the same model (§2).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["LinearModel", "LinearRegressor", "positions"]

#: float positions 0, 1, 2, …; a fit of up to this many values takes a
#: (read-only) slice.
_POSITIONS = np.arange(1 << 16, dtype=np.float64)
_POSITIONS.flags.writeable = False


def positions(n: int) -> np.ndarray:
    """Local positions ``0 … n−1`` as float64 (the model's ``i``)."""
    return _POSITIONS[:n] if n <= len(_POSITIONS) else np.arange(n, dtype=np.float64)


@functools.lru_cache(maxsize=1 << 12)
def _denom(n: int) -> float:
    """``Σ (i − ī)²`` over ``n`` positions, the least-squares slope's divisor."""
    c = positions(n) - (n - 1) / 2.0
    return float((c * c).sum())


@dataclass(frozen=True)
class LinearModel:
    """``v̂(i) = floor(theta0 + theta1 · i)`` — the per-partition model."""

    theta0: float
    theta1: float

    def predict(self, idx: np.ndarray) -> np.ndarray:
        """Vectorized floor-prediction at local positions ``idx`` (int64 or
        float64, e.g. :func:`positions`)."""
        return np.floor(self.theta0 + self.theta1 * np.asarray(idx, dtype=np.float64)).astype(np.int64)


class LinearRegressor:
    """Least-squares linear fit + θ0 re-centering (the paper's default)."""

    def fit(self, values: np.ndarray) -> LinearModel:
        v = np.asarray(values, dtype=np.float64)
        n = len(v)
        if n == 0:
            raise ValueError("cannot fit an empty partition")
        if n == 1:
            return LinearModel(float(v[0]), 0.0)
        i = positions(n)
        ibar = (n - 1) / 2.0
        vbar = v.sum() / n  # == v.mean(), without its dispatch overhead
        c = i - ibar
        theta1 = float((c * (v - vbar)).sum()) / _denom(n)
        theta0 = vbar - theta1 * ibar
        # θ0-tweak (§3.1): move the line vertically so |δmax| == |δmin|,
        # minimizing max(|δ|) for this slope.
        deltas = np.asarray(values, dtype=np.int64) - np.floor(theta0 + theta1 * i).astype(np.int64)
        shift = (float(deltas.max()) + float(deltas.min())) / 2.0
        return LinearModel(theta0 + shift, theta1)
