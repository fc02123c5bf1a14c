"""Angle-based piecewise-linear-approximation partitioner (LeCo-angle, §4.7).

The state-of-the-art time-series PLA algorithm (O'Rourke's slope cone /
Cameron's angle method): fix a global error bound ε, scan once, and keep a
feasible slope interval for a line through the segment origin that passes
within ±ε of every point; cut a new segment when the interval empties.
Designed for *lossy* compression, it minimizes the number of segments for a
given ε — not the total Model+Delta size — which is exactly why the paper
finds it suboptimal for lossless integer compression (Fig 15/16).

``LeCoAngle`` plugs these partitions into LeCo's encoder so everything else
(storage format, decode, random access) is identical to LeCo-var.
"""
from __future__ import annotations

import numpy as np

from .format import EncodedSequence
from .leco import _LeCoBase, _fit_linear, encode_var

__all__ = ["angle_partitions", "LeCoAngle"]


def angle_partitions(values: np.ndarray, epsilon: float) -> np.ndarray:
    """One-pass greedy PLA segmentation with global error bound ``epsilon``.

    Returns partition start indices, none for an empty input.  Each segment
    admits a line through ``(0, v[start])`` staying within ±ε of all its
    points (the classic slope-cone feasibility test, O(n) overall).
    """
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    if n == 0:
        return np.zeros(0, dtype=np.uint32)
    starts = [0]
    lo, hi = -np.inf, np.inf
    anchor = 0
    for j in range(1, n):
        dx = j - anchor
        nlo = (v[j] - v[anchor] - epsilon) / dx
        nhi = (v[j] - v[anchor] + epsilon) / dx
        lo, hi = max(lo, nlo), min(hi, nhi)
        if lo > hi:  # cone collapsed: start a new segment at j
            starts.append(j)
            anchor = j
            lo, hi = -np.inf, np.inf
    return np.asarray(starts, dtype=np.uint32)


class LeCoAngle(_LeCoBase):
    """LeCo with angle-based PLA partitioning (the §4.7 baseline)."""

    name = "LeCo-angle"

    def __init__(self, epsilon_bits: int = 8):
        #: global error bound expressed in bits: ε = 2^(bits−1).
        self.epsilon_bits = epsilon_bits

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EncodedSequence:
        eps = float(2 ** (self.epsilon_bits - 1))
        starts = angle_partitions(values, eps)
        return encode_var(self.name, values, dtype_bits, starts, _fit_linear)
