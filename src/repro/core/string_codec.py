"""LeCo string extension (§3.4): order-preserving string→integer regression.

Per fixed-length partition of strings:

1. extract the **common prefix** and store it once in the header;
2. collect the partition's **character set**; digits are positions in the
   sorted set (order-preserving).  The base is either the exact set size
   ``M`` or the next power of two ``2^m`` (the paper's shift-friendly mode);
3. pad conceptually to the partition's max length ``W`` and map each string
   to an integer in base ``M``;
4. fit the linear Regressor on the mapped integers and store, per value,
   the **adaptive-padding delta** (§3.4: if the prediction lands between
   the minimal and maximal padding of the true string, the delta is 0) and
   the original string length, both bit-packed.

Mapped integers exceed 64 bits (e.g. 15-char emails in base 32 ≈ 75 bits),
so this module works in exact Python ints on the delta path while the model
stays float64 — float imprecision is absorbed by the exact deltas because
encoder and decoder evaluate ``int(floor(θ0 + θ1·i))`` identically.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .bitpack import bits_needed, extract_bigint, pack_bigints

__all__ = ["StringLeCo", "StringEncoded"]


def _common_prefix(strings: list[str]) -> str:
    first, last = min(strings), max(strings)
    i = 0
    while i < min(len(first), len(last)) and first[i] == last[i]:
        i += 1
    return first[:i]


@dataclass
class StringPartition:
    prefix: str
    charset: str  # sorted distinct characters (after prefix strip)
    base: int  # M (exact) or 2^m (pow2 mode)
    max_len: int  # W: padded length, without the prefix
    theta0: float
    theta1: float
    bias: int  # big-int bias of the deltas
    delta_width: int
    len_width: int
    n: int
    deltas: bytes  # bit-packed (delta − bias)
    lengths: bytes  # bit-packed original lengths (without prefix)

    def header_bytes(self) -> int:
        # prefix_len(1) + prefix + charset_len(1) + charset + W(1) + model(16)
        # + bias_len(2) + bias bytes + delta_width(2) + len_width(1)
        return 1 + len(self.prefix) + 1 + len(self.charset) + 1 + 16 + 2 + (
            max(1, (abs(self.bias).bit_length() + 8) // 8)
        ) + 2 + 1

    def nbytes(self) -> int:
        return self.header_bytes() + len(self.deltas) + len(self.lengths)


@dataclass
class StringEncoded:
    n: int
    partition_len: int
    raw: int  # total input bytes
    partitions: list[StringPartition]

    def nbytes(self) -> int:
        return 10 + sum(p.nbytes() for p in self.partitions)

    def raw_bytes(self) -> int:
        return self.raw

    def ratio(self) -> float:
        return self.nbytes() / self.raw_bytes()


def _map_int(s: str, charset_idx: dict[str, int], base: int, width: int) -> int:
    """Minimal padding map: value of ``s`` padded with the smallest digit."""
    acc = 0
    for ch in s:
        acc = acc * base + charset_idx[ch]
    return acc * base ** (width - len(s))


class StringLeCo:
    """LeCo-fix for strings (the §4.6 configuration)."""

    name = "LeCo-str"
    supports_random_access = True

    def __init__(self, partition_len: int = 200, pow2_base: bool = False):
        self.partition_len = partition_len
        self.pow2_base = pow2_base

    def encode(self, strings: list[str]) -> StringEncoded:
        if not strings:
            raise ValueError("empty input")
        L = self.partition_len
        parts = [self._encode_partition(strings[s : s + L]) for s in range(0, len(strings), L)]
        raw = sum(len(s) for s in strings)
        return StringEncoded(len(strings), L, raw, parts)

    def _encode_partition(self, strings: list[str]) -> StringPartition:
        prefix = _common_prefix(strings)
        tails = [s[len(prefix) :] for s in strings]
        charset = "".join(sorted(set("".join(tails)))) or "\0"
        m = len(charset)
        base = 1 << (m - 1).bit_length() if self.pow2_base else m
        base = max(base, 2)
        width = max((len(t) for t in tails), default=0) or 1
        idx = {c: i for i, c in enumerate(charset)}

        mins = [_map_int(t, idx, base, width) for t in tails]
        # maximal padding: fill the padded positions with the largest *valid*
        # digit m−1 (in pow2 mode the base exceeds the charset size, so the
        # max padding is (m−1)·(base^pad − 1)/(base − 1), not base^pad − 1).
        maxs = [
            mn + (m - 1) * (base ** (width - len(t)) - 1) // (base - 1)
            for mn, t in zip(mins, tails)
        ]
        n = len(strings)
        # Linear fit in float space (exact deltas absorb the imprecision).
        xs = np.arange(n, dtype=np.float64)
        ys = np.asarray([float(v) for v in mins], dtype=np.float64)
        if n > 1:
            xbar, ybar = xs.mean(), ys.mean()
            denom = float(((xs - xbar) ** 2).sum()) or 1.0
            theta1 = float(((xs - xbar) * (ys - ybar)).sum()) / denom
            theta0 = ybar - theta1 * xbar
        else:
            theta0, theta1 = float(ys[0]), 0.0

        deltas: list[int] = []
        for i, (mn, mx) in enumerate(zip(mins, maxs)):
            pred = int(np.floor(theta0 + theta1 * i))
            if pred < mn:
                deltas.append(mn - pred)  # adopt minimal padding
            elif pred > mx:
                deltas.append(mx - pred)  # adopt maximal padding
            else:
                deltas.append(0)  # the prediction itself is a valid padding
        bias = min(deltas)
        dwidth = bits_needed(max(deltas) - bias)
        lwidth = bits_needed(width)
        return StringPartition(
            prefix, charset, base, width, theta0, theta1, bias, dwidth, lwidth, n,
            pack_bigints([d - bias for d in deltas], dwidth),
            pack_bigints([len(t) for t in tails], lwidth),
        )

    # -- decoding -----------------------------------------------------------
    @staticmethod
    def _stored(p: StringPartition, i: int) -> int:
        """The padded integer stored at ``i``: model inference + delta."""
        return math.floor(p.theta0 + p.theta1 * i) + p.bias + extract_bigint(p.deltas, p.delta_width, i)

    def _decode_value(self, p: StringPartition, i: int) -> str:
        length = extract_bigint(p.lengths, p.len_width, i)
        # drop the padding digits in one division, then peel the real ones
        v = self._stored(p, i) // p.base ** (p.max_len - length)
        digits = []
        for _ in range(length):
            v, r = divmod(v, p.base)
            digits.append(r)
        digits.reverse()
        m = len(p.charset)
        tail = "".join(p.charset[min(d, m - 1)] for d in digits)
        return p.prefix + tail

    def decode(self, enc: StringEncoded) -> list[str]:
        out: list[str] = []
        for p in enc.partitions:
            out.extend(self._decode_value(p, i) for i in range(p.n))
        return out

    def access(self, enc: StringEncoded, i: int) -> str:
        p = enc.partitions[i // enc.partition_len]
        return self._decode_value(p, i % enc.partition_len)

    # -- integer-domain comparisons (used by index binary search, §5.2) -----
    # Within a partition every string is prefix + tail, the tail over the
    # charset and at most W long.  For such tails lexicographic order is the
    # order of (min-padded integer, length): the first differing character is
    # the first differing digit, and a proper prefix pads with the smallest
    # digit, ties on the integer and loses on the length.
    def mapped_value(self, enc: StringEncoded, i: int) -> tuple[int, int]:
        """Order key ``(min-padded integer, length)`` of the string at ``i``
        without materializing it: one model inference and two bounded bit
        reads.  The stored integer lies between the tail's minimal and
        maximal padding, so clearing its padding digits gives the minimal."""
        p = enc.partitions[i // enc.partition_len]
        j = i % enc.partition_len
        length = extract_bigint(p.lengths, p.len_width, j)
        pad = p.base ** (p.max_len - length)
        return self._stored(p, j) // pad * pad, length

    @staticmethod
    def map_query(p: StringPartition, s: str) -> tuple[int, int]:
        """Order key of any query ``s`` under partition ``p``, exact: a stored
        string is < ``s`` if and only if its :meth:`mapped_value` is <
        ``map_query(p, s)``.

        A tail longer than W ranks as ``(minpad(tail[:W]), W + 1)``.  At the
        first character ``c`` outside the charset, ``s`` ranks as the
        smallest string ``tail[:j] + charset[d]`` above it (``d`` = charset
        characters below ``c``), or, when ``c`` is above the whole charset,
        just past every string extending ``tail[:j]``.  A head below / above
        the prefix ranks below / above every stored string."""
        pre = p.prefix
        head = s[: len(pre)]
        if head != pre:
            return (-1, 0) if head < pre else (p.base ** (p.max_len + 1), 0)
        t = s[len(pre) :]
        cs, base, w = p.charset, p.base, p.max_len
        acc = 0
        for j, ch in enumerate(t[:w]):
            d = bisect.bisect_left(cs, ch)
            if d == len(cs) or cs[d] != ch:
                return (acc * base + d) * base ** (w - j - 1), (j + 1 if d < len(cs) else 0)
            acc = acc * base + d
        return acc * base ** (w - min(len(t), w)), min(len(t), w + 1)
