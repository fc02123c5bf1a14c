"""Elias-Fano baseline (§4.1): quasi-succinct encoding of a sorted sequence.

Values (rebased to the minimum) are split into ``l`` explicit low bits per
value (bit-packed) and high bits recorded as a unary-coded bitmap: bit
``i + high_i`` is set for the i-th value.  Random access needs ``select1(i)``
on the upper bitmap; we store a per-64-byte rank directory (counted in the
compressed size) and finish with an in-word scan, mirroring practical EF
implementations.  Requires a monotonically non-decreasing input — the
benchmark skips it for unsorted data sets (poisson, movieid), as the paper
does.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bitpack import bits_needed, extract, pack, unpack

_DIR_STRIDE = 64  # bytes of upper bitmap per rank-directory entry


@dataclass
class EFEncoded:
    n: int
    dtype_bits: int
    base: int
    l: int  # low-bit width
    lows: bytes
    upper: np.ndarray  # uint8 bitmap
    rank_dir: np.ndarray  # uint32 cumulative popcount per 64-byte chunk

    def nbytes(self) -> int:
        # base(8) + n(8) + l(1) + lows + upper bitmap + rank directory
        return 17 + len(self.lows) + len(self.upper) + 4 * len(self.rank_dir)

    def model_bytes(self) -> int:
        return 17 + len(self.upper) + 4 * len(self.rank_dir)

    def raw_bytes(self) -> int:
        return self.n * self.dtype_bits // 8

    def ratio(self) -> float:
        return self.nbytes() / self.raw_bytes()


class EliasFano:
    name = "Elias-Fano"
    supports_random_access = True

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EFEncoded:
        v = np.asarray(values, dtype=np.int64)
        if (v[1:] < v[:-1]).any():  # np.diff would wrap on full-range int64
            raise ValueError("Elias-Fano requires a sorted (non-decreasing) sequence")
        if not len(v):
            upper, rank_dir = np.zeros(0, dtype=np.uint8), np.zeros(1, dtype=np.uint32)
            return EFEncoded(0, dtype_bits, 0, 0, b"", upper, rank_dir)
        base = int(v[0])
        m = int(v[-1]) - base  # range, the paper's m
        n = len(v)
        l = max(0, int(np.ceil(np.log2(m / n)))) if m > n else 0
        rebased = (v - base).astype(np.uint64)
        lows = pack(rebased & np.uint64((1 << l) - 1), l)
        highs = (rebased >> np.uint64(l)).astype(np.int64)
        nbits = n + int(highs[-1]) + 1
        bits = np.zeros(nbits, dtype=np.uint8)
        bits[np.arange(n) + highs] = 1
        upper = np.packbits(bits)
        per_byte = _POP8[upper]
        chunks = np.add.reduceat(per_byte, np.arange(0, len(per_byte), _DIR_STRIDE))
        rank_dir = np.concatenate(([0], np.cumsum(chunks))).astype(np.uint32)
        return EFEncoded(n, dtype_bits, base, l, lows, upper, rank_dir)

    def decode(self, enc: EFEncoded) -> np.ndarray:
        bits = np.unpackbits(enc.upper)
        pos = np.flatnonzero(bits)[: enc.n].astype(np.int64)
        highs = pos - np.arange(enc.n)
        lows = unpack(enc.lows, enc.l, enc.n).astype(np.int64)
        return enc.base + (highs << enc.l) + lows

    def access(self, enc: EFEncoded, i: int) -> int:
        # select1(i): rank directory → 64-byte chunk, then byte scan.
        c = int(np.searchsorted(enc.rank_dir, i + 1, side="left")) - 1
        count = int(enc.rank_dir[c])
        byte = c * _DIR_STRIDE
        while True:
            pc = int(_POP8[enc.upper[byte]])
            if count + pc > i:
                break
            count += pc
            byte += 1
        b = int(enc.upper[byte])
        for bit in range(8):
            if (b >> (7 - bit)) & 1:
                if count == i:
                    pos = byte * 8 + bit
                    break
                count += 1
        high = pos - i
        low = extract(enc.lows, enc.l, i)
        return enc.base + (high << enc.l) + low


_POP8 = np.array([bin(x).count("1") for x in range(256)], dtype=np.uint8)
