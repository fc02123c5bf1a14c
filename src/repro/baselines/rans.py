"""Static byte-wise rANS baseline (§4.1): entropy coding of the raw bytes.

rANS (range asymmetric numeral systems, Duda 2013) reaches the same
compression rate as arithmetic coding at Huffman-like speed.  This is the
"Source 1" (probability-distribution) competitor in the microbenchmark: it
sees the column as an i.i.d. byte stream, so any serial correlation is
invisible to it — which is exactly the paper's point when rANS places last
on ratio for mostly-unique sequences.

Implementation: single-state 32-bit rANS with 12-bit quantized frequencies,
byte renormalization, encoding in reverse so decode is a forward scan.
Random access is unsupported (a prefix decode is required), matching the
paper's treatment.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PROB_BITS = 12
_PROB_SCALE = 1 << _PROB_BITS
_RANS_L = 1 << 23  # lower bound of the normalized state interval


@dataclass
class RANSEncoded:
    n: int
    dtype_bits: int
    freqs: np.ndarray  # uint16[256] quantized frequencies
    stream: bytes
    final_state: int

    def nbytes(self) -> int:
        # n(8) + state(4) + freq table (256×2) + byte stream
        return 12 + 512 + len(self.stream)

    def model_bytes(self) -> int:
        return 12 + 512

    def raw_bytes(self) -> int:
        return self.n * self.dtype_bits // 8

    def ratio(self) -> float:
        return self.nbytes() / self.raw_bytes()


def _quantize_freqs(counts: np.ndarray) -> np.ndarray:
    """Scale symbol counts to sum exactly to 2^12, keeping present symbols ≥1."""
    total = counts.sum()
    f = np.maximum((counts * _PROB_SCALE // max(total, 1)).astype(np.int64), (counts > 0).astype(np.int64))
    # Fix the rounding drift by adjusting the most frequent symbol.
    drift = _PROB_SCALE - int(f.sum())
    f[int(np.argmax(f))] += drift
    return f.astype(np.uint16)


class RANSCodec:
    name = "rANS"
    supports_random_access = False

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> RANSEncoded:
        v = np.asarray(values)
        width = dtype_bits // 8
        data = np.ascontiguousarray(v.astype(f"<i{width}")).view(np.uint8)
        counts = np.bincount(data, minlength=256)
        freqs = _quantize_freqs(counts)
        cum = np.zeros(257, dtype=np.int64)
        np.cumsum(freqs, out=cum[1:])
        f = freqs.astype(np.int64)
        state = _RANS_L
        out = bytearray()
        x_max = (f << (23 + 8 - _PROB_BITS))  # renorm thresholds per symbol
        for b in data[::-1]:
            fb = int(f[b])
            while state >= int(x_max[b]):
                out.append(state & 0xFF)
                state >>= 8
            state = ((state // fb) << _PROB_BITS) + (state % fb) + int(cum[b])
        return RANSEncoded(len(v), dtype_bits, freqs, bytes(out[::-1]), state)

    def decode(self, enc: RANSEncoded) -> np.ndarray:
        f = enc.freqs.astype(np.int64)
        cum = np.zeros(257, dtype=np.int64)
        np.cumsum(f, out=cum[1:])
        # slot → symbol lookup
        sym = np.zeros(_PROB_SCALE, dtype=np.uint8)
        for s in range(256):
            if f[s]:
                sym[cum[s] : cum[s + 1]] = s
        width = enc.dtype_bits // 8
        n_bytes = enc.n * width
        out = np.empty(n_bytes, dtype=np.uint8)
        state = enc.final_state
        stream = enc.stream
        pos = 0
        mask = _PROB_SCALE - 1
        for i in range(n_bytes):
            slot = state & mask
            s = int(sym[slot])
            out[i] = s
            state = int(f[s]) * (state >> _PROB_BITS) + slot - int(cum[s])
            while state < _RANS_L and pos < len(stream):
                state = (state << 8) | stream[pos]
                pos += 1
        signed = out.view(f"<i{width}")
        return signed.astype(np.int64)

    def access(self, enc: RANSEncoded, i: int) -> int:
        raise NotImplementedError("rANS has no random access; decode a prefix instead")
