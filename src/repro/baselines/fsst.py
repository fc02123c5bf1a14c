"""FSST-lite baseline (§4.6): static symbol-table string compression.

FSST (Boncz/Neumann/Leis, VLDB 2020) maps frequent substrings (up to 8
bytes) to 1-byte codes with an escape byte for literals.  This lite
re-implementation keeps the essentials the paper's comparison depends on:

* a 254-entry symbol table built from substring gain (``freq × (len−1)``)
  on a corpus sample, encoding with greedy longest-match;
* a byte-offset structure for random access, optionally delta-encoded in
  blocks (the §4.6 sweep: block size 0 = plain uint32 offsets, else one
  uint32 anchor per block + per-string byte lengths, so a random access
  must sum the lengths within its block — the ratio/speed trade-off the
  paper plots for "optimized FSST").

Entropy-style (Source-1) compression: great on texts with shared
roots/suffixes (word), weak on high-entropy strings (hex) — the contrast
the paper draws against LeCo's serial-correlation (Source-2) approach.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

_ESCAPE = 255
_MAX_SYMBOLS = 254
_MAX_LEN = 8
#: the symbol table is learned from at most this many bytes of the corpus
_SAMPLE_BYTES = 200_000


@dataclass
class FSSTEncoded:
    n: int
    raw: int
    table: list[bytes]
    codes: bytes
    block: int  # offset delta-block size; 0 = plain offsets
    offsets: np.ndarray  # uint32: all offsets (block=0) or block anchors
    lengths: np.ndarray | None  # uint16 per-string encoded byte length

    def nbytes(self) -> int:
        table_sz = sum(len(s) + 1 for s in self.table)
        off_sz = 4 * len(self.offsets)
        len_sz = 0 if self.lengths is None else 2 * len(self.lengths)
        return 8 + table_sz + len(self.codes) + off_sz + len_sz

    def raw_bytes(self) -> int:
        return self.raw

    def ratio(self) -> float:
        return self.nbytes() / self.raw_bytes()


def build_symbol_table(corpus: list[str]) -> list[bytes]:
    """Pick the ≤254 substrings (2..8 bytes) with the highest compression
    gain from a sample of at most ``_SAMPLE_BYTES`` of the corpus."""
    blob = "".join(corpus)
    if len(blob) > _SAMPLE_BYTES:
        stride = len(blob) // _SAMPLE_BYTES + 1
        blob = "".join(corpus[::stride])[:_SAMPLE_BYTES]
    counts: Counter[str] = Counter()
    for i in range(len(blob)):
        for ln in range(2, _MAX_LEN + 1):
            if i + ln <= len(blob):
                counts[blob[i : i + ln]] += 1
    scored = sorted(counts.items(), key=lambda kv: (kv[1] * (len(kv[0]) - 1)), reverse=True)
    return [s.encode() for s, _ in scored[:_MAX_SYMBOLS]]


class FSSTLite:
    """FSST-lite with a configurable offset delta-block size."""

    name = "FSST"
    supports_random_access = True

    def __init__(self, offset_block: int = 0):
        self.offset_block = offset_block

    def encode(self, strings: list[str], table: list[bytes] | None = None) -> FSSTEncoded:
        table = build_symbol_table(strings) if table is None else table
        # longest-match lookup: first byte → candidate symbols, longest first
        by_first: dict[int, list[tuple[bytes, int]]] = {}
        for code, sym in enumerate(table):
            by_first.setdefault(sym[0], []).append((sym, code))
        for lst in by_first.values():
            lst.sort(key=lambda t: -len(t[0]))
        out = bytearray()
        lengths = np.empty(len(strings), dtype=np.uint16)
        for si, s in enumerate(strings):
            b = s.encode()
            start = len(out)
            i = 0
            while i < len(b):
                for sym, code in by_first.get(b[i], ()):
                    if b.startswith(sym, i):
                        out.append(code)
                        i += len(sym)
                        break
                else:
                    out.append(_ESCAPE)
                    out.append(b[i])
                    i += 1
            lengths[si] = len(out) - start
        ends = np.cumsum(lengths.astype(np.int64))
        starts = ends - lengths
        if self.offset_block == 0:
            offsets = starts.astype(np.uint32)
            return FSSTEncoded(len(strings), sum(map(len, strings)), table, bytes(out), 0, offsets, None)
        anchors = starts[:: self.offset_block].astype(np.uint32)
        return FSSTEncoded(
            len(strings), sum(map(len, strings)), table, bytes(out),
            self.offset_block, anchors, lengths,
        )

    def _decode_at(self, enc: FSSTEncoded, start: int, length: int) -> str:
        out = bytearray()
        codes = enc.codes
        i = start
        end = start + length
        while i < end:
            c = codes[i]
            if c == _ESCAPE:
                out.append(codes[i + 1])
                i += 2
            else:
                out += enc.table[c]
                i += 1
        return out.decode()

    def access(self, enc: FSSTEncoded, i: int) -> str:
        """String ``i``; raises ``IndexError`` outside ``[0, n)``."""
        if not 0 <= i < enc.n:
            raise IndexError(f"position {i} outside [0, {enc.n})")
        if enc.block == 0:
            start = int(enc.offsets[i])
            end = int(enc.offsets[i + 1]) if i + 1 < enc.n else len(enc.codes)
            return self._decode_at(enc, start, end - start)
        blk = i // enc.block
        start = int(enc.offsets[blk])
        # delta-encoded offsets: sum the in-block lengths up to position i
        for j in range(blk * enc.block, i):
            start += int(enc.lengths[j])
        return self._decode_at(enc, start, int(enc.lengths[i]))

    def decode(self, enc: FSSTEncoded) -> list[str]:
        if enc.block == 0:
            starts = enc.offsets.astype(np.int64)
            ends = np.append(starts[1:], len(enc.codes))
            lengths = ends - starts
        else:
            lengths = enc.lengths.astype(np.int64)
            starts = np.cumsum(lengths) - lengths
        return [self._decode_at(enc, int(s), int(l)) for s, l in zip(starts, lengths)]
