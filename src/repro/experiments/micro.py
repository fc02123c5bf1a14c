"""Microbenchmark harness (§4.2–§4.3): Figure 10 rows + Table 1.

For each (data set × scheme) pair this measures, like the paper:

* **compression ratio** = serialized compressed size / raw size, with the
  model-vs-delta breakdown (Fig 10 row 1);
* **random access latency** — average per-access time over uniformly random
  positions (Fig 10 row 2; Delta variants pay the sequential prefix decode);
* **full decompression throughput** in Mvalues/s (Fig 10 row 3);
* **compression throughput** in GB/s of raw input (Table 1), reported as a
  data-set-size-weighted average per scheme with a std-dev error bar.

Absolute numbers are Python/numpy-scale (µs, not ns); EXPERIMENTS.md
compares shapes and ratios against the paper, not absolutes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.codec_api import registry
from ..datasets import INTEGER_DATASETS, PAPER_SIZES, UNSORTED, load_int

SCHEMES = ["FOR", "Elias-Fano", "Delta-fix", "Delta-var", "LeCo-fix", "LeCo-var", "rANS"]


@dataclass
class MicroRow:
    """One (data set, scheme) measurement of the Figure 10 microbenchmark."""

    dataset: str
    scheme: str
    ratio: float
    model_ratio: float  # model/metadata share of the compressed size
    compress_gbps: float
    access_us: float | None  # None where random access is unsupported (rANS)
    decompress_mvps: float


def applicable(scheme: str, dataset: str) -> bool:
    """Elias-Fano requires sorted input (§4.3: skipped for poisson/movieid)."""
    return not (scheme == "Elias-Fano" and dataset in UNSORTED)


def run_micro(
    *,
    n: int = 100_000,
    datasets: list[str] | None = None,
    schemes: list[str] | None = None,
    n_access: int = 2_000,
    seed: int = 0,
) -> list[MicroRow]:
    """Run the full microbenchmark; returns one row per (data set, scheme)."""
    datasets = datasets or list(INTEGER_DATASETS)
    schemes = schemes or SCHEMES
    g = np.random.default_rng(seed)
    rows: list[MicroRow] = []
    for ds in datasets:
        values, dtype_bits = load_int(ds, n)
        raw = len(values) * dtype_bits // 8
        positions = g.integers(0, len(values), n_access)
        for scheme in schemes:
            if not applicable(scheme, ds):
                continue
            codec = registry()[scheme]
            t0 = time.perf_counter()
            enc = codec.encode(values, dtype_bits=dtype_bits)
            t_comp = time.perf_counter() - t0

            access_us: float | None = None
            if scheme != "rANS":
                # Delta prefix decodes are costly: cap its sample to keep the
                # harness tractable while measuring the same per-access cost.
                pos = positions if codec.supports_random_access else positions[: max(64, n_access // 8)]
                t0 = time.perf_counter()
                for i in pos:
                    codec.access(enc, int(i))
                access_us = (time.perf_counter() - t0) / len(pos) * 1e6

            t0 = time.perf_counter()
            out = codec.decode(enc)
            t_dec = time.perf_counter() - t0
            assert len(out) == len(values)

            rows.append(
                MicroRow(
                    ds,
                    scheme,
                    enc.ratio(),
                    enc.model_bytes() / raw,
                    raw / t_comp / 1e9,
                    access_us,
                    len(values) / t_dec / 1e6,
                )
            )
    return rows


def _weights(rows: list[MicroRow]) -> dict[str, float]:
    present = {r.dataset for r in rows}
    return {d: PAPER_SIZES.get(d, 1.0) for d in present}


def weighted_summary(rows: list[MicroRow]) -> dict[str, dict[str, float]]:
    """Figure 2: per-scheme weighted averages of ratio and access latency."""
    w = _weights(rows)
    out: dict[str, dict[str, float]] = {}
    for scheme in {r.scheme for r in rows}:
        rs = [r for r in rows if r.scheme == scheme]
        tw = sum(w[r.dataset] for r in rs)
        out[scheme] = {
            "ratio": sum(r.ratio * w[r.dataset] for r in rs) / tw,
            "access_us": (
                sum((r.access_us or 0) * w[r.dataset] for r in rs) / tw
                if all(r.access_us is not None for r in rs)
                else float("nan")
            ),
            "decompress_mvps": sum(r.decompress_mvps * w[r.dataset] for r in rs) / tw,
        }
    return out


def table1(rows: list[MicroRow]) -> dict[str, tuple[float, float]]:
    """Table 1: weighted mean ± std of compression throughput (GB/s)."""
    w = _weights(rows)
    out: dict[str, tuple[float, float]] = {}
    for scheme in SCHEMES:
        rs = [r for r in rows if r.scheme == scheme]
        if not rs or scheme == "rANS":  # Table 1 lists the six main schemes
            continue
        ws = np.array([w[r.dataset] for r in rs])
        xs = np.array([r.compress_gbps for r in rs])
        mean = float((ws * xs).sum() / ws.sum())
        var = float((ws * (xs - mean) ** 2).sum() / ws.sum())
        out[scheme] = (mean, var**0.5)
    return out


def print_fig10(rows: list[MicroRow]) -> str:
    """Render the three Figure 10 rows + Table 1 as aligned text tables."""
    lines = []
    datasets = list(dict.fromkeys(r.dataset for r in rows))
    by = {(r.dataset, r.scheme): r for r in rows}
    for title, get, fmt in [
        ("Compression ratio (model share in parens)", lambda r: f"{r.ratio:.4f}({r.model_ratio:.4f})", "s"),
        ("Random access latency (us/op)", lambda r: "n/a" if r.access_us is None else f"{r.access_us:.2f}", "s"),
        ("Decompression throughput (Mvalues/s)", lambda r: f"{r.decompress_mvps:.2f}", "s"),
    ]:
        lines.append(f"== Fig 10: {title} ==")
        lines.append("dataset      " + " ".join(f"{s:>18s}" for s in SCHEMES))
        for ds in datasets:
            cells = [
                f"{get(by[(ds, s)]):>18s}" if (ds, s) in by else f"{'—':>18s}"
                for s in SCHEMES
            ]
            lines.append(f"{ds:12s} " + " ".join(cells))
        lines.append("")
    lines.append("== Table 1: Compression throughput (GB/s, weighted mean ± std) ==")
    for scheme, (m, s) in table1(rows).items():
        lines.append(f"{scheme:12s} {m:.4f} ± {s:.4f}")
    return "\n".join(lines)
