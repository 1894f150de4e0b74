"""Tiered, r²-indexed piecewise-cubic function tables (paper Section 4).

Each PPIP "computes two arbitrary functions of a distance, r ... The
tables are indexed by r² rather than r, avoiding an unnecessary square
root. A tiered indexing scheme divides the domain of r² into non-uniform
segments, allowing for narrower segments where the function is rapidly
varying."  Coefficients are minimax cubics (Remez), continuity-adjusted
at segment boundaries, and stored in block floating point.

The normalized domain is ``u = (r/R)²`` in [0, 1) for cutoff ``R``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.fixedpoint import BlockFloatCodec, FixedFormat
from repro.functions.remez import polyval_ascending, remez_fit_rows

__all__ = ["Tier", "ANTON_ELECTROSTATIC_TIERS", "TieredTable", "uniform_tiers"]


@dataclass(frozen=True)
class Tier:
    """A run of uniformly sized segments covering [start, end) of u."""

    start: float
    end: float
    segments: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.start < self.end <= 1.0):
            raise ValueError(f"tier [{self.start}, {self.end}) outside [0, 1]")
        if self.segments < 1:
            raise ValueError("tier needs at least one segment")


#: The example configuration from Section 4: "the electrostatic table
#: might be configured with 64 entries for (r/R)² in [0, 1/128), 96
#: entries for [1/128, 1/32), 56 entries for [1/32, 1/4) and 24 entries
#: for [1/4, 1)" — 240 entries total.
ANTON_ELECTROSTATIC_TIERS: tuple[Tier, ...] = (
    Tier(0.0, 1.0 / 128, 64),
    Tier(1.0 / 128, 1.0 / 32, 96),
    Tier(1.0 / 32, 1.0 / 4, 56),
    Tier(1.0 / 4, 1.0, 24),
)


def uniform_tiers(n_segments: int, start: float = 0.0, end: float = 1.0) -> tuple[Tier, ...]:
    """A single uniform tier — the ablation baseline for tiered indexing."""
    return (Tier(start, end, n_segments),)


def _validate_tiers(tiers: Sequence[Tier]) -> None:
    for t0, t1 in zip(tiers, tiers[1:]):
        if abs(t0.end - t1.start) > 1e-15:
            raise ValueError("tiers must be contiguous and ascending")


class TieredTable:
    """A piecewise-cubic approximation of f(u) on tiered segments.

    Use :meth:`build` to construct from a function.  Evaluation modes:

    * :meth:`evaluate` — quantized (block-float) coefficients, float64
      Horner.  This is the table the functional MD kernels consume.
    * :meth:`evaluate_raw` — unquantized minimax coefficients, for
      attributing error to fit vs. coefficient quantization.
    * :meth:`evaluate_hardware` — integer Horner with a configurable
      datapath width, for the Figure 4 accuracy-vs-width study.
    """

    def __init__(
        self,
        tiers: Sequence[Tier],
        seg_starts: np.ndarray,
        seg_widths: np.ndarray,
        coeffs_quant: np.ndarray,
        coeffs_raw: np.ndarray,
        mantissas: np.ndarray,
        exponents: np.ndarray,
        mantissa_bits: int,
        fit_errors: np.ndarray,
    ):
        self.tiers = tuple(tiers)
        self.seg_starts = seg_starts
        self.seg_widths = seg_widths
        self.coeffs_quant = coeffs_quant
        self.coeffs_raw = coeffs_raw
        self.mantissas = mantissas
        self.exponents = exponents
        self.mantissa_bits = mantissa_bits
        self.fit_errors = fit_errors
        self._seg_key: tuple[bytes, bytes] | None = None

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        f: Callable[[np.ndarray], np.ndarray],
        tiers: Sequence[Tier] = ANTON_ELECTROSTATIC_TIERS,
        degree: int = 3,
        mantissa_bits: int = 22,
        u_floor: float = 0.0,
        enforce_continuity: bool = True,
        grid_per_segment: int = 257,
    ) -> "TieredTable":
        """Fit ``f`` over all tier segments.

        Parameters
        ----------
        f:
            Vectorized function of u.
        u_floor:
            Physical kernels diverge at r = 0; u below this floor is
            evaluated as ``f(u_floor)`` (the hardware never consumes
            those entries because bonded-pair exclusions keep r away
            from 0).
        enforce_continuity:
            Apply the paper's endpoint adjustment so adjacent segments
            agree at their shared boundary (before quantization).
        """
        tiers = tuple(tiers)
        _validate_tiers(tiers)

        def f_safe(u: np.ndarray) -> np.ndarray:
            return np.asarray(f(np.maximum(u, u_floor)), dtype=np.float64)

        seg_starts = np.concatenate(
            [t.start + np.arange(t.segments) * ((t.end - t.start) / t.segments) for t in tiers]
        )
        seg_widths = np.concatenate([np.full(t.segments, (t.end - t.start) / t.segments) for t in tiers])
        # One exchange over every segment at once (each row bit for bit
        # its own one-segment fit).
        fits = remez_fit_rows(f_safe, seg_starts, seg_starts + seg_widths, degree=degree, grid=grid_per_segment)
        n = len(seg_starts)
        coeffs_raw = fits.coeffs
        fit_errors = fits.max_error

        if enforce_continuity and n > 1:
            # Endpoint values in t-space: p(0) and p(1).
            starts_v = coeffs_raw[:, 0].copy()
            ends_v = coeffs_raw.sum(axis=1)
            # Shared boundary value: average of the two one-sided values.
            bnd = 0.5 * (ends_v[:-1] + starts_v[1:])
            target0 = np.concatenate(([starts_v[0]], bnd))
            target1 = np.concatenate((bnd, [ends_v[-1]]))
            d0 = target0 - starts_v
            d1 = target1 - ends_v
            # c0 += d0 fixes p(0); c1 += (d1 - d0) then fixes p(1)
            # without touching the higher-order shape terms.
            coeffs_raw[:, 0] += d0
            coeffs_raw[:, 1] += d1 - d0

        codec = BlockFloatCodec(mantissa_bits=mantissa_bits)
        mantissas, exponents = codec.encode_rows(coeffs_raw)

        return cls(
            tiers=tiers,
            seg_starts=seg_starts,
            seg_widths=seg_widths,
            coeffs_quant=codec.decode_rows(mantissas, exponents),
            coeffs_raw=coeffs_raw,
            mantissas=mantissas,
            exponents=exponents,
            mantissa_bits=mantissa_bits,
            fit_errors=fit_errors,
        )

    # -- lookup ----------------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self.seg_starts)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.tiers[0].start), float(self.tiers[-1].end)

    def segment_index(self, u: np.ndarray) -> np.ndarray:
        """Map u values to segment indices (clamped to the domain)."""
        u = np.asarray(u, dtype=np.float64)
        idx = np.searchsorted(self.seg_starts, u, side="right") - 1
        return np.clip(idx, 0, self.n_segments - 1)

    def _local_t(self, u: np.ndarray, idx: np.ndarray) -> np.ndarray:
        t = (np.asarray(u, dtype=np.float64) - self.seg_starts[idx]) / self.seg_widths[idx]
        return np.clip(t, 0.0, 1.0)

    def _evaluate_with(self, coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
        idx = self.segment_index(u)
        return polyval_ascending(coeffs[idx], self._local_t(u, idx))

    def segmentation_key(self) -> tuple[bytes, bytes]:
        """Hashable identity of the segment layout.

        Tables with equal keys map any ``u`` to the same ``(idx, t)``,
        so one :meth:`locate` result can feed all of their
        :meth:`evaluate_at` calls — the software analog of the PPIP
        sharing a single r²-to-segment lookup between its two function
        pipelines (Section 4).
        """
        if self._seg_key is None:
            self._seg_key = (self.seg_starts.tobytes(), self.seg_widths.tobytes())
        return self._seg_key

    def locate(self, u: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
        """Segment indices and local coordinates ``t`` for ``u``.

        The pair is reusable by :meth:`evaluate_at` on any table whose
        :meth:`segmentation_key` matches this one's.
        """
        u = np.asarray(u, dtype=np.float64)
        idx = self.segment_index(u)
        return idx, self._local_t(u, idx)

    def evaluate_at(self, idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Quantized-coefficient Horner evaluation at a precomputed
        :meth:`locate` result — bitwise identical to :meth:`evaluate`
        of the same ``u``."""
        return polyval_ascending(self.coeffs_quant[idx], t)

    def evaluate(self, u: np.ndarray | float) -> np.ndarray:
        """Table value with block-float-quantized coefficients."""
        return self._evaluate_with(self.coeffs_quant, np.asarray(u, dtype=np.float64))

    def evaluate_raw(self, u: np.ndarray | float) -> np.ndarray:
        """Table value with full-precision minimax coefficients."""
        return self._evaluate_with(self.coeffs_raw, np.asarray(u, dtype=np.float64))

    def evaluate_hardware(
        self, u: np.ndarray | float, t_bits: int = 22, stage_bits: int = 26
    ) -> np.ndarray:
        """Integer-datapath Horner evaluation.

        ``t`` is quantized to ``t_bits`` and every Horner stage result is
        rounded to a fixed-point grid whose resolution is set by
        ``stage_bits`` relative to the stage's representable bound —
        a functional model of the 19–22-bit multiplier datapaths of
        Figure 4a.
        """
        u = np.asarray(u, dtype=np.float64)
        idx = self.segment_index(u)
        t_fmt = FixedFormat(t_bits)
        t = t_fmt.decode(t_fmt.encode_clip(self._local_t(u, idx)))
        c = self.coeffs_quant[idx]
        # Stage bound: the largest value the accumulator must hold.
        bound = float(np.max(np.abs(self.coeffs_quant))) * (c.shape[-1])
        bound = max(bound, 1e-300)
        step = bound * 2.0 ** (1 - stage_bits)
        out = c[..., -1].copy()
        for k in range(c.shape[-1] - 2, -1, -1):
            out = out * t + c[..., k]
            out = np.rint(out / step) * step
        return out

    # -- diagnostics -----------------------------------------------------

    def max_abs_error(self, f: Callable[[np.ndarray], np.ndarray], samples_per_segment: int = 64) -> float:
        """Max |table - f| over the domain (excluding any floored region)."""
        us = self.seg_starts[:, None] + self.seg_widths[:, None] * np.linspace(0, 1, samples_per_segment)
        return float(np.max(np.abs(self.evaluate(us) - f(us))))

    def continuity_jumps(self) -> np.ndarray:
        """|left - right| value mismatch at each interior boundary."""
        ends_v = self.coeffs_quant.sum(axis=1)[:-1]
        starts_v = self.coeffs_quant[1:, 0]
        return np.abs(ends_v - starts_v)
