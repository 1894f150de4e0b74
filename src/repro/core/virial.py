"""Virials and pressure (Figure 4c; paper Section 4).

Figure 4c shows 86-bit multiply/accumulators "used in the computation
of virials (the large bit widths allow Anton to guarantee determinism
and parallel invariance for pressure-controlled simulations)".  This
module reproduces the scheme functionally: per-interaction scalar
virial contributions are quantized once against a wide fixed-point
codec and summed with exact integer arithmetic, so the pressure — like
the forces — is independent of how work is distributed.

Conventions: the scalar (internal) virial is ``W = sum_pairs r_ij . F_ij``
over all pairwise interactions plus the k-space Coulomb term (for
which homogeneity gives ``W_k = E_k`` exactly), in kcal/mol.  The
instantaneous pressure is ``P = (2 KE + W) / (3 V)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.forces import ForceCalculator
from repro.fixedpoint import FixedFormat, ScaledFixed, wrapping_sum

__all__ = ["VirialReport", "virial_codec", "compute_virial", "instantaneous_pressure", "BAR_PER_KCAL_MOL_A3"]

#: Unit conversion: 1 kcal/mol/A^3 = 69476.95 bar.
BAR_PER_KCAL_MOL_A3: float = 69476.95


def virial_codec(bits: int = 52) -> ScaledFixed:
    """The wide virial accumulator format.

    Anton uses 86-bit hardware accumulators; our int64 substrate caps
    the format at 62 bits, so we model the *semantics* (wide enough
    that quantization is far below physical noise: resolution
    ~1e-9 kcal/mol at the default width against a +/-2M kcal/mol
    range).
    """
    return ScaledFixed(FixedFormat(bits), limit=2.0**21)


@dataclass(frozen=True)
class VirialReport:
    """Scalar virial decomposition of one configuration (kcal/mol)."""

    pair: float       # range-limited LJ + real-space Coulomb
    bonded: float
    correction: float
    kspace: float     # = E_k by Coulomb homogeneity

    @property
    def total(self) -> float:
        return self.pair + self.bonded + self.correction + self.kspace


def _pair_virial(dx: np.ndarray, force: np.ndarray) -> np.ndarray:
    """Per-pair r . F contributions."""
    return np.sum(dx * force, axis=1)


def compute_virial(
    calc: ForceCalculator, positions: np.ndarray, codec: ScaledFixed | None = None
) -> VirialReport:
    """Scalar virial of a configuration.

    With ``codec`` set, every contribution is quantized and integer-
    summed (the Figure 4c order-invariance scheme); otherwise plain
    float accumulation.
    """

    def reduce(contribs: np.ndarray) -> float:
        if codec is None:
            return float(np.sum(contribs))
        codes = codec.quantize_round_only(contribs)
        return float(codec.reconstruct(wrapping_sum(codes, codec.fmt)))

    box = calc.system.box

    codes = calc._encode(positions)
    nb = calc._range_limited(codes)
    dx_nb = calc.neighbor_list.codec.displacement(codes[nb.i], codes[nb.j])
    w_pair = reduce(_pair_virial(dx_nb, nb.force))

    w_bonded_parts = []
    for contrib in calc._bonded(positions):
        if not contrib.n_terms:
            continue
        # Relative coordinates w.r.t. each term's first atom (any
        # reference works: per-term forces sum to zero).
        ref = positions[contrib.idx[:, 0]][:, None, :]
        rel = box.minimum_image(positions[contrib.idx] - ref)
        w_bonded_parts.append(np.sum(rel * contrib.force, axis=(1, 2)))
    w_bonded = reduce(np.concatenate(w_bonded_parts)) if w_bonded_parts else 0.0

    corr = calc._corrections(positions)
    if corr.n_pairs:
        dx = box.minimum_image(positions[corr.i] - positions[corr.j])
        w_corr = reduce(_pair_virial(dx, corr.force))
    else:
        w_corr = 0.0

    e_k = calc._kspace(codes)[0] if calc.gse is not None else 0.0

    return VirialReport(pair=w_pair, bonded=w_bonded, correction=w_corr, kspace=float(e_k))


def instantaneous_pressure(kinetic_energy: float, virial_total: float, volume: float) -> float:
    """Pressure in bar from KE and the scalar virial (kcal/mol, A^3)."""
    p_internal = (2.0 * kinetic_energy + virial_total) / (3.0 * volume)
    return p_internal * BAR_PER_KCAL_MOL_A3
