"""Correction forces for excluded and 1-4 scaled pairs (Section 3.1).

"The long-range interactions include contributions from these pairs,
which must be computed separately as correction forces and subtracted
out."  On Anton this list-driven work runs on the correction pipeline
(a PPIP with list-processing control logic) in the flexible subsystem;
here it is one vectorized pass over the static pair lists.

For a hard-excluded pair the mesh computed ``erf(r/(sqrt2 sigma))/r``
that should not exist: subtract it.  For a 1-4 pair the target is
*scaled* full interactions: subtract the mesh part and add the scaled
analytic LJ + Coulomb.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from repro.ewald.kernels import (
    kspace_pair_energy_kernel,
    kspace_pair_force_kernel,
    plain_coulomb_energy_kernel,
    plain_coulomb_force_kernel,
)
from repro.geometry import Box

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.forcefield.exclusions import ExclusionTable
    from repro.forcefield.parameters import LJTable

__all__ = [
    "CorrectionResult",
    "CorrectionStatic",
    "precompute_correction_static",
    "correction_forces_static",
]


@dataclass(frozen=True)
class CorrectionResult:
    """Per-pair correction energies and force contributions.

    ``force`` acts on atom ``i`` of each pair (negate for ``j``), in
    the same contribution format as the range-limited kernels so the
    fixed-point accumulators treat all sources identically.  The
    energies are per pair too, and each path reduces them its own way:
    the float path with the ``np.sum`` properties below, the fixed-point
    path to integer lane sums (:func:`repro.forcefield.energy_codes`).
    """

    e_exclusion: np.ndarray   # per hard-excluded pair: minus its mesh part
    e_14_coul: np.ndarray     # per 1-4 pair: scaled Coulomb minus its mesh part
    e_14_lj: np.ndarray       # per 1-4 pair: LJ, before ``lj_scale14``
    lj_scale14: float
    i: np.ndarray
    j: np.ndarray
    force: np.ndarray

    @property
    def energy_exclusion(self) -> float:
        """Subtracted mesh double-count (1-2, 1-3 pairs)."""
        return float(np.sum(self.e_exclusion))

    @property
    def energy_14_coul(self) -> float:
        return float(np.sum(self.e_14_coul))

    @property
    def energy_14_lj(self) -> float:
        """Scaled 1-4 LJ."""
        return self.lj_scale14 * float(np.sum(self.e_14_lj))

    @property
    def energy(self) -> float:
        return self.energy_exclusion + self.energy_14_coul + self.energy_14_lj

    @property
    def n_pairs(self) -> int:
        return len(self.i)


@dataclass(frozen=True)
class CorrectionStatic:
    """Topology-derived correction-pair data, constant per system.

    The index arrays, charge products, and LJ coefficients of the
    excluded and 1-4 lists never change between evaluations; hoisting
    them out of the per-step path (and into
    :class:`~repro.core.forces.ForceCalculator` construction) leaves
    only the distance-dependent kernels on the hot path.
    """

    excl_i: np.ndarray
    excl_j: np.ndarray
    excl_qq: np.ndarray
    p14_i: np.ndarray
    p14_j: np.ndarray
    p14_qq: np.ndarray
    p14_a: np.ndarray
    p14_b: np.ndarray
    coul_scale14: float
    lj_scale14: float


def precompute_correction_static(
    charges: np.ndarray,
    type_ids: np.ndarray,
    lj_table: "LJTable",
    exclusions: "ExclusionTable",
) -> CorrectionStatic:
    """Gather the configuration-independent correction-pair data once."""
    empty_idx = np.empty(0, dtype=np.int64)
    empty_f = np.empty(0)
    excl_i, excl_j, excl_qq = empty_idx, empty_idx, empty_f
    if exclusions.n_excluded:
        excl_i = np.ascontiguousarray(exclusions.excluded[:, 0])
        excl_j = np.ascontiguousarray(exclusions.excluded[:, 1])
        excl_qq = charges[excl_i] * charges[excl_j]
    p14_i, p14_j, p14_qq = empty_idx, empty_idx, empty_f
    p14_a, p14_b = empty_f, empty_f
    if exclusions.n_pair14:
        p14_i = np.ascontiguousarray(exclusions.pair14[:, 0])
        p14_j = np.ascontiguousarray(exclusions.pair14[:, 1])
        p14_qq = charges[p14_i] * charges[p14_j]
        p14_a, p14_b = lj_table.pair_coefficients(type_ids[p14_i], type_ids[p14_j])
    return CorrectionStatic(
        excl_i=excl_i,
        excl_j=excl_j,
        excl_qq=excl_qq,
        p14_i=p14_i,
        p14_j=p14_j,
        p14_qq=p14_qq,
        p14_a=p14_a,
        p14_b=p14_b,
        coul_scale14=exclusions.coul_scale14,
        lj_scale14=exclusions.lj_scale14,
    )


def correction_forces_static(
    positions: np.ndarray,
    box: Box,
    static: CorrectionStatic,
    sigma: float,
) -> CorrectionResult:
    """Evaluate all correction terms against precomputed static data.

    Returns per-pair energies and forces; on a replica-stacked system
    (the tiled layout) each lane's pairs form one contiguous block of
    every array, so a lane's energies are a reshape away.
    """
    from repro.forcefield.nonbonded import lj_energy_prefactor

    empty = np.empty(0)
    parts_i, parts_j, parts_f = [], [], []

    # -- hard exclusions: remove the mesh's erf part ---------------------
    e_excl = empty
    if len(static.excl_i):
        i, j, qq = static.excl_i, static.excl_j, static.excl_qq
        dx = box.minimum_image(positions[i] - positions[j])
        r2 = np.sum(dx * dx, axis=1)
        e_excl = -(qq * kspace_pair_energy_kernel(r2, sigma))
        pref = -qq * kspace_pair_force_kernel(r2, sigma)
        parts_i.append(i)
        parts_j.append(j)
        parts_f.append(pref[:, None] * dx)

    # -- 1-4 pairs: scaled explicit interaction minus mesh part -----------
    e14c, e14lj = empty, empty
    ls = static.lj_scale14
    if len(static.p14_i):
        i, j, qq = static.p14_i, static.p14_j, static.p14_qq
        dx = box.minimum_image(positions[i] - positions[j])
        r2 = np.sum(dx * dx, axis=1)
        cs = static.coul_scale14
        e14c = qq * (
            cs * plain_coulomb_energy_kernel(r2) - kspace_pair_energy_kernel(r2, sigma)
        )
        pref_c = qq * (cs * plain_coulomb_force_kernel(r2) - kspace_pair_force_kernel(r2, sigma))
        e14lj, pref_lj = lj_energy_prefactor(r2, static.p14_a, static.p14_b)
        parts_i.append(i)
        parts_j.append(j)
        parts_f.append((pref_c + ls * pref_lj)[:, None] * dx)

    if len(parts_i) == 1:
        # One kind of pair (a water box's exclusions): the static index
        # arrays themselves, which a C deposit has seen before.
        (out_i,), (out_j,), (out_f,) = parts_i, parts_j, parts_f
    elif parts_i:
        out_i = np.concatenate(parts_i)
        out_j = np.concatenate(parts_j)
        out_f = np.concatenate(parts_f)
    else:
        out_i = np.empty(0, dtype=np.int64)
        out_j = np.empty(0, dtype=np.int64)
        out_f = np.empty((0, 3))
    return CorrectionResult(
        e_exclusion=e_excl,
        e_14_coul=e14c,
        e_14_lj=e14lj,
        lj_scale14=ls,
        i=out_i,
        j=out_j,
        force=out_f,
    )
