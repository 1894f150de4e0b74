"""Range-limited nonbonded interactions: LJ + screened Coulomb.

Two evaluations of the same plain-cutoff physics:

* :func:`nonbonded_real_space_tabulated` — tiered piecewise-cubic
  tables of r² ("Anton PPIP" path, paper Section 4), built by
  :func:`build_kernel_tables`; the NumPy form of the kernel suite's
  pair walk, which every engine runs.
* :func:`nonbonded_real_space` — analytic float64 kernels ("Desmond
  double precision"), the oracle the tables are measured against
  (:func:`repro.analysis.forces.analytic_forces`, Table 4).

Both return per-pair force contributions so callers can accumulate in
floating point or in order-invariant fixed point.  The kernel suite's
fixed-point walk keeps no per-pair array: its energies come back as
per-row sums of :data:`ENERGY_CODEC` codes (:class:`PairWalkResult`).
Every other fixed-path energy term is reduced to the same codes by
:func:`energy_codes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ewald.kernels import (
    real_space_energy_kernel,
    real_space_force_kernel,
)
from repro.fixedpoint import FixedFormat, ScaledFixed
from repro.forcefield.exclusions import ExclusionTable
from repro.forcefield.parameters import LJTable
from repro.functions import KernelTableSet, Tier
from repro.geometry import NeighborPairs
from repro.util import COULOMB

__all__ = [
    "ENERGY_CODEC",
    "energy_codes",
    "NonbondedResult",
    "PairWalkResult",
    "lj_energy_prefactor",
    "nonbonded_real_space",
    "build_kernel_tables",
    "nonbonded_real_space_tabulated",
]


#: The codec of every fixed-path energy term (kcal/mol): a quantum of
#: ``2**-32`` (62 bits over ``[-2**29, 2**29)``), both powers of two.
#: Each term's code is clipped at ``2**62`` quanta (``2**30`` kcal/mol)
#: and the codes are wrap-added in int64, so a sum is exact whenever the
#: true total lies within ``2**31`` kcal/mol, whatever the order
#: (DESIGN.md, order-free energy lemma, argues both bounds).
ENERGY_CODEC = ScaledFixed(FixedFormat(62), limit=2.0**29)
# The compiled walk quantizes with the one multiply by ``RK_ENERGY_MUL``
# (kernels/_kernels.c), exact only for this power-of-two pair.
assert ENERGY_CODEC.fmt.scale / ENERGY_CODEC.limit == 2.0**32


def energy_codes(terms: np.ndarray, lanes: int = 1) -> np.ndarray:
    """Per-lane int64 sums of the :data:`ENERGY_CODEC` codes of ``terms``.

    ``terms`` stacks ``lanes`` equal blocks of per-term energies, lane
    ``r`` owning block ``r``; each term is quantized once and the codes
    wrap-add along the term axis.  Integer sums commute, so a lane's
    code is the same integer however its terms are ordered or split —
    its solo run's, bit for bit.  Decode with ``ENERGY_CODEC.reconstruct``.
    """
    codes = ENERGY_CODEC.quantize_round_only(terms)
    return np.add.reduce(codes.reshape(lanes, len(codes) // lanes), axis=1)


@dataclass(frozen=True)
class NonbondedResult:
    """Pairwise nonbonded energies and force contributions.

    ``force`` is the force on atom ``i`` of each pair; the force on
    ``j`` is its negation (the NT method exploits exactly this symmetry
    to halve its plate, Figure 3a).

    ``e_lj_pairs``/``e_coul_pairs`` are the per-pair energies whose
    ``np.sum`` gave the float totals: what the NumPy evaluations return,
    and what the NumPy pair walk quantizes.  The float path's result
    (``ForceCalculator.compute``) carries them as views of the
    calculator's reused scratch, valid until its next evaluation.  The
    fixed-point walk keeps none: its record is :class:`PairWalkResult`.
    """

    energy_lj: float
    energy_coul: float
    i: np.ndarray
    j: np.ndarray
    force: np.ndarray
    e_lj_pairs: np.ndarray | None = None
    e_coul_pairs: np.ndarray | None = None

    @property
    def energy(self) -> float:
        return self.energy_lj + self.energy_coul

    @property
    def n_pairs(self) -> int:
        return len(self.i)


@dataclass(frozen=True)
class PairWalkResult:
    """What one fixed-point pair walk leaves: energies as row codes.

    ``e_rows`` is ``(n_atoms, 2)`` int64: row ``i``'s wrapping sums of
    the :data:`ENERGY_CODEC` codes of its surviving pairs' LJ and
    Coulomb energies; ``counts[i]`` is its survivor count.  Integer sums
    commute, so any block of rows (a lane, the whole system) sums to a
    pure function of its pair set — the same integer for any pair order,
    row split or block, a lane's being its solo run's; the calculator
    decodes each lane's sum once (``ForceCalculator._pair_codes``).
    The arrays are views of the calculator's reused scratch, valid until
    its next evaluation.
    """

    e_rows: np.ndarray
    counts: np.ndarray
    n_pairs: int

    @property
    def i(self) -> np.ndarray:
        """The surviving pairs' ``i``, in walk order, from the counts."""
        return np.repeat(np.arange(len(self.counts), dtype=np.int64), self.counts)


def lj_energy_prefactor(r2: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LJ energy and force prefactor from A/B coefficients.

    ``E = A/r^12 - B/r^6``; force vector is ``(12A/r^14 - 6B/r^8) dx``.
    """
    inv_r2 = 1.0 / r2
    inv_r6 = inv_r2 * inv_r2 * inv_r2
    inv_r12 = inv_r6 * inv_r6
    energy = a * inv_r12 - b * inv_r6
    pref = (12.0 * a * inv_r12 - 6.0 * b * inv_r6) * inv_r2
    return energy, pref


def nonbonded_real_space(
    pairs: NeighborPairs,
    charges: np.ndarray,
    type_ids: np.ndarray,
    lj_table: LJTable,
    exclusions: ExclusionTable,
    ewald_sigma: float,
) -> NonbondedResult:
    """Analytic range-limited forces over a pair list, plain-cutoff LJ.

    Excluded and 1-4 pairs are dropped here; the correction path
    (:mod:`repro.ewald.correction`) handles them.
    """
    keep = ~exclusions.is_excluded(pairs.i, pairs.j)
    i, j, dx, r2 = pairs.i[keep], pairs.j[keep], pairs.dx[keep], pairs.r2[keep]
    qq = charges[i] * charges[j]
    a, b = lj_table.pair_coefficients(type_ids[i], type_ids[j])

    e_lj, p_lj = lj_energy_prefactor(r2, a, b)
    e_coul = qq * real_space_energy_kernel(r2, ewald_sigma)
    p_coul = qq * real_space_force_kernel(r2, ewald_sigma)

    force = (p_lj + p_coul)[:, None] * dx
    return NonbondedResult(
        energy_lj=float(np.sum(e_lj)),
        energy_coul=float(np.sum(e_coul)),
        i=i,
        j=j,
        force=force,
        e_lj_pairs=e_lj,
        e_coul_pairs=e_coul,
    )


# -- tabulated (PPIP) path -------------------------------------------------

#: Tier layout for the steep dispersion kernels: entries concentrated at
#: small r^2 where r^-14 varies fastest (the paper's tiered indexing).
_DISPERSION_TIERS: tuple[Tier, ...] = (
    Tier(0.0, 1.0 / 64, 96),
    Tier(1.0 / 64, 1.0 / 16, 64),
    Tier(1.0 / 16, 1.0 / 4, 48),
    Tier(1.0 / 4, 1.0, 32),
)


#: Memoized table sets keyed on the full parameterization.  A fresh set
#: (six tables of 240 segments, one batched Remez exchange per table)
#: costs ~50 ms on a 2-vCPU host, and the benchmarks and machine
#: simulator construct many ForceCalculators with identical parameters —
#: they share one immutable set.
_TABLE_CACHE: dict[tuple[float, float], KernelTableSet] = {}


def build_kernel_tables(cutoff: float, ewald_sigma: float) -> KernelTableSet:
    """Build (or fetch the memoized) PPIP table set for a parameterization.

    Tables: electrostatic force/energy (screened Coulomb per unit
    charge product) and the r^-12 / r^-6 dispersion force/energy
    kernels (per unit A/B coefficient).

    Results are cached per ``(cutoff, sigma)``; callers treat the
    returned set as read-only.
    """
    key = (float(cutoff), float(ewald_sigma))
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    ts = KernelTableSet(cutoff=cutoff)
    ts.add("elec_f", lambda r2: real_space_force_kernel(r2, ewald_sigma) / COULOMB)
    ts.add("elec_e", lambda r2: real_space_energy_kernel(r2, ewald_sigma) / COULOMB)
    ts.add("lj12_f", lambda r2: 12.0 / r2**7, tiers=_DISPERSION_TIERS)
    ts.add("lj6_f", lambda r2: 6.0 / r2**4, tiers=_DISPERSION_TIERS)
    ts.add("lj12_e", lambda r2: 1.0 / r2**6, tiers=_DISPERSION_TIERS)
    ts.add("lj6_e", lambda r2: 1.0 / r2**3, tiers=_DISPERSION_TIERS)
    _TABLE_CACHE[key] = ts
    return ts


def nonbonded_real_space_tabulated(
    pairs: NeighborPairs,
    charges: np.ndarray,
    type_ids: np.ndarray,
    lj_table: LJTable,
    tables: KernelTableSet,
) -> NonbondedResult:
    """Table-driven range-limited forces (the Anton numerics path).

    ``pairs`` are already filtered: within the cutoff, no excluded or
    1-4 pair.  Functionally parallel to :func:`nonbonded_real_space`;
    differences from it measure table error (part of Table 4's
    "numerical force error").
    """
    i, j, dx, r2 = pairs.i, pairs.j, pairs.dx, pairs.r2
    qq = charges[i] * charges[j] * COULOMB
    a, b = lj_table.pair_coefficients(type_ids[i], type_ids[j])

    # One normalization and one segment lookup per distinct tier layout
    # (electrostatic and dispersion) feed all six table evaluations —
    # bitwise identical to six independent ``tables.evaluate`` calls.
    ev = tables.shared_evaluator(tables.normalize(r2))
    p = qq * ev("elec_f") + a * ev("lj12_f") - b * ev("lj6_f")
    e_coul = qq * ev("elec_e")
    e_lj = a * ev("lj12_e") - b * ev("lj6_e")
    return NonbondedResult(
        energy_lj=float(np.sum(e_lj)),
        energy_coul=float(np.sum(e_coul)),
        i=i,
        j=j,
        force=p[:, None] * dx,
        e_lj_pairs=e_lj,
        e_coul_pairs=e_coul,
    )
