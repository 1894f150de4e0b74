"""Force-error metrics (Table 4, Section 5.2).

"We examined errors in the per-atom forces computed on Anton by
comparing them with forces computed in Desmond using double-precision
floating-point arithmetic and extremely conservative values for
adjustable parameters ... Force errors are expressed as fractions of
the rms force."

Two error kinds:

* **total force error** — Anton parameters and numerics vs. the
  conservative double-precision reference (dominated by parameter
  choices: cutoff, mesh, spreading radius);
* **numerical force error** — Anton numerics vs. double precision *at
  the same parameters* (isolates fixed-point/table error; "nearly an
  order of magnitude smaller").  The double-precision side of that
  comparison is :func:`analytic_forces`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.forcefield import nonbonded_real_space, scatter_forces
from repro.geometry import neighbor_pairs

__all__ = ["ForceError", "analytic_forces", "force_error", "rms_force"]


@dataclass(frozen=True)
class ForceError:
    """RMS force-error fraction between two force evaluations."""

    rms_error: float        # kcal/mol/A
    rms_reference: float    # rms of the reference forces
    fraction: float         # rms_error / rms_reference
    max_error: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.fraction:.2e} of rms force"


def rms_force(forces: np.ndarray) -> float:
    """RMS over all force components (the paper's normalization)."""
    return float(np.sqrt(np.mean(np.asarray(forces) ** 2)))


def force_error(test: np.ndarray, reference: np.ndarray) -> ForceError:
    """Compare a force evaluation against a reference."""
    test = np.asarray(test, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if test.shape != reference.shape:
        raise ValueError("force arrays must have the same shape")
    diff = test - reference
    rms_ref = rms_force(reference)
    rms_err = rms_force(diff)
    return ForceError(
        rms_error=rms_err,
        rms_reference=rms_ref,
        fraction=rms_err / rms_ref if rms_ref else float("inf"),
        max_error=float(np.max(np.abs(diff))),
    )


def analytic_forces(calc, positions: np.ndarray) -> np.ndarray:
    """Float64 forces of ``calc``'s force field with analytic pair kernels.

    The oracle of the numerical force error: the same cutoff, exclusions,
    bonded terms, corrections and mesh as the
    :class:`~repro.core.forces.ForceCalculator` ``calc``, but the
    range-limited part from a fresh pair search through
    :func:`~repro.forcefield.nonbonded_real_space` (plain-cutoff LJ)
    instead of the calculator's tables.
    """
    s = calc.system
    pairs = neighbor_pairs(positions, s.box, calc.params.cutoff)
    nb = nonbonded_real_space(pairs, s.charges, s.type_ids, s.lj, s.exclusions, calc.sigma)
    forces = np.zeros((s.n_atoms, 3))
    calc.kernels.deposit_pairs_float(forces, nb.i, nb.j, nb.force)
    forces += scatter_forces(s.n_atoms, calc._bonded(positions))
    forces += calc.compute_long(positions).forces
    s.spread_virtual_site_forces(forces)
    return forces
