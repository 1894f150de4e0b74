"""PPIP-style tabulated kernel evaluation for pairwise interactions.

A PPIP computes pairwise forces as table-driven functions of the squared
distance (paper Section 4).  :class:`KernelTableSet` bundles the tables a
simulation needs — real-space electrostatic force/energy and the two
van der Waals dispersion kernels — indexed by ``u = (r/R)²`` for a
cutoff ``R``, so the MD nonbonded path can run in "Anton numerics" mode
and be compared against the analytic double-precision path.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.functions.tables import ANTON_ELECTROSTATIC_TIERS, Tier, TieredTable

__all__ = ["KernelTableSet", "TABLE_MANTISSA_BITS", "R_FLOOR"]

#: Mantissa width of every kernel table's block-floating-point
#: coefficients; a fingerprint hashes it as the retired
#: ``MDParams.table_mantissa_bits``.
TABLE_MANTISSA_BITS = 22
#: Smallest pair distance (A) the tables represent.  Hydrogens without
#: LJ cores (rigid-water H) can be pressed to ~1.4 A by hydrogen-bond
#: geometry, so the floor sits at 1.0 A; the tiered segmentation keeps
#: the steep small-r region accurate.
R_FLOOR = 1.0


class KernelTableSet:
    """Tabulated kernels of r² for a fixed interaction cutoff.

    Parameters
    ----------
    cutoff:
        Interaction cutoff R in angstroms; tables span r in
        (:data:`R_FLOOR`, R).
    """

    def __init__(self, cutoff: float):
        if cutoff <= R_FLOOR:
            raise ValueError(f"cutoff {cutoff} must exceed the table floor {R_FLOOR}")
        self.cutoff = float(cutoff)
        self.u_floor = (R_FLOOR / cutoff) ** 2
        self.tables: dict[str, TieredTable] = {}

    def add(
        self,
        name: str,
        f_of_r2: Callable[[np.ndarray], np.ndarray],
        tiers: Sequence[Tier] = ANTON_ELECTROSTATIC_TIERS,
    ) -> TieredTable:
        """Tabulate ``f_of_r2`` (a function of r² in A²) over the cutoff.

        The table stores ``g(u) = f_of_r2(u * R²)`` with the hardware's
        tiered segmentation; u below the floor is clamped (exclusions
        guarantee it is never consumed).
        """
        r2max = self.cutoff**2

        def g(u: np.ndarray) -> np.ndarray:
            return f_of_r2(np.asarray(u, dtype=np.float64) * r2max)

        table = TieredTable.build(
            g,
            tiers=tiers,
            mantissa_bits=TABLE_MANTISSA_BITS,
            u_floor=self.u_floor,
        )
        self.tables[name] = table
        return table

    def normalize(self, r2: np.ndarray | float) -> np.ndarray:
        """Map squared distances to the clamped table coordinate ``u``.

        Exactly the transform :meth:`evaluate` applies internally, so a
        normalized array can be shared across several table lookups.
        """
        u = np.asarray(r2, dtype=np.float64) / self.cutoff**2
        return np.minimum(u, np.nextafter(1.0, 0.0))

    def evaluate(self, name: str, r2: np.ndarray | float) -> np.ndarray:
        """Evaluate a tabulated kernel at squared distances r² (A²)."""
        return self.tables[name].evaluate(self.normalize(r2))

    def shared_evaluator(self, u: np.ndarray):
        """A one-``locate``-many-tables evaluator over fixed ``u``.

        Returns ``ev(name)`` which evaluates table ``name`` at ``u``
        (pre-normalized via :meth:`normalize`), computing the
        segment-index/local-coordinate lookup once per distinct
        segmentation instead of once per table.  Tables sharing a
        :meth:`~repro.functions.tables.TieredTable.segmentation_key`
        reuse the lookup; results are bitwise identical to
        :meth:`evaluate`.
        """
        cache: dict[tuple[bytes, bytes], tuple[np.ndarray, np.ndarray]] = {}

        def ev(name: str) -> np.ndarray:
            table = self.tables[name]
            key = table.segmentation_key()
            loc = cache.get(key)
            if loc is None:
                loc = cache[key] = table.locate(u)
            return table.evaluate_at(*loc)

        return ev
