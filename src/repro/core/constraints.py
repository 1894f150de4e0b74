"""SHAKE/RATTLE distance constraints (paper Section 3.2.4).

"Most MD simulations can be accelerated by incorporating constraints
during integration that fix the lengths of bonds to hydrogen atoms as
well as angles between certain bonds."

Implementation: Gauss–Seidel SHAKE with *constraint coloring*.  The
constraints are greedily partitioned into batches that share no atoms,
so each batch updates vectorized and exactly (not Jacobi-approximately),
while successive batches see each other's corrections — the ordering
that gives classic SHAKE its fast linear convergence.  The coloring is
deterministic (greedy in constraint order), so results are bitwise
reproducible and independent of how constraint groups are distributed
over simulated nodes.

The sweeps run on the solver's kernel suite (``kernels=`` from
:mod:`repro.kernels`, the NumPy suite by default) through its one form
of each, ``shake_batch`` / ``rattle_batch``, with the solver's atoms as
one block (an ensemble hands the same primitives R blocks): on the
compiled tier in C over the same flattened batch order with the same
operation ordering — bitwise identical, without the per-iteration
Python/NumPy dispatch that dominates at rigid-water batch sizes.  The
suite decides which arrays C can take; the solver only hands them
over.
"""

from __future__ import annotations

import numpy as np

from repro.forcefield import Topology
from repro.geometry import Box
from repro.kernels import NUMPY_SUITE

__all__ = ["ConstraintSolver"]


def _color_constraints(idx: np.ndarray) -> list[np.ndarray]:
    """Greedy partition of constraints into atom-disjoint batches."""
    batches: list[list[int]] = []
    batch_atoms: list[set[int]] = []
    for c, (i, j) in enumerate(idx):
        i, j = int(i), int(j)
        for b, atoms in enumerate(batch_atoms):
            if i not in atoms and j not in atoms:
                batches[b].append(c)
                atoms.add(i)
                atoms.add(j)
                break
        else:
            batches.append([c])
            batch_atoms.append({i, j})
    return [np.array(b, dtype=np.int64) for b in batches]


class ConstraintSolver:
    """Iterative SHAKE (positions) and RATTLE (velocities).

    Parameters
    ----------
    iterations:
        Maximum Gauss–Seidel sweeps.  Rigid water converges at ~0.4 per
        sweep even from large perturbations; MD-step displacements
        reach 1e-12 well inside the default.
    kernels:
        The kernel suite :meth:`shake` and :meth:`rattle` run on, as
        one block of its ``shake_batch`` / ``rattle_batch``; the NumPy
        sweeps below are what its NumPy forms run per block.
    """

    def __init__(
        self,
        topology: Topology,
        masses: np.ndarray,
        box: Box,
        iterations: int = 40,
        kernels=NUMPY_SUITE,
    ):
        topology.compile()
        self.idx = topology.constraint_idx
        self.dist = topology.constraint_dist
        self.box = box
        self.iterations = iterations
        inv = np.zeros_like(np.asarray(masses, dtype=np.float64))
        m = np.asarray(masses, dtype=np.float64)
        inv[m > 0] = 1.0 / m[m > 0]
        self.inv_mass = inv
        if len(self.idx):
            i, j = self.idx[:, 0], self.idx[:, 1]
            if np.any(self.inv_mass[i] + self.inv_mass[j] == 0):
                raise ValueError("constraint between two massless atoms")
        self.batches = _color_constraints(self.idx)
        self.kernels = kernels
        self._c_arrays = None

    @property
    def n_constraints(self) -> int:
        return len(self.idx)

    # -- compiled-tier support -------------------------------------------

    def _compiled_arrays(self):
        """Flattened, C-contiguous constraint data for the C sweeps.

        Built once: constraint endpoints, squared target distances,
        inverse masses, box lengths, the coloring flattened to a single
        ``order`` array with batch prefix ``starts``, plus persistent
        scratch for the reference/current displacement tables — so
        steady-state constraint solves allocate nothing.
        """
        if not self.n_constraints:
            return None
        if self._c_arrays is None:
            ncon = self.n_constraints
            order = np.ascontiguousarray(np.concatenate(self.batches))
            starts = np.zeros(len(self.batches) + 1, dtype=np.int64)
            np.cumsum([len(b) for b in self.batches], out=starts[1:])
            self._c_arrays = (
                np.ascontiguousarray(self.idx[:, 0], dtype=np.int64),
                np.ascontiguousarray(self.idx[:, 1], dtype=np.int64),
                np.ascontiguousarray(self.dist**2, dtype=np.float64),
                np.ascontiguousarray(self.inv_mass, dtype=np.float64),
                np.ascontiguousarray(self.box.lengths, dtype=np.float64),
                order,
                starts,
                np.empty((ncon, 3), dtype=np.float64),  # dref scratch
                np.empty((ncon, 3), dtype=np.float64),  # dx_all scratch
                np.empty(ncon, dtype=np.float64),  # d2_all scratch
            )
        return self._c_arrays

    def shake(
        self, positions: np.ndarray, reference: np.ndarray, tol: float = 1e-10
    ) -> np.ndarray:
        """Project ``positions`` onto the constraint manifold (in place).

        ``reference`` supplies the pre-drift constraint directions, as
        in classic SHAKE.
        """
        if not self.n_constraints:
            return positions
        return self.kernels.shake_batch(self, positions, reference, tol, 1, len(positions))

    def _shake_numpy(
        self, positions: np.ndarray, reference: np.ndarray, tol: float = 1e-10
    ) -> np.ndarray:
        if not self.n_constraints:
            return positions
        all_i, all_j = self.idx[:, 0], self.idx[:, 1]
        d2 = self.dist**2
        dref = self.box.minimum_image(reference[all_i] - reference[all_j])
        inv = self.inv_mass
        for _ in range(self.iterations):
            dx = self.box.minimum_image(positions[all_i] - positions[all_j])
            if np.max(np.abs(np.sum(dx * dx, axis=1) - d2)) < tol:
                break
            for b in self.batches:
                i, j = all_i[b], all_j[b]
                dxb = self.box.minimum_image(positions[i] - positions[j])
                diff = np.sum(dxb * dxb, axis=1) - d2[b]
                denom = 2.0 * (inv[i] + inv[j]) * np.sum(dxb * dref[b], axis=1)
                # Guard the (unphysical at MD step sizes) perpendicular-
                # drift singularity.
                denom = np.where(np.abs(denom) < 1e-12, 1e-12, denom)
                g = diff / denom
                corr = g[:, None] * dref[b]
                positions[i] -= inv[i][:, None] * corr
                positions[j] += inv[j][:, None] * corr
        return positions

    def rattle(self, velocities: np.ndarray, positions: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Remove velocity components along constraints (in place)."""
        if not self.n_constraints:
            return velocities
        return self.kernels.rattle_batch(self, velocities, positions, tol, 1, len(velocities))

    def _rattle_numpy(
        self, velocities: np.ndarray, positions: np.ndarray, tol: float = 1e-12
    ) -> np.ndarray:
        if not self.n_constraints:
            return velocities
        all_i, all_j = self.idx[:, 0], self.idx[:, 1]
        dx_all = self.box.minimum_image(positions[all_i] - positions[all_j])
        d2_all = np.sum(dx_all * dx_all, axis=1)
        inv = self.inv_mass
        for _ in range(self.iterations):
            dv = velocities[all_i] - velocities[all_j]
            if np.max(np.abs(np.sum(dx_all * dv, axis=1))) < tol:
                break
            for b in self.batches:
                i, j = all_i[b], all_j[b]
                dx = dx_all[b]
                rv = np.sum(dx * (velocities[i] - velocities[j]), axis=1)
                k = rv / ((inv[i] + inv[j]) * d2_all[b])
                corr = k[:, None] * dx
                velocities[i] -= inv[i][:, None] * corr
                velocities[j] += inv[j][:, None] * corr
        return velocities

    def max_residual(self, positions: np.ndarray) -> float:
        """Largest |r² - d²| over all constraints (diagnostic)."""
        if not self.n_constraints:
            return 0.0
        i, j = self.idx[:, 0], self.idx[:, 1]
        dx = self.box.minimum_image(positions[i] - positions[j])
        return float(np.max(np.abs(np.sum(dx * dx, axis=1) - self.dist**2)))
