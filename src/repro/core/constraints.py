"""SETTLE, SHAKE and RATTLE distance constraints (paper Section 3.2.4).

"Most MD simulations can be accelerated by incorporating constraints
during integration that fix the lengths of bonds to hydrogen atoms as
well as angles between certain bonds."

The solver finds its rigid waters once — each a triangle of three
constraints on three atoms that touch no other constraint, with equal
O–H lengths and equal H masses (TIP3P, TIP4P-Ew) — and constrains them
with SETTLE (Miyamoto & Kollman 1992): one closed-form solve per
molecule for the positions, and one 3x3 solve by Cramer's rule for the
velocities, exact to rounding instead of to a tolerance.  Both are
written element-wise in IEEE ``+ - * /`` and ``sqrt`` in one fixed
order, so the NumPy form below is the bitwise definition of the C twin.

Every other constraint (the synthetic proteins' bonds to H) takes
Gauss–Seidel SHAKE with *constraint coloring*.  Those constraints are
greedily partitioned into batches that share no atoms, so each batch
updates vectorized and exactly (not Jacobi-approximately), while
successive batches see each other's corrections — the ordering that
gives classic SHAKE its fast linear convergence.  The coloring is
deterministic (greedy in constraint order), so results are bitwise
reproducible and independent of how constraint groups are distributed
over simulated nodes.  A water-only system never sweeps.

Both run on the solver's kernel suite (``kernels=`` from
:mod:`repro.kernels`, the NumPy suite by default) through its one form
of each, ``settle_batch`` and ``shake_batch`` / ``rattle_batch``, with
the solver's atoms as one block (an ensemble hands the same primitives
R blocks).  SETTLE runs in C on the compiled tier, in the NumPy form's
operation order and so to its bits; the sweeps, a protein's few bonds
to H, are the NumPy methods below on every tier.  The suite decides
which arrays C can take; the solver only hands them over.
"""

from __future__ import annotations

import numpy as np

from repro.forcefield import Topology
from repro.geometry import Box
from repro.kernels import NUMPY_SUITE, DegenerateWaterError

__all__ = ["ConstraintSolver", "DegenerateWaterError"]


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


def _rigid_waters(idx: np.ndarray, dist: np.ndarray, masses: np.ndarray):
    """The constraints' rigid waters: ``(waters, lengths, rest)``.

    ``waters`` is ``(n, 3)`` atoms (O, H1, H2) in order of each
    molecule's first constraint, ``lengths`` their ``(n, 2)`` O–H and
    H–H lengths, ``rest`` the indices of every other constraint.  A
    water is three constraints joining three atoms pairwise, none of
    them in any other constraint, of which one atom (O, tried in the
    order the first constraint names them, then the third atom) has two
    equal-length constraints to atoms of equal mass, all three masses
    positive and H–H shorter than twice O–H.  Each atom's constraints
    are its two in index order; the O–H lengths are the first's.
    """
    m = len(idx)
    i, j = idx[:, 0], idx[:, 1]
    c = np.arange(m)
    # Each atom's constraint count, and its first and last constraint.
    deg = np.bincount(idx.ravel(), minlength=len(masses))
    first, last = np.full(len(deg), m), np.full(len(deg), -1)
    np.minimum.at(first, idx.ravel(), np.repeat(c, 2))
    np.maximum.at(last, idx.ravel(), np.repeat(c, 2))

    def other_of(atom, con):
        return idx[con, 0] + idx[con, 1] - atom

    ci = np.where(first[i] == c, last[i], first[i])
    cj = np.where(first[j] == c, last[j], first[j])
    k = other_of(i, ci)
    # Only a triangle's first constraint names it, as the scan in
    # constraint order met it first.
    tri = ((deg[i] == 2) & (deg[j] == 2) & (k != j) & (other_of(j, cj) == k)
           & (deg[k] == 2) & (c < ci) & (c < cj))
    c, i, j, k, ci, cj = c[tri], i[tri], j[tri], k[tri], ci[tri], cj[tri]
    rows = np.empty((len(c), 3), np.int64)
    lengths = np.empty((len(c), 2), np.float64)
    chosen = np.zeros(len(c), dtype=bool)
    for o in (i, j, k):  # each candidate O in turn, for every molecule at once
        c1, c2 = first[o], last[o]
        h1, h2 = other_of(o, c1), other_of(o, c2)
        hh = c + ci + cj - c1 - c2
        ok = (~chosen & (dist[c1] == dist[c2]) & (masses[h1] == masses[h2])
              & (masses[o] > 0) & (masses[h1] > 0) & (dist[hh] < 2.0 * dist[c1]))
        rows[ok] = np.stack([o, h1, h2], axis=1)[ok]
        lengths[ok] = np.stack([dist[c1], dist[hh]], axis=1)[ok]
        chosen |= ok
    used = np.zeros(m, dtype=bool)
    used[np.concatenate([c, ci, cj])[np.tile(chosen, 3)]] = True
    return rows[chosen], lengths[chosen], np.flatnonzero(~used)


def _settle_params(waters, lengths, masses, inv_mass) -> np.ndarray:
    """Per-molecule SETTLE rows: wh, ra, rb, rc, dHH, 1/mO, 1/mH."""
    o, h1 = waters[:, 0], waters[:, 1]
    d_oh, d_hh = lengths[:, 0], lengths[:, 1]
    m_o, m_h = masses[o], masses[h1]
    total = m_o + 2.0 * m_h
    rc = 0.5 * d_hh
    height = np.sqrt(d_oh * d_oh - rc * rc)
    ra = 2.0 * m_h * height / total
    par = np.stack([m_h / total, ra, height - ra, rc, d_hh, inv_mass[o], inv_mass[h1]], axis=1)
    return np.ascontiguousarray(par, dtype=np.float64)


def _cross(p, q):
    return np.array(
        [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]]
    )


def _dot(p, q):
    return (p[0] * q[0] + p[1] * q[1]) + p[2] * q[2]


def _settle_positions(x, ref, mol, par, box) -> np.ndarray:
    """SETTLE position step of every molecule; returns the mask of
    molecules it could solve (the others are left as they were).

    Miyamoto & Kollman: in the frame whose z is the reference plane's
    normal, tilt the canonical triangle out of the plane (phi, psi) to
    match the unconstrained out-of-plane offsets, then turn it in the
    plane (theta) so the move conserves angular momentum.  Vectors are
    ``(3, n)`` so every line is one element-wise IEEE operation of
    ``rk_settle_pos``, in its order.
    """
    a, b, c = mol[:, 0], mol[:, 1], mol[:, 2]
    wh, ra, rb, rc, hh = par[:, 0], par[:, 1], par[:, 2], par[:, 3], par[:, 4]
    xa, xb, xc = x[a], x[b], x[c]
    b0 = box.minimum_image(ref[b] - ref[a]).T
    c0 = box.minimum_image(ref[c] - ref[a]).T
    db = box.minimum_image(xb - xa).T
    dc = box.minimum_image(xc - xa).T
    a1 = -(db + dc) * wh
    b1 = db + a1
    c1 = dc + a1
    with np.errstate(invalid="ignore", divide="ignore"):
        n = _cross(b0, c0)
        u = _cross(a1, n)
        w = _cross(n, u)
        e1 = u / np.sqrt(_dot(u, u))
        e2 = w / np.sqrt(_dot(w, w))
        e3 = n / np.sqrt(_dot(n, n))
        xb0d, yb0d = _dot(e1, b0), _dot(e2, b0)
        xc0d, yc0d = _dot(e1, c0), _dot(e2, c0)
        za1d = _dot(e3, a1)
        xb1d, yb1d, zb1d = _dot(e1, b1), _dot(e2, b1), _dot(e3, b1)
        xc1d, yc1d, zc1d = _dot(e1, c1), _dot(e2, c1), _dot(e3, c1)

        sinphi = za1d / ra
        q1 = 1.0 - sinphi * sinphi
        cosphi = np.sqrt(q1)
        sinpsi = (zb1d - zc1d) / (hh * cosphi)
        q2 = 1.0 - sinpsi * sinpsi
        cospsi = np.sqrt(q2)
        ya2d = ra * cosphi
        xb2d = -rc * cospsi
        t1 = -rb * cosphi
        t2 = (rc * sinpsi) * sinphi
        yb2d = t1 - t2
        yc2d = t1 + t2
        alpha = (xb2d * (xb0d - xc0d) + yb0d * yb2d) + yc0d * yc2d
        beta = (xb2d * (yc0d - yb0d) + xb0d * yb2d) + xc0d * yc2d
        gamma = ((xb0d * yb1d - xb1d * yb0d) + xc0d * yc1d) - xc1d * yc0d
        al2be2 = alpha * alpha + beta * beta
        q3 = al2be2 - gamma * gamma
        sinthe = (alpha * gamma - beta * np.sqrt(q3)) / al2be2
        q4 = 1.0 - sinthe * sinthe
        costhe = np.sqrt(q4)

        xa3d, ya3d = -ya2d * sinthe, ya2d * costhe
        xb3d = xb2d * costhe - yb2d * sinthe
        yb3d = xb2d * sinthe + yb2d * costhe
        xc3d = -xb2d * costhe - yc2d * sinthe
        yc3d = -xb2d * sinthe + yc2d * costhe
        a3 = (e1 * xa3d + e2 * ya3d) + e3 * za1d
        b3 = (e1 * xb3d + e2 * yb3d) + e3 * zb1d
        c3 = (e1 * xc3d + e2 * yc3d) + e3 * zc1d
    ok = (q1 >= 0.0) & (q2 >= 0.0) & (q3 >= 0.0) & (q4 >= 0.0)
    x[a[ok]] = (xa + (a3 - a1).T)[ok]
    x[b[ok]] = (xb + (b3 - b1).T)[ok]
    x[c[ok]] = (xc + (c3 - c1).T)[ok]
    return ok


def _settle_velocities(v, x, mol, par, box) -> np.ndarray:
    """SETTLE velocity step: the multipliers of O–H1, O–H2 and H1–H2
    from their symmetric 3x3 system by Cramer's rule, so each ``d·Δv``
    is zero to rounding at once.  Returns the mask of molecules whose
    system is positive definite (the others are left as they were);
    each line is one operation of ``rk_settle_vel``, in its order.
    """
    a, b, c = mol[:, 0], mol[:, 1], mol[:, 2]
    io, ih = par[:, 5], par[:, 6]
    va, vb, vc = v[a], v[b], v[c]
    d0 = box.minimum_image(x[a] - x[b]).T
    d1 = box.minimum_image(x[a] - x[c]).T
    d2 = box.minimum_image(x[b] - x[c]).T
    r0 = _dot(d0, (va - vb).T)
    r1 = _dot(d1, (va - vc).T)
    r2 = _dot(d2, (vb - vc).T)
    a00 = (io + ih) * _dot(d0, d0)
    a11 = (io + ih) * _dot(d1, d1)
    a22 = (2.0 * ih) * _dot(d2, d2)
    a01 = io * _dot(d0, d1)
    a02 = -ih * _dot(d0, d2)
    a12 = ih * _dot(d1, d2)
    c00 = a11 * a22 - a12 * a12
    c01 = a02 * a12 - a01 * a22
    c02 = a01 * a12 - a11 * a02
    c11 = a00 * a22 - a02 * a02
    c12 = a01 * a02 - a00 * a12
    c22 = a00 * a11 - a01 * a01
    det = (a00 * c00 + a01 * c01) + a02 * c02
    ok = det > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        t0 = ((c00 * r0 + c01 * r1) + c02 * r2) / det
        t1 = ((c01 * r0 + c11 * r1) + c12 * r2) / det
        t2 = ((c02 * r0 + c12 * r1) + c22 * r2) / det
        da = (io * (t0 * d0 + t1 * d1)).T
        db = (ih * (t0 * d0 - t2 * d2)).T
        dc = (ih * (t1 * d1 + t2 * d2)).T
    v[a[ok]] = (va - da)[ok]
    v[b[ok]] = (vb + db)[ok]
    v[c[ok]] = (vc + dc)[ok]
    return ok


class ConstraintSolver:
    """SETTLE for rigid water, iterative SHAKE / RATTLE for the rest.

    :meth:`shake` (positions) and :meth:`rattle` (velocities) solve the
    rigid waters exactly (:attr:`waters`; see the module docstring) and
    sweep the remaining constraints (:attr:`shake_idx`).

    Parameters
    ----------
    iterations:
        Maximum Gauss–Seidel sweeps over the non-water constraints.
        Their residual falls linearly per sweep, so RATTLE may end on
        this cap rather than on its tolerance; SETTLE has neither.
    kernels:
        The kernel suite :meth:`shake` and :meth:`rattle` run on, as
        one block of its ``settle_batch`` and ``shake_batch`` /
        ``rattle_batch``; the NumPy solves below are what its NumPy
        forms run per block (and the sweeps on every tier).
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
        #: Rigid waters, ``(n, 3)`` atoms O, H1, H2: solved by SETTLE.
        self.waters, lengths, rest = _rigid_waters(self.idx, self.dist, m)
        self._settle_par = _settle_params(self.waters, lengths, m, inv)
        #: The other constraints: swept by SHAKE / RATTLE.
        self.shake_idx = self.idx[rest]
        self.shake_dist = self.dist[rest]
        self.batches = _color_constraints(self.shake_idx)
        self._sweep = self._sweep_plan()
        self.kernels = kernels

    @property
    def n_constraints(self) -> int:
        return len(self.idx)

    def _sweep_plan(self):
        """What the sweeps read that is fixed for the solver's life.

        ``(all_i, all_j, d2, batches)``: the swept constraints' atoms and
        squared lengths, and per batch ``(b, i, j, inv_i, inv_j, w, d2b)``
        — its constraint indices and atoms, the atoms' inverse masses as
        columns, ``w = inv_i + inv_j`` and its squared lengths; ``b`` is
        None for a batch that is every constraint in order (the one batch
        of an X–H-only protein), whose per-call slices are then the
        whole arrays.
        """
        all_i = np.ascontiguousarray(self.shake_idx[:, 0])
        all_j = np.ascontiguousarray(self.shake_idx[:, 1])
        inv = self.inv_mass
        d2 = self.shake_dist**2
        whole = len(self.batches) == 1
        batches = []
        for b in self.batches:
            i, j = all_i[b], all_j[b]
            batches.append((None if whole else b, i, j, inv[i][:, None], inv[j][:, None],
                            inv[i] + inv[j], d2[b]))
        return all_i, all_j, d2, batches

    # -- compiled-tier support -------------------------------------------

    def _settle_arrays(self):
        """The waters, their SETTLE rows and the box lengths, C-contiguous."""
        lengths = np.ascontiguousarray(self.box.lengths, dtype=np.float64)
        return self.waters, self._settle_par, lengths

    # -- solves ------------------------------------------------------------

    def shake(
        self, positions: np.ndarray, reference: np.ndarray, tol: float = 1e-10
    ) -> np.ndarray:
        """Project ``positions`` onto the constraint manifold (in place).

        ``reference`` supplies the pre-drift constraint directions, as
        in classic SHAKE; ``tol`` bounds the swept constraints' residual
        (the waters are exact).
        """
        return self.shake_blocks(self.kernels, positions, reference, tol, 1, len(positions))

    def rattle(self, velocities: np.ndarray, positions: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Remove velocity components along constraints (in place)."""
        return self.rattle_blocks(self.kernels, velocities, positions, tol, 1, len(velocities))

    def shake_blocks(self, kernels, positions, reference, tol, nrep, natoms):
        """:meth:`shake` of ``nrep`` stacked blocks of ``natoms`` on ``kernels``.

        The waters and the swept constraints share no atom, so the two
        solves are independent.
        """
        if len(self.waters):
            kernels.settle_batch(self, "positions", positions, reference, nrep, natoms)
        if len(self.shake_idx):
            kernels.shake_batch(self, positions, reference, tol, nrep, natoms)
        return positions

    def rattle_blocks(self, kernels, velocities, positions, tol, nrep, natoms):
        """:meth:`rattle` of ``nrep`` stacked blocks of ``natoms`` on ``kernels``."""
        if len(self.waters):
            kernels.settle_batch(self, "velocities", velocities, positions, nrep, natoms)
        if len(self.shake_idx):
            kernels.rattle_batch(self, velocities, positions, tol, nrep, natoms)
        return velocities

    def _settle_numpy(self, stage: str, out: np.ndarray, src: np.ndarray) -> int:
        """One block's SETTLE; the first degenerate molecule, or -1."""
        solve = _settle_positions if stage == "positions" else _settle_velocities
        ok = solve(out, src, self.waters, self._settle_par, self.box)
        bad = np.flatnonzero(~ok)
        return int(bad[0]) if len(bad) else -1

    def _shake_numpy(
        self, positions: np.ndarray, reference: np.ndarray, tol: float = 1e-10
    ) -> np.ndarray:
        if not len(self.shake_idx):
            return positions
        all_i, all_j, d2, batches = self._sweep
        dref = self.box.minimum_image(reference[all_i] - reference[all_j])
        drefs = [dref if b is None else dref[b] for b, *_ in batches]
        for _ in range(self.iterations):
            dx = self.box.minimum_image(positions[all_i] - positions[all_j])
            res = np.sum(dx * dx, axis=1) - d2
            if np.max(np.abs(res)) < tol:
                break
            for k, (b, i, j, inv_i, inv_j, w, d2b) in enumerate(batches):
                if k == 0:
                    # Nothing has moved since the convergence test: its
                    # images and residuals are this batch's.
                    dxb, diff = (dx, res) if b is None else (dx[b], res[b])
                else:
                    dxb = self.box.minimum_image(positions[i] - positions[j])
                    diff = np.sum(dxb * dxb, axis=1) - d2b
                denom = 2.0 * w * np.sum(dxb * drefs[k], axis=1)
                # Guard the (unphysical at MD step sizes) perpendicular-
                # drift singularity.
                denom = np.where(np.abs(denom) < 1e-12, 1e-12, denom)
                g = diff / denom
                corr = g[:, None] * drefs[k]
                positions[i] -= inv_i * corr
                positions[j] += inv_j * corr
        return positions

    def _rattle_numpy(
        self, velocities: np.ndarray, positions: np.ndarray, tol: float = 1e-12
    ) -> np.ndarray:
        if not len(self.shake_idx):
            return velocities
        all_i, all_j, _, batches = self._sweep
        dx_all = self.box.minimum_image(positions[all_i] - positions[all_j])
        d2_all = np.sum(dx_all * dx_all, axis=1)
        dxs = [dx_all if b is None else dx_all[b] for b, *_ in batches]
        dens = [w * (d2_all if b is None else d2_all[b]) for b, _, _, _, _, w, _ in batches]
        for _ in range(self.iterations):
            rv_all = np.sum(dx_all * (velocities[all_i] - velocities[all_j]), axis=1)
            if np.max(np.abs(rv_all)) < tol:
                break
            for k, (b, i, j, inv_i, inv_j, _, _) in enumerate(batches):
                if k == 0:
                    # Velocities unchanged since the convergence test.
                    rv = rv_all if b is None else rv_all[b]
                else:
                    rv = np.sum(dxs[k] * (velocities[i] - velocities[j]), axis=1)
                corr = (rv / dens[k])[:, None] * dxs[k]
                velocities[i] -= inv_i * corr
                velocities[j] += inv_j * corr
        return velocities

    def max_residual(self, positions: np.ndarray) -> float:
        """Largest |r² - d²| over all constraints (diagnostic)."""
        if not self.n_constraints:
            return 0.0
        i, j = self.idx[:, 0], self.idx[:, 1]
        dx = self.box.minimum_image(positions[i] - positions[j])
        return float(np.max(np.abs(np.sum(dx * dx, axis=1) - self.dist**2)))
