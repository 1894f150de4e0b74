"""Molecular topology: the static term lists of a force field.

A :class:`Topology` collects everything that is fixed for the lifetime
of a simulation — bond/angle/dihedral terms, distance constraints,
virtual sites, exclusions — mirroring the paper's observation that
"each bonded force term (bond term) is specified prior to the
simulation as a small set of atoms along with parameters governing
their interaction" (Section 3.2.3).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Topology"]


def _as_array(rows: list, dtype, width: int | None = None) -> np.ndarray:
    if not rows:
        shape = (0,) if width is None else (0, width)
        return np.empty(shape, dtype=dtype)
    return np.asarray(rows, dtype=dtype)


class Topology:
    """Mutable builder for per-term arrays, frozen by :meth:`compile`.

    Indices refer to atoms of the owning system.  Energies use the
    conventions:

    * bond:      ``E = k (r - r0)^2``
    * angle:     ``E = k (theta - theta0)^2``
    * dihedral:  ``E = k (1 + cos(n*phi - delta))``
    """

    def __init__(self, n_atoms: int):
        self.n_atoms = int(n_atoms)
        self._bonds: list[tuple[int, int, float, float]] = []
        self._angles: list[tuple[int, int, int, float, float]] = []
        self._dihedrals: list[tuple[int, int, int, int, float, int, float]] = []
        self._constraints: list[tuple[int, int, float]] = []
        self._vsites: list[tuple[int, int, int, int, float]] = []
        self._extra_exclusions: list[tuple[int, int]] = []
        self.compiled = False
        # Derived from the frozen term lists on first use; every
        # builder method refuses a compiled topology, so nothing can
        # invalidate them afterwards.
        self._groups: list[np.ndarray] | None = None
        self._group_members: tuple[np.ndarray, np.ndarray] | None = None

    # -- building --------------------------------------------------------

    def _check(self, *idx: int) -> None:
        if self.compiled:
            raise RuntimeError("topology already compiled")
        for i in idx:
            if not 0 <= i < self.n_atoms:
                raise IndexError(f"atom index {i} out of range [0, {self.n_atoms})")
        if len(set(idx)) != len(idx):
            raise ValueError(f"repeated atom index in term {idx}")

    def add_bond(self, i: int, j: int, k: float, r0: float) -> None:
        """Harmonic bond between atoms i and j."""
        self._check(i, j)
        self._bonds.append((i, j, float(k), float(r0)))

    def add_angle(self, i: int, j: int, k: int, k_theta: float, theta0: float) -> None:
        """Harmonic angle i-j-k with j the central atom; theta0 in radians."""
        self._check(i, j, k)
        self._angles.append((i, j, k, float(k_theta), float(theta0)))

    def add_dihedral(
        self, i: int, j: int, k: int, l: int, k_phi: float, n: int, delta: float
    ) -> None:
        """Periodic torsion i-j-k-l; delta in radians, n the periodicity."""
        self._check(i, j, k, l)
        self._dihedrals.append((i, j, k, l, float(k_phi), int(n), float(delta)))

    def add_constraint(self, i: int, j: int, distance: float) -> None:
        """Rigid distance constraint (bond to hydrogen, rigid water edge)."""
        self._check(i, j)
        self._constraints.append((i, j, float(distance)))

    def add_virtual_site(self, site: int, parent: int, ref1: int, ref2: int, weight: float) -> None:
        """Linear 3-point virtual site (TIP4P-Ew M site).

        ``r_site = r_parent + weight * (r_ref1 - r_parent) + weight * (r_ref2 - r_parent)``;
        forces on the massless site redistribute linearly to the three
        parents.
        """
        self._check(site, parent, ref1, ref2)
        self._vsites.append((site, parent, ref1, ref2, float(weight)))

    def add_exclusion(self, i: int, j: int) -> None:
        """Force a nonbonded exclusion not implied by connectivity."""
        self._check(i, j)
        self._extra_exclusions.append((i, j))

    def merge(self, other: "Topology", offset: int) -> None:
        """Append another topology's terms with atom indices shifted."""
        if self.compiled:
            raise RuntimeError("topology already compiled")
        if offset + other.n_atoms > self.n_atoms:
            raise ValueError("merged topology exceeds atom count")
        for i, j, k, r0 in other._bonds:
            self._bonds.append((i + offset, j + offset, k, r0))
        for i, j, kk, kt, t0 in other._angles:
            self._angles.append((i + offset, j + offset, kk + offset, kt, t0))
        for i, j, kk, l, kp, n, d in other._dihedrals:
            self._dihedrals.append((i + offset, j + offset, kk + offset, l + offset, kp, n, d))
        for i, j, dist in other._constraints:
            self._constraints.append((i + offset, j + offset, dist))
        for s, p, r1, r2, w in other._vsites:
            self._vsites.append((s + offset, p + offset, r1 + offset, r2 + offset, w))
        for i, j in other._extra_exclusions:
            self._extra_exclusions.append((i + offset, j + offset))

    # -- compiled views ----------------------------------------------------

    def compile(self) -> "Topology":
        """Freeze term lists into ndarrays (idempotent)."""
        if self.compiled:
            return self
        b = self._bonds
        self.bond_idx = _as_array([(i, j) for i, j, *_ in b], np.int64, 2)
        self.bond_k = _as_array([k for *_ij, k, _r in b], np.float64)
        self.bond_r0 = _as_array([r for *_ij, _k, r in b], np.float64)
        a = self._angles
        self.angle_idx = _as_array([(i, j, k) for i, j, k, *_ in a], np.int64, 3)
        self.angle_k = _as_array([kt for *_i, kt, _t in a], np.float64)
        self.angle_theta0 = _as_array([t0 for *_i, _kt, t0 in a], np.float64)
        d = self._dihedrals
        self.dihedral_idx = _as_array([(i, j, k, l) for i, j, k, l, *_ in d], np.int64, 4)
        self.dihedral_k = _as_array([kp for *_i, kp, _n, _dl in d], np.float64)
        self.dihedral_n = _as_array([n for *_i, _kp, n, _dl in d], np.int64)
        self.dihedral_delta = _as_array([dl for *_i, _kp, _n, dl in d], np.float64)
        c = self._constraints
        self.constraint_idx = _as_array([(i, j) for i, j, _ in c], np.int64, 2)
        self.constraint_dist = _as_array([dist for *_ij, dist in c], np.float64)
        v = self._vsites
        self.vsite_idx = _as_array([(s, p, r1, r2) for s, p, r1, r2, _ in v], np.int64, 4)
        self.vsite_weight = _as_array([w for *_i, w in v], np.float64)
        self.extra_exclusions = _as_array(self._extra_exclusions, np.int64, 2)
        self.compiled = True
        return self

    # -- derived -----------------------------------------------------------

    @property
    def n_bond_terms(self) -> int:
        self.compile()
        return len(self.bond_idx)

    @property
    def n_constraints(self) -> int:
        self.compile()
        return len(self.constraint_idx)

    def bonded_graph_edges(self) -> np.ndarray:
        """Edges of the covalent graph: bonds plus constrained pairs.

        Constraints replace bonds (e.g. rigid water has no bond terms,
        exactly as the paper notes water needs no bond-term work), so
        exclusions must treat constrained pairs as bonded.
        """
        self.compile()
        parts = [self.bond_idx, self.constraint_idx]
        # A virtual site is "bonded" to its parent for exclusion purposes.
        if len(self.vsite_idx):
            parts.append(self.vsite_idx[:, :2])
        edges = np.concatenate([p for p in parts if len(p)], axis=0) if any(len(p) for p in parts) else np.empty((0, 2), np.int64)
        return edges

    def constraint_groups(self) -> list[np.ndarray]:
        """Connected components of the constraint graph (Section 3.2.4).

        Each group must be integrated on a single node; virtual sites
        ride along with their parent group.  Computed once per compiled
        topology; the arrays are shared between callers and read-only.
        """
        if self._groups is not None:
            return self._groups
        self.compile()
        parent = np.arange(self.n_atoms)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for i, j in self.constraint_idx:
            union(int(i), int(j))
        for s, p, _r1, _r2 in self.vsite_idx:
            union(int(s), int(p))
        roots: dict[int, list[int]] = {}
        involved = set(self.constraint_idx.ravel().tolist()) | set(self.vsite_idx[:, 0].tolist()) | set(self.vsite_idx[:, 1].tolist())
        for atom in involved:
            roots.setdefault(find(int(atom)), []).append(int(atom))
        self._groups = [np.array(sorted(v), dtype=np.int64) for _k, v in sorted(roots.items())]
        for group in self._groups:
            group.setflags(write=False)
        return self._groups

    def constraint_group_members(self) -> tuple[np.ndarray, np.ndarray]:
        """The groups flattened: ``(member, leader)`` index arrays, one
        entry per grouped atom, ``leader`` its group's first atom — so
        per-group work is one fancy-index instead of a Python loop.
        """
        if self._group_members is None:
            groups = self.constraint_groups()
            member = np.concatenate(groups) if groups else np.empty(0, np.int64)
            leader = np.repeat(
                np.array([g[0] for g in groups], dtype=np.int64),
                [len(g) for g in groups],
            )
            member.setflags(write=False)
            leader.setflags(write=False)
            self._group_members = (member, leader)
        return self._group_members
