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


#: The term store's kinds: atoms per term, then the parameter dtypes in
#: the order the compiled arrays are named (``bond_k``, ``bond_r0``, ...).
#: A ``vsite`` is a linear 3-point virtual site (TIP4P-Ew's M) with atoms
#: ``(site, parent, ref1, ref2)`` and weight ``w``:
#: ``r_site = r_parent + w (r_ref1 - r_parent) + w (r_ref2 - r_parent)``,
#: and the massless site's force goes back to the three along the same
#: map.  An ``exclusion`` is a nonbonded exclusion that connectivity does
#: not imply.  Only blocks add those two (:meth:`Topology.add_terms`).
_KINDS = {
    "bond": (2, (np.float64, np.float64)),
    "angle": (3, (np.float64, np.float64)),
    "dihedral": (4, (np.float64, np.int64, np.float64)),
    "constraint": (2, (np.float64,)),
    "vsite": (4, (np.float64,)),
    "exclusion": (2, ()),
}


class Topology:
    """Mutable builder for per-term arrays, frozen by :meth:`compile`.

    Indices refer to atoms of the owning system.  Energies use the
    conventions:

    * bond:      ``E = k (r - r0)^2``
    * angle:     ``E = k (theta - theta0)^2``
    * dihedral:  ``E = k (1 + cos(n*phi - delta))``

    One term store holds every kind: single terms (``add_bond``, ...)
    queue as rows, blocks (:meth:`add_terms`, :meth:`merge`) as arrays,
    and :meth:`compile` concatenates each kind in the order it was added.
    """

    def __init__(self, n_atoms: int):
        self.n_atoms = int(n_atoms)
        # Per kind: array blocks ``(atoms, *params)``, and the single
        # rows ``(*atoms, *params)`` added since the last block.
        self._blocks: dict[str, list[tuple[np.ndarray, ...]]] = {k: [] for k in _KINDS}
        self._rows: dict[str, list[tuple]] = {k: [] for k in _KINDS}
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
        self._rows["bond"].append((i, j, float(k), float(r0)))

    def add_angle(self, i: int, j: int, k: int, k_theta: float, theta0: float) -> None:
        """Harmonic angle i-j-k with j the central atom; theta0 in radians."""
        self._check(i, j, k)
        self._rows["angle"].append((i, j, k, float(k_theta), float(theta0)))

    def add_dihedral(
        self, i: int, j: int, k: int, l: int, k_phi: float, n: int, delta: float
    ) -> None:
        """Periodic torsion i-j-k-l; delta in radians, n the periodicity."""
        self._check(i, j, k, l)
        self._rows["dihedral"].append((i, j, k, l, float(k_phi), int(n), float(delta)))

    def add_constraint(self, i: int, j: int, distance: float) -> None:
        """Rigid distance constraint (bond to hydrogen, rigid water edge)."""
        self._check(i, j)
        self._rows["constraint"].append((i, j, float(distance)))

    def add_terms(self, kind: str, atoms, *params) -> None:
        """Append a block of ``kind`` terms (a key of ``_KINDS``).

        ``atoms`` is ``(m, width)``; each parameter an ``(m,)`` array, in
        the kind's order (``_KINDS``).  Every term is checked as
        :meth:`add_bond` and the other single-term methods check theirs.
        """
        if self.compiled:
            raise RuntimeError("topology already compiled")
        width, dtypes = _KINDS[kind]
        atoms = np.array(atoms, dtype=np.int64).reshape(-1, width)
        if len(atoms):
            if atoms.min() < 0 or atoms.max() >= self.n_atoms:
                raise IndexError(f"atom index out of range [0, {self.n_atoms})")
            ordered = np.sort(atoms, axis=1)
            if np.any(ordered[:, 1:] == ordered[:, :-1]):
                raise ValueError("repeated atom index in a term")
        params = tuple(np.array(p, dtype=dt) for p, dt in zip(params, dtypes, strict=True))
        if any(p.shape != (len(atoms),) for p in params):
            raise ValueError("parameter arrays must have one entry per term")
        self._flush(kind)
        self._blocks[kind].append((atoms, *params))

    def merge(self, other: "Topology", offset: int) -> None:
        """Append another topology's terms with atom indices shifted."""
        if self.compiled:
            raise RuntimeError("topology already compiled")
        if offset + other.n_atoms > self.n_atoms:
            raise ValueError("merged topology exceeds atom count")
        for kind in _KINDS:
            atoms, *params = other._arrays(kind)
            self.add_terms(kind, atoms + offset, *params)

    def _flush(self, kind: str) -> None:
        """Turn the kind's queued single rows into one block."""
        rows = self._rows[kind]
        if not rows:
            return
        width, dtypes = _KINDS[kind]
        columns = list(zip(*rows))
        atoms = np.array(columns[:width], dtype=np.int64).T.copy()
        params = (np.array(col, dtype=dt) for col, dt in zip(columns[width:], dtypes))
        self._blocks[kind].append((atoms, *params))
        self._rows[kind] = []

    def _arrays(self, kind: str) -> tuple[np.ndarray, ...]:
        """The kind's terms so far as ``(atoms, *params)``, one block."""
        self._flush(kind)
        blocks = self._blocks[kind]
        width, dtypes = _KINDS[kind]
        if not blocks:
            blocks.append((np.empty((0, width), np.int64), *(np.empty(0, dt) for dt in dtypes)))
        elif len(blocks) > 1:
            blocks[:] = [tuple(np.concatenate(col) for col in zip(*blocks))]
        return blocks[0]

    # -- compiled views ----------------------------------------------------

    def compile(self) -> "Topology":
        """Freeze term lists into ndarrays (idempotent)."""
        if self.compiled:
            return self
        self.bond_idx, self.bond_k, self.bond_r0 = self._arrays("bond")
        self.angle_idx, self.angle_k, self.angle_theta0 = self._arrays("angle")
        (self.dihedral_idx, self.dihedral_k, self.dihedral_n,
         self.dihedral_delta) = self._arrays("dihedral")
        self.constraint_idx, self.constraint_dist = self._arrays("constraint")
        self.vsite_idx, self.vsite_weight = self._arrays("vsite")
        (self.extra_exclusions,) = self._arrays("exclusion")
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
        if self._groups is None:
            member, leader = self.constraint_group_members()
            cuts = np.flatnonzero(leader[1:] != leader[:-1]) + 1
            self._groups = np.split(member, cuts) if len(member) else []
        return self._groups

    def constraint_group_members(self) -> tuple[np.ndarray, np.ndarray]:
        """The groups flattened: ``(member, leader)`` index arrays, one
        entry per grouped atom, ``leader`` its group's first atom — so
        per-group work is one fancy-index instead of a Python loop.

        Groups are ordered by the root union-find leaves them
        (:func:`_union_roots` over the constraints, then each virtual
        site's link to its parent, in term order), members ascending.
        """
        if self._group_members is None:
            self.compile()
            x = np.concatenate([self.constraint_idx[:, 0], self.vsite_idx[:, 0]])
            y = np.concatenate([self.constraint_idx[:, 1], self.vsite_idx[:, 1]])
            atoms = np.unique(np.concatenate([x, y]))
            root = _union_roots(self.n_atoms, x, y)[atoms]
            order = np.lexsort((atoms, root))
            member, root = atoms[order], root[order]
            first = np.ones(len(member), dtype=bool)
            first[1:] = root[1:] != root[:-1]
            leader = member[first][np.cumsum(first) - 1]
            member.setflags(write=False)
            leader.setflags(write=False)
            self._group_members = (member, leader)
        return self._group_members


def _union_roots(n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every atom's root after union-find links ``x[k]``'s root under
    ``y[k]``'s (``parent[find(x)] = find(y)``) for k in order.

    Links in different components commute, so round s makes the s-th
    link of every component at once: as many rounds as the largest
    component has links (three for a TIP3P water, four for TIP4P-Ew).
    The components come first, by hooking each link's larger label
    under its smaller one until every link's labels agree.
    """
    label = np.arange(n)
    while not np.array_equal(a := label[x], b := label[y]):
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := label[label], label):
            label = up
    m = len(x)
    order = np.argsort(label[x], kind="stable")
    comp = label[x][order]
    first = np.ones(m, dtype=bool)
    first[1:] = comp[1:] != comp[:-1]
    rank = np.arange(m) - np.maximum.accumulate(np.where(first, np.arange(m), 0))
    parent = np.arange(n)
    for s in range(int(rank.max()) + 1 if m else 0):
        k = order[rank == s]
        rx, ry = parent[x[k]], parent[y[k]]
        link = rx != ry
        parent[rx[link]] = ry[link]
        # Every atom pointed at its root; a hooked root's now two up.
        parent = parent[parent]
    return parent
