"""The per-item set-up forms, kept as the oracles of the array forms.

A system's static structures used to be derived one molecule, term or
atom at a time in Python; ``src/`` now derives each in array passes
(DESIGN.md, "Set-up").  The loops are kept here, unchanged, and
``tests/test_setup_oracle.py`` requires every array form to give their
bytes:

* :func:`water_fragment` — one QR rotation and one
  :func:`add_water` per molecule (``systems.builder._water_fragment``);
* :class:`LoopTopology` — per-term Python lists, a per-term ``merge``
  and union-find ``constraint_groups`` (``forcefield.Topology``);
* :func:`build_exclusions` — the adjacency-set walk
  (``forcefield.build_exclusions``);
* :func:`rigid_waters` — the constraint scan
  (``core.constraints._rigid_waters``).

It shares no code with the forms it checks beyond the builders' own
inputs (``water_site_positions``, ``peptide._random_rotation``, ...).
"""

import numpy as np

from repro.forcefield import water_charges, water_masses, water_site_positions
from repro.systems.peptide import _random_rotation
from repro.systems.types import WATER_H, WATER_M, WATER_O


def _as_array(rows: list, dtype, width: int | None = None) -> np.ndarray:
    if not rows:
        shape = (0,) if width is None else (0, width)
        return np.empty(shape, dtype=dtype)
    return np.asarray(rows, dtype=dtype)


class LoopTopology:
    """The list-based topology: a drop-in for ``forcefield.Topology``
    wherever a builder constructs one."""

    def __init__(self, n_atoms: int):
        self.n_atoms = int(n_atoms)
        self._bonds = []
        self._angles = []
        self._dihedrals = []
        self._constraints = []
        self._vsites = []
        self._extra_exclusions = []
        self.compiled = False

    def _check(self, *idx: int) -> None:
        if self.compiled:
            raise RuntimeError("topology already compiled")
        for i in idx:
            if not 0 <= i < self.n_atoms:
                raise IndexError(f"atom index {i} out of range [0, {self.n_atoms})")
        if len(set(idx)) != len(idx):
            raise ValueError(f"repeated atom index in term {idx}")

    def add_bond(self, i, j, k, r0):
        self._check(i, j)
        self._bonds.append((i, j, float(k), float(r0)))

    def add_angle(self, i, j, k, k_theta, theta0):
        self._check(i, j, k)
        self._angles.append((i, j, k, float(k_theta), float(theta0)))

    def add_dihedral(self, i, j, k, l, k_phi, n, delta):
        self._check(i, j, k, l)
        self._dihedrals.append((i, j, k, l, float(k_phi), int(n), float(delta)))

    def add_constraint(self, i, j, distance):
        self._check(i, j)
        self._constraints.append((i, j, float(distance)))

    def add_virtual_site(self, site, parent, ref1, ref2, weight):
        self._check(site, parent, ref1, ref2)
        self._vsites.append((site, parent, ref1, ref2, float(weight)))

    def add_exclusion(self, i, j):
        self._check(i, j)
        self._extra_exclusions.append((i, j))

    def merge(self, other, offset):
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

    def compile(self):
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

    @property
    def n_constraints(self) -> int:
        self.compile()
        return len(self.constraint_idx)

    def bonded_graph_edges(self):
        self.compile()
        parts = [self.bond_idx, self.constraint_idx]
        if len(self.vsite_idx):
            parts.append(self.vsite_idx[:, :2])
        if any(len(p) for p in parts):
            return np.concatenate([p for p in parts if len(p)], axis=0)
        return np.empty((0, 2), np.int64)


#: The compiled arrays a topology exposes, in one order.
COMPILED = (
    "bond_idx", "bond_k", "bond_r0", "angle_idx", "angle_k", "angle_theta0",
    "dihedral_idx", "dihedral_k", "dihedral_n", "dihedral_delta",
    "constraint_idx", "constraint_dist", "vsite_idx", "vsite_weight", "extra_exclusions",
)


def constraint_groups(top) -> list[np.ndarray]:
    """Union-find over the constraints, then each site-parent link."""
    top.compile()
    parent = np.arange(top.n_atoms)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for i, j in top.constraint_idx:
        union(int(i), int(j))
    for s, p, _r1, _r2 in top.vsite_idx:
        union(int(s), int(p))
    roots: dict[int, list[int]] = {}
    involved = (set(top.constraint_idx.ravel().tolist()) | set(top.vsite_idx[:, 0].tolist())
                | set(top.vsite_idx[:, 1].tolist()))
    for atom in involved:
        roots.setdefault(find(int(atom)), []).append(int(atom))
    return [np.array(sorted(v), dtype=np.int64) for _k, v in sorted(roots.items())]


def add_water(top, first_atom: int, model) -> None:
    """One water molecule's constraints / site / exclusions, term by term."""
    o, h1, h2 = first_atom, first_atom + 1, first_atom + 2
    top.add_constraint(o, h1, model.r_oh)
    top.add_constraint(o, h2, model.r_oh)
    top.add_constraint(h1, h2, model.r_hh)
    if model.four_site:
        m = first_atom + 3
        top.add_virtual_site(m, o, h1, h2, model.vsite_weight)
        top.add_exclusion(m, h1)
        top.add_exclusion(m, h2)


def water_fragment(o_positions, model, rng):
    """Sites and a :class:`LoopTopology`, one molecule at a time."""
    n = len(o_positions)
    spm = model.sites_per_molecule
    local = water_site_positions(model)
    types1 = [WATER_O, WATER_H, WATER_H] + ([WATER_M] if model.four_site else [])
    positions = np.empty((n * spm, 3))
    for i in range(n):
        rot = _random_rotation(rng)
        positions[i * spm : (i + 1) * spm] = o_positions[i] + local @ rot.T
    top = LoopTopology(n * spm)
    for i in range(n):
        add_water(top, i * spm, model)
    return (
        positions,
        np.tile(water_charges(model), n),
        np.tile(water_masses(model), n),
        np.tile(np.array(types1, dtype=np.int64), n),
        top,
    )


def build_exclusions(top) -> tuple[np.ndarray, np.ndarray]:
    """``(excluded, pair14)``, sorted ``(m, 2)`` arrays, by adjacency sets."""
    top.compile()
    n = top.n_atoms
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in top.bonded_graph_edges():
        adj[int(i)].add(int(j))
        adj[int(j)].add(int(i))

    excluded: set[tuple[int, int]] = set()
    pair14: set[tuple[int, int]] = set()

    def canon(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    for a in range(n):
        for b in adj[a]:
            if b > a:
                excluded.add((a, b))
        for b in adj[a]:
            for c in adj[b]:
                if c != a:
                    excluded.add(canon(a, c))
        for b in adj[a]:
            for c in adj[b]:
                if c == a:
                    continue
                for d in adj[c]:
                    if d != a and d != b:
                        pair14.add(canon(a, d))
    for i, j in top.extra_exclusions:
        excluded.add(canon(int(i), int(j)))
    pair14 -= excluded
    pair14 = {p for p in pair14 if p[0] != p[1]}
    return (
        np.array(sorted(excluded), dtype=np.int64).reshape(-1, 2),
        np.array(sorted(pair14), dtype=np.int64).reshape(-1, 2),
    )


def rigid_waters(idx, dist, masses):
    """``(waters, lengths, rest)`` by one scan over the constraints."""
    by_atom: dict[int, list[int]] = {}
    pairs = idx.tolist()
    for c, (i, j) in enumerate(pairs):
        by_atom.setdefault(i, []).append(c)
        by_atom.setdefault(j, []).append(c)

    def other(atom, c):
        i, j = pairs[c]
        return j if i == atom else i

    waters, lengths, used = [], [], set()
    for c, (i, j) in enumerate(pairs):
        if c in used or len(by_atom[i]) != 2 or len(by_atom[j]) != 2:
            continue
        ci = next(k for k in by_atom[i] if k != c)
        cj = next(k for k in by_atom[j] if k != c)
        k = other(i, ci)
        if k in (i, j) or other(j, cj) != k or len(by_atom[k]) != 2:
            continue
        for o in (i, j, k):
            c1, c2 = by_atom[o]
            h1, h2 = other(o, c1), other(o, c2)
            hh = ({ci, cj, c} - {c1, c2}).pop()
            if (
                dist[c1] == dist[c2]
                and masses[h1] == masses[h2]
                and masses[o] > 0
                and masses[h1] > 0
                and dist[hh] < 2.0 * dist[c1]
            ):
                waters.append((o, h1, h2))
                lengths.append((dist[c1], dist[hh]))
                used.update((c, ci, cj))
                break
    rest = np.array([c for c in range(len(pairs)) if c not in used], dtype=np.int64)
    return (
        np.array(waters, dtype=np.int64).reshape(-1, 3),
        np.array(lengths, dtype=np.float64).reshape(-1, 2),
        rest,
    )
