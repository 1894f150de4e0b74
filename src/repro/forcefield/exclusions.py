"""Nonbonded exclusions and 1-4 scaling.

"In most force fields, the electrostatic and van der Waals forces
between pairs of atoms separated by one to three covalent bonds are
eliminated or scaled down" (Section 3.1).  This module derives the
1-2/1-3 exclusion set and the scaled 1-4 pair list from a topology's
covalent graph (bonds, constraints, and virtual-site attachments all
count as edges), and provides fast membership filtering for pair lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.forcefield.topology import Topology

__all__ = ["ExclusionTable", "build_exclusions"]


def _pair_keys(i: np.ndarray, j: np.ndarray, n_atoms: int) -> np.ndarray:
    lo = np.minimum(i, j).astype(np.int64)
    hi = np.maximum(i, j).astype(np.int64)
    return lo * np.int64(n_atoms) + hi


@dataclass(frozen=True)
class ExclusionTable:
    """Compiled exclusion data for one system.

    ``excluded`` contains 1-2 and 1-3 pairs (plus explicit extras);
    ``pair14`` the 1-4 pairs, which receive scaled interactions.  Both
    are (m, 2) with i < j, deduplicated and sorted.
    """

    n_atoms: int
    excluded: np.ndarray
    pair14: np.ndarray
    lj_scale14: float
    coul_scale14: float
    _excluded_keys: np.ndarray
    _pair14_keys: np.ndarray

    @property
    def n_excluded(self) -> int:
        return len(self.excluded)

    @property
    def n_pair14(self) -> int:
        return len(self.pair14)

    def is_excluded(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """True for pairs that must be skipped in the real-space sum.

        Both hard exclusions and 1-4 pairs are skipped there; 1-4
        interactions are added back, scaled, by the correction-force
        path (as on Anton's correction pipeline).
        """
        keys = _pair_keys(np.asarray(i), np.asarray(j), self.n_atoms)
        out = np.zeros(keys.shape, dtype=bool)
        for table in (self._excluded_keys, self._pair14_keys):
            if len(table):
                pos = np.searchsorted(table, keys)
                pos = np.minimum(pos, len(table) - 1)
                out |= table[pos] == keys
        return out


#: The 1-4 scales: the AMBER conventions (the paper's gpW, DHFR and
#: BPTI simulations used AMBER99SB).
LJ_SCALE14 = 0.5
COUL_SCALE14 = 1.0 / 1.2


def build_exclusions(top: Topology) -> ExclusionTable:
    """Derive exclusions from the covalent graph of ``top``."""
    top.compile()
    n = top.n_atoms
    edges = top.bonded_graph_edges()
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        adj[int(i)].add(int(j))
        adj[int(j)].add(int(i))

    excluded: set[tuple[int, int]] = set()
    pair14: set[tuple[int, int]] = set()

    def canon(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    for a in range(n):
        for b in adj[a]:  # 1-2
            if b > a:
                excluded.add((a, b))
        for b in adj[a]:  # 1-3 via b
            for c in adj[b]:
                if c != a:
                    excluded.add(canon(a, c))
        for b in adj[a]:  # 1-4 via b-c
            for c in adj[b]:
                if c == a:
                    continue
                for d in adj[c]:
                    if d != a and d != b:
                        pair14.add(canon(a, d))
    # Explicit extras are hard exclusions.
    for i, j in top.extra_exclusions:
        excluded.add(canon(int(i), int(j)))
    # A pair that is both 1-3 (through one path) and 1-4 (through
    # another, e.g. in rings) is excluded, not scaled.
    pair14 -= excluded
    pair14 = {p for p in pair14 if p[0] != p[1]}

    excluded_arr = np.array(sorted(excluded), dtype=np.int64).reshape(-1, 2)
    pair14_arr = np.array(sorted(pair14), dtype=np.int64).reshape(-1, 2)
    return ExclusionTable(
        n_atoms=n,
        excluded=excluded_arr,
        pair14=pair14_arr,
        lj_scale14=LJ_SCALE14,
        coul_scale14=COUL_SCALE14,
        _excluded_keys=_pair_keys(excluded_arr[:, 0], excluded_arr[:, 1], n) if len(excluded_arr) else np.empty(0, np.int64),
        _pair14_keys=_pair_keys(pair14_arr[:, 0], pair14_arr[:, 1], n) if len(pair14_arr) else np.empty(0, np.int64),
    )
