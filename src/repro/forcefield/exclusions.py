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
    """Derive exclusions from the covalent graph of ``top``.

    Array joins over the graph's directed edges: 1-2 pairs are the edges,
    1-3 pairs the ends of two-edge paths ``a-b-c`` (``c != a``), 1-4
    pairs the ends of three-edge paths ``a-b-c-d`` (``d != a``) that are
    not excluded.  Every pair is keyed ``lo * n + hi``, so ``np.unique``
    sorts them as ``(lo, hi)`` tuples sort.
    """
    top.compile()
    n = top.n_atoms
    edges = top.bonded_graph_edges()
    src, dst = np.divmod(np.unique(_directed_keys(edges, n)), n)
    row = np.searchsorted(src, np.arange(n + 1))

    def extend(path_end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each path's steps along one more edge: (path index, next atom)."""
        deg = row[path_end + 1] - row[path_end]
        path = np.repeat(np.arange(len(path_end)), deg)
        first = np.cumsum(deg) - deg
        return path, dst[row[path_end][path] + np.arange(len(path)) - first[path]]

    p, c = extend(dst)  # a-b-c
    keep = c != src[p]
    a3, c3 = src[p][keep], c[keep]
    p, d = extend(c3)  # a-b-c-d; d == b makes a 1-2 pair, which the subtraction drops
    keep = d != a3[p]
    extra = top.extra_exclusions
    excluded_keys = np.unique(np.concatenate([
        _pair_keys(src, dst, n),
        _pair_keys(a3, c3, n),
        _pair_keys(extra[:, 0], extra[:, 1], n),
    ]))
    # A pair that is both 1-3 (through one path) and 1-4 (through
    # another, e.g. in rings) is excluded, not scaled.
    pair14_keys = np.setdiff1d(_pair_keys(a3[p][keep], d[keep], n), excluded_keys)
    return ExclusionTable(
        n_atoms=n,
        excluded=np.stack(np.divmod(excluded_keys, n), axis=1),
        pair14=np.stack(np.divmod(pair14_keys, n), axis=1),
        lj_scale14=LJ_SCALE14,
        coul_scale14=COUL_SCALE14,
        _excluded_keys=excluded_keys,
        _pair14_keys=pair14_keys,
    )


def _directed_keys(edges: np.ndarray, n: int) -> np.ndarray:
    """Both directions of every edge, keyed ``src * n + dst``."""
    i, j = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
    return np.concatenate([i * n + j, j * n + i])
