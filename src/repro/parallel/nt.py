"""The NT method: neutral-territory parallelization of range-limited
pairwise interactions (Shaw 2005; paper Section 3.2.1, Figure 3,
Table 3).

Each node computes interactions between atoms in a *tower* (its home
column of boxes, extended by the cutoff up and down) and atoms in a
*plate* (a half-slab at its home z, extended by the cutoff in x-y).
The plate's asymmetry reflects computing each pair exactly once; the
interaction between two atoms is often computed by a node on which
*neither* resides — the "neutral territory".

This module provides the pair->node assignment rule (exactly-once by
construction, with deterministic tie-breaking for degenerate torus
wraps), the tower/plate import-region box sets, and a Monte-Carlo
match-efficiency estimator reproducing Table 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.parallel.decomposition import SpatialDecomposition

__all__ = [
    "NTAssignment",
    "nt_assign_pairs",
    "nt_box_pairs",
    "nt_node_tables",
    "set_members",
    "export_route_counts",
    "tower_plate_boxes",
    "match_efficiency",
]


def _wrapped_delta(a: np.ndarray, b: np.ndarray, D: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed torus displacement b - a in [-(D//2), D//2], plus a tie
    flag for the ambiguous |delta| == D/2 case (even D)."""
    d = np.mod(b - a, D)
    over = d > D // 2
    d = np.where(over, d - D, d)
    tie = (D % 2 == 0) & (np.abs(d) == D // 2) & (D > 1)
    return d, tie


@dataclass(frozen=True)
class NTAssignment:
    """Result of assigning a pair list to nodes."""

    node: np.ndarray          # computing node id per pair
    neutral: np.ndarray       # True where neither atom resides on the node


def nt_assign_pairs(
    decomp: SpatialDecomposition,
    positions: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    atom_box_coords: np.ndarray | None = None,
) -> NTAssignment:
    """Assign each pair (i[k], j[k]) to its NT computing node.

    The rule: with box displacement (dx, dy, dz) from A's to B's home
    box, the pair runs on node (A.x, A.y, B.z) when (dx, dy) lies in
    the upper half-plane H = {dy > 0 or (dy == 0 and dx > 0)}, on node
    (B.x, B.y, A.z) when the reverse displacement lies in H, and within
    a column (dx = dy = 0) on the lower atom's box.  Degenerate torus
    wraps (|d| exactly half the torus) are tie-broken by raw
    coordinates so each pair is claimed exactly once.

    ``atom_box_coords`` optionally supplies ``decomp.box_coord`` of the
    *whole* position array, letting callers with many pair lists (or
    long ones) pay the wrap-and-floor once per configuration instead of
    twice per pair; ``box_coord`` is elementwise per atom, so gathering
    rows of the precomputed array is identical to recomputing them.
    """
    dims = decomp.dims
    if atom_box_coords is None:
        ca = decomp.box_coord(positions[i])
        cb = decomp.box_coord(positions[j])
    else:
        ca = atom_box_coords[i]
        cb = atom_box_coords[j]
    dx, tx = _wrapped_delta(ca[:, 0], cb[:, 0], int(dims[0]))
    dy, ty = _wrapped_delta(ca[:, 1], cb[:, 1], int(dims[1]))
    dz, tz = _wrapped_delta(ca[:, 2], cb[:, 2], int(dims[2]))
    # Resolve wrap ties with the raw coordinate ordering (deterministic
    # and consistent from both endpoints' viewpoints).
    sx = np.where(tx, np.where(ca[:, 0] < cb[:, 0], 1, -1), np.sign(dx)).astype(np.int64)
    sy = np.where(ty, np.where(ca[:, 1] < cb[:, 1], 1, -1), np.sign(dy)).astype(np.int64)
    sz = np.where(tz, np.where(ca[:, 2] < cb[:, 2], 1, -1), np.sign(dz)).astype(np.int64)

    in_upper = (sy > 0) | ((sy == 0) & (sx > 0))
    same_column = (sx == 0) & (sy == 0)
    # Column pairs: the box whose partner sits "above" computes (the
    # plate holds the home box, the tower reaches the partner).
    column_owner_is_a = sz >= 0

    hx = np.where(same_column, ca[:, 0], np.where(in_upper, ca[:, 0], cb[:, 0]))
    hy = np.where(same_column, ca[:, 1], np.where(in_upper, ca[:, 1], cb[:, 1]))
    hz = np.where(
        same_column,
        np.where(column_owner_is_a, ca[:, 2], cb[:, 2]),
        np.where(in_upper, cb[:, 2], ca[:, 2]),
    )
    node = (hx * dims[1] + hy) * dims[2] + hz
    node_a = (ca[:, 0] * dims[1] + ca[:, 1]) * dims[2] + ca[:, 2]
    node_b = (cb[:, 0] * dims[1] + cb[:, 1]) * dims[2] + cb[:, 2]
    return NTAssignment(node=node, neutral=(node != node_a) & (node != node_b))


def nt_box_pairs(decomp: SpatialDecomposition, a: np.ndarray, b: np.ndarray) -> NTAssignment:
    """:func:`nt_assign_pairs` of box pairs: ``(a[k], b[k])`` are flat
    home-box ids, each pair assigned as a pair of atoms in those boxes."""
    dims = decomp.dims
    ids = np.arange(int(dims[0] * dims[1] * dims[2]), dtype=np.int64)
    coords = np.stack(
        (ids // (dims[1] * dims[2]), (ids // dims[2]) % dims[1], ids % dims[2]),
        axis=-1,
    )
    return nt_assign_pairs(decomp, None, a, b, atom_box_coords=coords)


def nt_node_tables(decomp: SpatialDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Dense (n_boxes, n_boxes) lookup tables of the NT assignment.

    The computing node (and its neutrality) is a pure function of the
    two atoms' home-box ids, so the whole rule can be tabulated once
    per decomposition — built by running :func:`nt_assign_pairs` itself
    over every ordered box pair (:func:`nt_box_pairs`), which makes the
    tables identical to the direct computation by construction.  A
    per-pair assignment then reduces to one gather:
    ``node_table.ravel()[flat_a * n + flat_b]``.

    Returns ``(node_table, neutral_table)``; int64 node ids and bool
    neutrality flags.
    """
    n = int(np.prod(decomp.dims))
    ids = np.arange(n, dtype=np.int64)
    assign = nt_box_pairs(decomp, np.repeat(ids, n), np.tile(ids, n))
    return assign.node.reshape(n, n), assign.neutral.reshape(n, n)


def set_members(sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(atom, box)`` of every bit of per-atom home-box sets.

    ``sets`` is ``(n_atoms, words)`` uint64, box ``b`` being bit
    ``b % 64`` of word ``b // 64``; the members come out atom-major with
    ascending boxes.
    """
    atoms, word = np.nonzero(sets)
    bits = np.unpackbits(
        sets[atoms, word].astype("<u8").view(np.uint8).reshape(-1, 8), axis=1,
        bitorder="little",
    )
    row, bit = np.nonzero(bits)
    return atoms[row], 64 * word[row] + bit


def export_route_counts(atoms, nodes, owners, n_nodes: int, out: np.ndarray) -> None:
    """Count one side's NT force export per route into ``out``.

    Each distinct ``(atoms[k], nodes[k])`` mark is one summed force that
    node ``nodes[k]`` sends to atom ``atoms[k]``'s owner:
    ``out[node * n_nodes + owners[atom]]`` is overwritten with the number
    of such marks on every route (``n_nodes ** 2`` of them, local
    ``node == owner`` routes included).
    """
    keys = np.unique(atoms * n_nodes + nodes)
    route = (keys % n_nodes) * n_nodes + owners[keys // n_nodes]
    out[...] = np.bincount(route, minlength=n_nodes * n_nodes)


def tower_plate_boxes(
    decomp: SpatialDecomposition, node_coord: tuple[int, int, int], cutoff: float
) -> tuple[set[tuple[int, int, int]], set[tuple[int, int, int]]]:
    """Box coordinates of a node's tower and plate import regions.

    Whole-box granularity (Anton imports whole subboxes — Figure 3f).
    The tower is the home column within the cutoff vertically; the
    plate is the half-slab of boxes whose footprint comes within the
    cutoff horizontally, plus the home box.
    """
    dims = decomp.dims
    nb = decomp.node_box
    nx, ny, nz = node_coord
    reach_z = int(math.ceil(cutoff / nb[2]))
    tower = {(nx, ny, int((nz + dz) % dims[2])) for dz in range(-reach_z, reach_z + 1)}

    plate: set[tuple[int, int, int]] = {(nx, ny, nz)}
    reach_x = int(math.ceil(cutoff / nb[0]))
    reach_y = int(math.ceil(cutoff / nb[1]))
    for dy in range(-reach_y, reach_y + 1):
        for dx in range(-reach_x, reach_x + 1):
            if (dy, dx) == (0, 0):
                continue
            if not (dy > 0 or (dy == 0 and dx > 0)):
                continue
            # Closest approach between the two box footprints.
            gap_x = max(abs(dx) - 1, 0) * nb[0]
            gap_y = max(abs(dy) - 1, 0) * nb[1]
            if gap_x**2 + gap_y**2 < cutoff**2:
                plate.add((int((nx + dx) % dims[0]), int((ny + dy) % dims[1]), nz))
    return tower, plate


#: Tower rows per block of :func:`match_efficiency`, to bound memory.
_MATCH_CHUNK = 512


def match_efficiency(
    box_side: float,
    cutoff: float = 13.0,
    subbox_divisions: int = 1,
    density: float = 0.1003,
    n_samples: int = 10,
    seed: int = 0,
) -> float:
    """Monte-Carlo match efficiency of the NT method (Table 3).

    "Match efficiency (defined as the ratio of necessary interactions
    to pairs of atoms considered)": atoms at water density fill a
    neighborhood around one home subbox; the match units examine every
    tower atom against every plate atom (regions trimmed to their exact
    geometric extents), and the efficiency is the fraction of those
    candidates that fall within the cutoff.

    Home subbox spans [0, sub]³ with sub = box_side / subbox_divisions.
    Tower: home footprint, z in [-cutoff, sub + cutoff].  Plate: slab
    z in [0, sub], horizontal distance to the footprint < cutoff, upper
    half (y above, or level and x above) plus the home subbox.
    """
    rng = np.random.default_rng(seed)
    sub = box_side / subbox_divisions
    R = cutoff
    lo = np.array([-R - sub, -R - sub, -R - sub])
    hi = np.array([sub + R + sub, sub + R + sub, sub + R + sub])
    volume = float(np.prod(hi - lo))
    n_atoms = max(int(round(density * volume)), 1)

    necessary = 0
    considered = 0
    for _ in range(n_samples):
        pos = rng.uniform(lo, hi, (n_atoms, 3))
        x, y, z = pos[:, 0], pos[:, 1], pos[:, 2]
        in_foot = (x >= 0) & (x < sub) & (y >= 0) & (y < sub)
        in_tower = in_foot & (z >= -R) & (z < sub + R)
        gap_x = np.maximum(np.maximum(-x, x - sub), 0.0)
        gap_y = np.maximum(np.maximum(-y, y - sub), 0.0)
        in_reach = gap_x**2 + gap_y**2 < R * R
        home = in_foot & (z >= 0) & (z < sub)
        # Half-plane: the north strip plus the east strip at home level.
        upper = (y >= sub) | ((y >= 0) & (y < sub) & (x >= sub))
        in_plate = (z >= 0) & (z < sub) & in_reach & ((upper & ~in_foot) | home)

        t_idx = np.nonzero(in_tower)[0]
        p_idx = np.nonzero(in_plate)[0]
        if not len(t_idx) or not len(p_idx):
            continue
        considered += len(t_idx) * len(p_idx)
        home_t = home[t_idx]
        home_p = home[p_idx]
        for s in range(0, len(t_idx), _MATCH_CHUNK):
            tc = t_idx[s : s + _MATCH_CHUNK]
            d = pos[tc][:, None, :] - pos[p_idx][None, :, :]
            within = np.sum(d * d, axis=2) < R * R
            same = tc[:, None] == p_idx[None, :]
            # Home-home candidates appear twice (once in each role);
            # count each such unordered pair once.
            both_home = home_t[s : s + _MATCH_CHUNK][:, None] & home_p[None, :]
            dup = both_home & (tc[:, None] > p_idx[None, :])
            necessary += int(np.count_nonzero(within & ~same & ~dup))
    if considered == 0:
        return 0.0
    return necessary / considered
