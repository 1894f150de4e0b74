"""Cell-list neighbor search under periodic boundary conditions.

Produces each within-cutoff pair exactly once, in canonical order
(``i < j``, sorted lexicographically by ``(i, j)``).  The canonical
ordering makes every pair-producing path — brute force, the vectorized
cell list, and the walk over the buffered
:class:`~repro.geometry.neighborlist.NeighborList`, whose rows (row
``i`` holds the partners ``j`` of ``i``, ascending) read in turn are
that order — return bitwise-identical arrays for the same
configuration, so even floating-point force sums do not depend on
which search path ran.

:func:`within` is the one cutoff predicate every NumPy path filters
candidates with, and :func:`cell_candidate_pairs` the one binning
sweep: a solo system is one block, an ensemble's replicas are R.

This is the "conventional processor" pair-finding substrate; the
simulated machine uses the NT method in :mod:`repro.parallel.nt`
instead, and the two are cross-checked against each other in the
integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.pbc import Box

__all__ = [
    "NeighborPairs",
    "neighbor_pairs",
    "brute_force_pairs",
    "cell_candidate_pairs",
    "within",
]

@dataclass(frozen=True)
class NeighborPairs:
    """Unique within-cutoff atom pairs and their displacements.

    ``dx`` is the minimum-image displacement ``x[i] - x[j]`` and ``r2``
    its squared norm; all arrays share the leading pair axis.
    """

    i: np.ndarray
    j: np.ndarray
    dx: np.ndarray
    r2: np.ndarray

    def __len__(self) -> int:
        return len(self.i)


def _empty_pairs() -> NeighborPairs:
    empty = np.empty(0, dtype=np.int64)
    return NeighborPairs(empty, empty.copy(), np.empty((0, 3)), np.empty(0))


#: Chunk size (pairs) for candidate distance filtering; bounds the
#: transient dx allocation when the raw candidate set is large.
_FILTER_CHUNK = 2_000_000


def _canonical_order(ii: np.ndarray, jj: np.ndarray, n: int) -> np.ndarray:
    """Permutation sorting ``(ii, jj)`` pairs lexicographically.

    Pairs are unique and ``ii < jj``, so the single combined key
    ``ii * n + jj`` (exact in int64 for any realistic atom count)
    orders them identically to ``np.lexsort((jj, ii))`` at a fraction
    of the cost.
    """
    return np.argsort(ii * np.int64(n) + jj)


def within(
    wrapped: np.ndarray, box: Box, ii: np.ndarray, jj: np.ndarray, cutoff2: float
) -> NeighborPairs:
    """The candidates ``(ii, jj)`` closer than ``sqrt(cutoff2)``, in candidate order.

    The one cutoff predicate: the minimum-image ``dx = x[i] - x[j]`` of
    :meth:`Box.minimum_image`, ``r2 = (dx² + dy²) + dz²`` and
    ``r2 < cutoff2``.  The compiled kernels form the same bits
    (``rk_walk_filter``, ``rk_neighbor_build``); ``wrapped`` must lie in
    ``[0, L)`` per axis for that, as :meth:`Box.wrap` leaves it.
    Chunked to bound the transient ``dx`` allocation.
    """
    parts = []
    for lo in range(0, len(ii), _FILTER_CHUNK):
        i, j = ii[lo : lo + _FILTER_CHUNK], jj[lo : lo + _FILTER_CHUNK]
        dx = box.minimum_image(wrapped[i] - wrapped[j])
        r2 = np.sum(dx * dx, axis=1)
        keep = r2 < cutoff2
        parts.append((i[keep], j[keep], dx[keep], r2[keep]))
    if not parts:
        return _empty_pairs()
    if len(parts) == 1:
        return NeighborPairs(*parts[0])
    return NeighborPairs(*(np.concatenate(a) for a in zip(*parts)))


def brute_force_pairs(
    positions: np.ndarray, box: Box, cutoff: float, chunk: int = 512
) -> NeighborPairs:
    """All-pairs O(N²) search, chunked to bound memory.

    Correct for any cutoff up to ``box.max_cutoff()``; used directly for
    small or dense-in-cells systems and as the oracle in tests.
    """
    n = len(positions)
    out_i, out_j, out_dx, out_r2 = [], [], [], []
    c2 = cutoff * cutoff
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        d = box.minimum_image(positions[lo:hi, None, :] - positions[None, :, :])
        r2 = np.sum(d * d, axis=2)
        ii_rel, jj = np.nonzero((r2 < c2) & (np.arange(n)[None, :] > (lo + np.arange(hi - lo))[:, None]))
        out_i.append(ii_rel + lo)
        out_j.append(jj)
        out_dx.append(d[ii_rel, jj])
        out_r2.append(r2[ii_rel, jj])
    if not out_i:
        return _empty_pairs()
    return NeighborPairs(
        i=np.concatenate(out_i),
        j=np.concatenate(out_j),
        dx=np.concatenate(out_dx),
        r2=np.concatenate(out_r2),
    )


def _grouped_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(c)`` for each ``c`` in ``counts``."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


#: Finest binning considered: cells down to ``reach / 3``.  Finer bins
#: cut candidate oversampling (cell volume vs. cutoff sphere) at the
#: price of a larger stencil; beyond ~3 the stencil bookkeeping wins.
_MAX_BIN_REFINE = 3


def _half_stencil_offsets(k: int, cell_size: np.ndarray, reach: float) -> np.ndarray:
    """Half stencil for cells of ``cell_size`` with bins ``reach / k``.

    All lexicographically-positive offsets in ``[-k, k]^3`` whose cells
    can hold a point within ``reach`` of the home cell: the per-axis
    face gap is ``(|o| - 1) * cell_size``, and offsets whose gap
    already exceeds ``reach`` are pruned (trims the corners of the
    stencil cube toward the cutoff sphere).  Each unordered cell pair
    appears under exactly one retained offset.
    """
    r = np.arange(-k, k + 1, dtype=np.int64)
    off = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    lex_pos = (off[:, 0] > 0) | (
        (off[:, 0] == 0) & ((off[:, 1] > 0) | ((off[:, 1] == 0) & (off[:, 2] > 0)))
    )
    off = off[lex_pos]
    gap = np.maximum(np.abs(off) - 1, 0) * cell_size
    return off[np.sum(gap * gap, axis=1) < reach * reach]


def _choose_binning(
    positions: np.ndarray, box: Box, reach: float, n_blocks: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Pick the finest admissible binning (ncells, stencil) or ``None``.

    A refinement ``k`` bins at ``cell >= reach / k`` and needs at least
    ``2k + 1`` cells per axis so wrapped stencil cells stay distinct.
    Guards keep the empty-cell table (one per block) and the per-atom
    stencil arrays proportional to the atom count; a refinement that
    breaks one gives way to the next coarser.
    """
    n = len(positions)
    for k in range(_MAX_BIN_REFINE, 0, -1):
        ncells = np.floor(box.lengths * k / reach).astype(np.int64)
        if np.any(ncells < 2 * k + 1):
            continue
        ntot = int(np.prod(ncells))
        if ntot > max(64 * n, 4096) or n_blocks * ntot > 50_000_000:
            continue
        stencil = _half_stencil_offsets(k, box.lengths / ncells, reach)
        if n * (len(stencil) + 1) > 80_000_000:
            continue
        return ncells, stencil
    return None


def cell_candidate_pairs(
    positions: np.ndarray, box: Box, reach: float, n_blocks: int = 1
) -> tuple[np.ndarray, np.ndarray] | None:
    """Vectorized candidate pairs from cell binning at ``reach``.

    ``positions`` holds ``n_blocks`` equal blocks stacked along the
    atom axis (block ``r`` owns rows ``[r * n, (r + 1) * n)``, ``n =
    len(positions) // n_blocks``: the replicas of an ensemble, or one
    solo system), all sharing one box and already wrapped into the
    primary cell.  Returns candidate pairs ``(i, j)`` with ``i < j`` — a
    superset of each block's pairs within ``reach``, each at most once,
    none across a block boundary, in unspecified order (callers filter
    by distance first and canonically sort the survivors, which is far
    cheaper than sorting the raw candidates) — or ``None`` when the box
    admits no valid binning (callers fall back to brute force per
    block).

    The whole half-stencil sweep is array arithmetic: atoms are binned
    with *block-major* flat cell ids ``r * ncells_total + flat`` and
    sorted by them once, and for every (atom, stencil offset) the run
    of atoms in the neighboring cell is expanded with a grouped-arange
    — no per-cell Python loop.  Block-major ids keep cells of different
    blocks distinct, which is load-bearing because replicas typically
    start from identical coordinates, where shared binning would pair
    every atom with its twins at distance zero.  Bins are refined down
    to ``reach / 3`` when the box allows it, shrinking the candidate
    overcount toward the cutoff-sphere volume.
    """
    n = len(positions)
    if n // n_blocks < 64:
        return None
    binning = _choose_binning(positions, box, reach, n_blocks)
    if binning is None:
        return None
    ncells, stencil = binning
    ntot = int(np.prod(ncells))

    cell_size = box.lengths / ncells
    # Modulo clamps both the exact-L edge (index == ncells) and any
    # -1 bin from floating-point jitter at 0 into valid cells.
    cidx = np.floor(positions / cell_size).astype(np.int64) % ncells
    flat = (cidx[:, 0] * ncells[1] + cidx[:, 1]) * ncells[2] + cidx[:, 2]

    rep = np.repeat(np.arange(n_blocks, dtype=np.int64) * ntot, n // n_blocks)
    gflat = flat + rep
    order = np.argsort(gflat, kind="stable")  # atom ids in cell order
    sorted_gflat = gflat[order]
    counts = np.bincount(sorted_gflat, minlength=n_blocks * ntot)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))

    # Intra-cell pairs: slot p pairs with slots p+1 .. end(cell)-1.
    slot = np.arange(n, dtype=np.int64)
    cell_end = starts[sorted_gflat] + counts[sorted_gflat]
    k_intra = cell_end - slot - 1
    ii_slot = np.repeat(slot, k_intra)
    jj_slot = ii_slot + 1 + _grouped_arange(k_intra)
    intra_i = order[ii_slot]
    intra_j = order[jj_slot]

    # Cross-cell pairs over the half stencil, all offsets at once;
    # neighbor cell ids carry the atom's block offset.
    nbr = (cidx[:, None, :] + stencil[None, :, :]) % ncells  # (n, |stencil|, 3)
    nbr_flat = (
        (nbr[..., 0] * ncells[1] + nbr[..., 1]) * ncells[2]
        + nbr[..., 2]
        + rep[:, None]
    ).ravel()
    cnt = counts[nbr_flat]
    cross_i = np.repeat(np.repeat(np.arange(n, dtype=np.int64), len(stencil)), cnt)
    jj_slot = np.repeat(starts[nbr_flat], cnt) + _grouped_arange(cnt)
    cross_j = order[jj_slot]

    ii = np.concatenate([intra_i, cross_i])
    jj = np.concatenate([intra_j, cross_j])
    return np.minimum(ii, jj), np.maximum(ii, jj)


def neighbor_pairs(positions: np.ndarray, box: Box, cutoff: float) -> NeighborPairs:
    """Unique atom pairs with minimum-image distance < cutoff.

    Uses the vectorized cell list when the box admits a valid binning
    (at least 3 cells per axis at the coarsest refinement), otherwise
    falls back to the brute-force path.  Pairs come out in canonical
    ``(i, j)`` order either way.
    """
    positions = box.wrap(np.asarray(positions, dtype=np.float64))
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if cutoff > box.max_cutoff():
        raise ValueError(
            f"cutoff {cutoff} exceeds the minimum-image limit {box.max_cutoff()}"
        )
    cand = cell_candidate_pairs(positions, box, cutoff)
    if cand is None:
        return brute_force_pairs(positions, box, cutoff)
    p = within(positions, box, *cand, cutoff * cutoff)
    order = _canonical_order(p.i, p.j, len(positions))
    return NeighborPairs(i=p.i[order], j=p.j[order], dx=p.dx[order], r2=p.r2[order])
