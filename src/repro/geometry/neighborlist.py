"""Buffered (Verlet / skin-radius) neighbor lists.

The seed code rebuilt its pair list from scratch on every force
evaluation, so the "conventional processor" baseline the paper's Anton
speedups are measured against (Figure 5, Table 4) was dominated by
pair-search overhead.  :class:`NeighborList` amortizes that cost the
way GROMACS does: bin atoms with the fully vectorized cell engine
(:func:`~repro.geometry.cells.ensemble_cell_candidate_pairs`, one
block for a solo system), keep every pair
out to ``cutoff + skin``, pre-apply the static exclusion mask once,
and reuse the list until some atom has moved more than ``skin / 2``
since the last build — the classical sufficient condition, since two
atoms approaching each other close the gap by at most ``skin``.  A list
holding a compiled kernel suite rebuilds through the suite's
``neighbor_build`` instead, which emits the same canonical list
directly from a C cell sweep; the NumPy pipeline is its oracle.

Determinism: at use time the list recomputes ``dx``/``r2`` from the
*current* wrapped positions and filters to the true cutoff, and the
cached candidates are kept in canonical ``(i, j)`` order, so the
filtered arrays are bitwise identical to a fresh
:func:`~repro.geometry.cells.neighbor_pairs` search at the same
configuration (after exclusion filtering).  Fixed-point force codes —
and even float force sums — therefore do not depend on the rebuild
history, which keeps checkpoint/restore replay and the machine
simulation's parallel invariance exact.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.geometry.cells import (
    _FILTER_CHUNK,
    NeighborPairs,
    _canonical_order,
    brute_force_pairs,
    ensemble_cell_candidate_pairs,
)
from repro.geometry.pbc import Box

__all__ = ["NeighborList", "EnsembleNeighborList"]


def _partner_csr(exclusions) -> tuple[np.ndarray, np.ndarray]:
    """Per-atom CSR ``(ptr, idx)`` of the partners ``j > i`` that
    :meth:`ExclusionTable.is_excluded` skips (hard exclusions and 1-4)."""
    pairs = np.concatenate([exclusions.excluded, exclusions.pair14])
    ptr = np.zeros(exclusions.n_atoms + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs[:, 0], minlength=exclusions.n_atoms), out=ptr[1:])
    return ptr, np.ascontiguousarray(pairs[np.argsort(pairs[:, 0], kind="stable"), 1])


class NeighborList:
    """A buffered pair list for one box/cutoff/exclusion configuration.

    Parameters
    ----------
    box, cutoff:
        The periodic box and true interaction cutoff (angstroms).
    skin:
        Requested buffer radius.  The effective skin is capped so that
        ``cutoff + skin`` stays within the box's minimum-image limit
        (small test boxes); a capped — even zero — skin only means more
        frequent rebuilds, never wrong pairs.
    exclusions:
        Optional :class:`~repro.forcefield.exclusions.ExclusionTable`;
        when given, excluded and 1-4 pairs are removed from the cached
        candidates once per rebuild instead of on every evaluation.
    timers:
        Optional :class:`~repro.perf.timers.Timers`; build time is
        recorded under ``"neighbor_build"`` and build/reuse events
        under the ``"neighbor_builds"`` / ``"neighbor_reuses"``
        counters.
    kernels:
        Optional kernel suite from :mod:`repro.kernels`.  With the
        compiled tier, :meth:`pairs` runs the cutoff filter in C into
        persistent scratch and returns prefix *views* of that scratch
        — bitwise identical to the NumPy filter, but the views are
        only valid until the next :meth:`pairs` call (a ``walk``
        passed to :meth:`pairs` takes the filter's place).  Rebuilds go
        through the suite's ``neighbor_build`` (same list, same order).
    """

    #: Atom rows form this many equal blocks that never pair across a
    #: boundary (replicas, in :class:`EnsembleNeighborList`).
    _n_blocks = 1

    def __init__(
        self,
        box: Box,
        cutoff: float,
        skin: float = 2.0,
        exclusions=None,
        timers=None,
        kernels=None,
    ):
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if cutoff > box.max_cutoff():
            raise ValueError(
                f"cutoff {cutoff} exceeds the minimum-image limit {box.max_cutoff()}"
            )
        if skin < 0:
            raise ValueError("skin must be non-negative")
        self.box = box
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self.effective_skin = float(min(skin, box.max_cutoff() - cutoff))
        self.reach = self.cutoff + self.effective_skin
        self.exclusions = exclusions
        self.timers = timers
        self.kernels = kernels
        self.n_builds = 0
        self.n_reuses = 0
        self._ref_positions: np.ndarray | None = None
        self._cand_i: np.ndarray | None = None
        self._cand_j: np.ndarray | None = None
        self._lengths = np.ascontiguousarray(box.lengths, dtype=np.float64)
        self._scratch_cap = -1
        self._oi = self._oj = self._odx = self._or2 = None
        # Compiled-tier rebuild state, filled lazily: ``kernels`` may be
        # assigned after construction.
        self._excl_csr = None
        self._buf_i = np.empty(0, dtype=np.int64)
        self._buf_j = np.empty(0, dtype=np.int64)

    # -- building ----------------------------------------------------------

    def build(self, positions: np.ndarray) -> None:
        """Force a rebuild of the candidate list at ``positions``."""
        self._build(self.box.wrap(np.asarray(positions, dtype=np.float64)))

    def _build(self, wrapped: np.ndarray) -> None:
        if self.timers is not None:
            with self.timers.time("neighbor_build"):
                self._build_inner(wrapped)
            self.timers.count("neighbor_builds")
        else:
            self._build_inner(wrapped)

    def _build_inner(self, wrapped: np.ndarray) -> None:
        k = self.kernels
        if k is not None and k.tier == "compiled":
            ii, jj = self._candidates_compiled(k, wrapped)
        else:
            ii, jj = self._candidates_numpy(wrapped)
        self._cand_i, self._cand_j = ii, jj
        if self._ref_positions is None or self._ref_positions.shape != wrapped.shape:
            self._ref_positions = np.empty_like(wrapped)
        np.copyto(self._ref_positions, wrapped)
        self.n_builds += 1

    def _candidates_compiled(self, k, wrapped: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The canonical list straight from ``neighbor_build``.

        Pairs land in list-owned buffers and come back as prefix views,
        so a steady-state rebuild allocates nothing; a count past the
        capacity grows the buffers with headroom and repeats the sweep.
        """
        block_len = len(wrapped) // self._n_blocks
        if self.exclusions is not None and self._excl_csr is None:
            self._excl_csr = _partner_csr(self.exclusions)
        wrapped = np.ascontiguousarray(wrapped)
        while True:
            m = k.neighbor_build(
                wrapped, self._lengths, self.reach, self._n_blocks, block_len,
                self._excl_csr, self._buf_i, self._buf_j,
            )
            if m <= len(self._buf_i):
                return self._buf_i[:m], self._buf_j[:m]
            self._buf_i = np.empty(m + m // 8, dtype=np.int64)
            self._buf_j = np.empty(m + m // 8, dtype=np.int64)

    def _candidates_numpy(self, wrapped: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell candidates -> reach filter -> exclusions -> canonical sort."""
        n_blocks, block_len = self._n_blocks, len(wrapped) // self._n_blocks
        cand = ensemble_cell_candidate_pairs(wrapped, self.box, self.reach, n_blocks, block_len)
        if cand is None:
            # Per-block brute force; each block is canonical and the
            # block-major concatenation stays globally canonical.
            blocks = wrapped.reshape(n_blocks, block_len, 3)
            parts = [brute_force_pairs(x, self.box, self.reach) for x in blocks]
            ii = np.concatenate([bf.i + r * block_len for r, bf in enumerate(parts)])
            jj = np.concatenate([bf.j + r * block_len for r, bf in enumerate(parts)])
        else:
            ii, jj = self._filter_to_reach(wrapped, *cand)
        if self.exclusions is not None and len(ii):
            keep = ~self.exclusions.is_excluded(ii, jj)
            ii, jj = ii[keep], jj[keep]
        if cand is not None and len(ii):
            # Sorting only the reach-filtered survivors keeps the
            # pairs() output a pure function of the configuration at a
            # fraction of the cost of sorting raw cell candidates.
            order = _canonical_order(ii, jj, len(wrapped))
            ii, jj = ii[order], jj[order]
        return ii, jj

    def _filter_to_reach(
        self, wrapped: np.ndarray, ii: np.ndarray, jj: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Drop cell candidates beyond ``reach`` at the build configuration.

        A pair separated by more than ``cutoff + skin`` at build time
        cannot come within the cutoff before a rebuild triggers (each
        atom moves at most ``skin/2``), so only genuine Verlet-list
        members are cached.  Chunked to bound the transient ``dx``
        allocation.
        """
        r2max = self.reach * self.reach
        kept_i, kept_j = [], []
        for lo in range(0, len(ii), _FILTER_CHUNK):
            hi = lo + _FILTER_CHUNK
            d = self.box.minimum_image(wrapped[ii[lo:hi]] - wrapped[jj[lo:hi]])
            keep = np.sum(d * d, axis=1) < r2max
            kept_i.append(ii[lo:hi][keep])
            kept_j.append(jj[lo:hi][keep])
        if not kept_i:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        return np.concatenate(kept_i), np.concatenate(kept_j)

    # -- querying ----------------------------------------------------------

    @property
    def n_candidates(self) -> int:
        """Cached candidate pairs (within ``cutoff + skin`` at build)."""
        return 0 if self._cand_i is None else len(self._cand_i)

    def needs_rebuild(self, positions: np.ndarray) -> bool:
        """True when the cached list may miss a within-cutoff pair."""
        return self._needs_rebuild(self.box.wrap(np.asarray(positions, dtype=np.float64)))

    def _needs_rebuild(self, wrapped: np.ndarray) -> bool:
        ref = self._ref_positions
        if ref is None or len(ref) != len(wrapped):
            return True
        if self.effective_skin == 0.0:
            return True
        d = self.box.minimum_image(wrapped - ref)
        max_r2 = float(np.max(np.sum(d * d, axis=1))) if len(d) else 0.0
        return max_r2 > (self.effective_skin / 2.0) ** 2

    def pairs(self, positions: np.ndarray, walk=None) -> NeighborPairs:
        """Within-cutoff pairs at ``positions``, rebuilding if needed.

        Rebuild or not, the returned arrays are a pure function of the
        current configuration: candidates are stored in canonical
        ``(i, j)`` order and ``dx``/``r2`` are recomputed from the
        wrapped current positions before filtering to the true cutoff.

        ``walk``, when given, takes the place of the cutoff filter: it
        is called as ``walk(wrapped, cand_i, cand_j, lengths)`` with the
        wrapped C-contiguous positions and the cached candidates, and
        what it returns is returned — the caller's own record of the
        within-cutoff pairs (``.i``, ``.j``).  That is how a force
        calculator filters and consumes the candidates in one pass
        while this stays the one per-evaluation entry point.
        """
        wrapped = self.box.wrap(np.asarray(positions, dtype=np.float64))
        if self._needs_rebuild(wrapped):
            self._build(wrapped)
        else:
            self.n_reuses += 1
            if self.timers is not None:
                self.timers.count("neighbor_reuses")
        ii, jj = self._cand_i, self._cand_j
        if walk is not None:
            return walk(np.ascontiguousarray(wrapped), ii, jj, self._lengths)
        k = self.kernels
        # The cutoff filter is the remaining per-call work; charge it to
        # its own leaf phase so hierarchical profiles attribute it
        # (observational only — no effect on the returned pairs).
        select = self.timers.time("pair_select") if self.timers is not None else nullcontext()
        with select:
            if k is not None and k.tier == "compiled" and len(ii):
                self._ensure_scratch(len(ii))
                m = k.pair_filter(
                    np.ascontiguousarray(wrapped),
                    ii,
                    jj,
                    self._lengths,
                    self.cutoff * self.cutoff,
                    self._oi,
                    self._oj,
                    self._odx,
                    self._or2,
                )
                return NeighborPairs(
                    i=self._oi[:m], j=self._oj[:m], dx=self._odx[:m], r2=self._or2[:m]
                )
            dx = self.box.minimum_image(wrapped[ii] - wrapped[jj])
            r2 = np.sum(dx * dx, axis=1)
            keep = r2 < self.cutoff * self.cutoff
            return NeighborPairs(i=ii[keep], j=jj[keep], dx=dx[keep], r2=r2[keep])

    def _ensure_scratch(self, n: int) -> None:
        """Size the compiled-filter output scratch to the candidate count."""
        if n <= self._scratch_cap:
            return
        # Candidate counts wander a fraction of a percent between
        # rebuilds; headroom keeps that from reallocating every time.
        n += n // 8
        self._scratch_cap = n
        self._oi = np.empty(n, dtype=np.int64)
        self._oj = np.empty(n, dtype=np.int64)
        self._odx = np.empty((n, 3), dtype=np.float64)
        self._or2 = np.empty(n, dtype=np.float64)


class EnsembleNeighborList(NeighborList):
    """Neighbor list for R replicas stacked along the atom axis.

    Replica ``r`` owns atom rows ``[r * n_solo, (r + 1) * n_solo)``; one
    batched binning/filter/sort pass builds all replicas' candidates
    (:func:`~repro.geometry.cells.ensemble_cell_candidate_pairs`), and
    the inherited :meth:`pairs` filter runs once over the concatenated
    candidate list.  The candidate list restricted to a replica is in
    that replica's canonical order (the global sort key ``i * RN + j``
    groups replica-major), and a rebuild triggered by *any* replica's
    drift is bitwise harmless for the others: :meth:`pairs` output is a
    pure function of the current configuration regardless of when the
    list was last built — the same skin-independence contract the solo
    list already guarantees.
    """

    def __init__(self, box, cutoff, replicas, n_solo, **kwargs):
        super().__init__(box, cutoff, **kwargs)
        self.replicas = self._n_blocks = int(replicas)
        self.n_solo = int(n_solo)
