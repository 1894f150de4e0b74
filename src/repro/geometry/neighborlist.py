"""Buffered (Verlet / skin-radius) neighbor lists.

The seed code rebuilt its pair list from scratch on every force
evaluation, so the "conventional processor" baseline the paper's Anton
speedups are measured against (Figure 5, Table 4) was dominated by
pair-search overhead.  :class:`NeighborList` amortizes that cost the
way GROMACS does: rebuild through the kernel suite's
``neighbor_build`` — on the NumPy tier the fully vectorized cell engine
(:func:`~repro.geometry.cells.cell_candidate_pairs`, one block for a
solo system), on the compiled tier one C sweep that tests each row
against contiguous runs of cell-ordered coordinates, sweeps every row
once (a list that outgrows its buffers resumes, it does not restart)
and emits the same canonical list — keeping every pair out to
``cutoff + skin`` with the static exclusion mask applied once, and
reuse the list until some atom has moved more than ``skin / 2`` since
the last build — the classical sufficient condition, since two atoms
approaching each other close the gap by at most ``skin``.

Determinism: at use time the caller's walk (the kernel suite's pair
walk) recomputes ``dx``/``r2`` from the *current* wrapped positions and
filters to the true cutoff, and the cached candidates are kept in
canonical ``(i, j)`` order, so the surviving pairs are bitwise
identical to a fresh :func:`~repro.geometry.cells.neighbor_pairs`
search at the same configuration (after exclusion filtering).
Fixed-point force codes — and even float force sums — therefore do not
depend on the rebuild history, which keeps checkpoint/restore replay and
the machine simulation's parallel invariance exact.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.pbc import Box
from repro.kernels import NUMPY_SUITE

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
        The kernel suite (:mod:`repro.kernels`) rebuilds run on,
        :data:`~repro.kernels.NUMPY_SUITE` by default, through its
        ``neighbor_build``.  Every suite gives the same list, bit for
        bit.
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
        kernels=NUMPY_SUITE,
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
        # Rebuild state: the exclusion CSR ``neighbor_build`` reads
        # (built at the first rebuild) and the ``[oi, oj]`` buffers it
        # may fill and grow.
        self._excl_csr = None
        self._bufs = [np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)]

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
        if self.exclusions is not None and self._excl_csr is None:
            self._excl_csr = _partner_csr(self.exclusions)
        self._cand_i, self._cand_j = self.kernels.neighbor_build(
            wrapped, self._lengths, self.reach, self._n_blocks,
            len(wrapped) // self._n_blocks, self._excl_csr, self._bufs,
        )
        if self._ref_positions is None or self._ref_positions.shape != wrapped.shape:
            self._ref_positions = np.empty_like(wrapped)
        np.copyto(self._ref_positions, wrapped)
        self.n_builds += 1

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

    def pairs(self, positions: np.ndarray, walk):
        """Run ``walk`` over the cached candidates at ``positions``,
        rebuilding first if needed.

        ``walk`` is called as ``walk(wrapped, cand_i, cand_j, lengths)``
        with the wrapped C-contiguous positions and the candidates in
        canonical ``(i, j)`` order, and what it returns is returned — the
        caller's record of the within-cutoff pairs (``.i``, ``.j``).
        That is how a force calculator filters and consumes the
        candidates in one pass while this stays the one per-evaluation
        entry point.  Rebuild or not, the walk sees the same candidates
        filtered at the same positions, so its result is a pure function
        of the current configuration.
        """
        wrapped = self.box.wrap(np.asarray(positions, dtype=np.float64))
        if self._needs_rebuild(wrapped):
            self._build(wrapped)
        else:
            self.n_reuses += 1
            if self.timers is not None:
                self.timers.count("neighbor_reuses")
        return walk(np.ascontiguousarray(wrapped), self._cand_i, self._cand_j, self._lengths)


class EnsembleNeighborList(NeighborList):
    """Neighbor list for R replicas stacked along the atom axis.

    Replica ``r`` owns atom rows ``[r * n_solo, (r + 1) * n_solo)``; one
    call of the suite's ``neighbor_build`` over ``replicas`` blocks
    builds all replicas' candidates (on the NumPy tier one batched
    binning/filter/sort pass, on the compiled tier one C sweep binning
    each block in turn), and the
    walk handed to the inherited :meth:`pairs` runs once over the
    concatenated candidate list.  The candidate list restricted to a
    replica is in that replica's canonical order (the global sort key
    ``i * RN + j`` groups replica-major), and a rebuild triggered by
    *any* replica's drift is bitwise harmless for the others: what the
    walk yields is a pure function of the current configuration
    regardless of when the list was last built — the same
    skin-independence contract the solo list already guarantees.
    """

    def __init__(self, box, cutoff, replicas, n_solo, **kwargs):
        super().__init__(box, cutoff, **kwargs)
        self.replicas = self._n_blocks = int(replicas)
        self.n_solo = int(n_solo)
