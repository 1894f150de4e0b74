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

The list is stored as rows, the layout GROMACS keeps per i-cluster and
Anton's pipelines stream: ``row_ptr`` (int64, one entry per atom plus
one) and ``partners`` (int32), row ``i`` being ``partners[row_ptr[i] :
row_ptr[i + 1]]`` in ascending ``j`` — 4 bytes per candidate, where an
``(i, j)`` pair list takes 16.  Read in turn, the rows are the canonical
``(i, j)`` order; :func:`pairs_to_rows` and :func:`rows_to_pairs`
convert.  Partner ids are int32, so a list holds at most
:data:`MAX_ATOMS` atoms (:func:`check_atom_count`).

Determinism: at use time the caller's walk (the kernel suite's pair
walk) recomputes ``dx``/``r2`` from the *current* wrapped positions and
filters to the true cutoff, and the cached rows hold the candidates in
canonical ``(i, j)`` order, so the surviving pairs are bitwise
identical to a fresh :func:`~repro.geometry.cells.neighbor_pairs`
search at the same configuration (after exclusion filtering).
Fixed-point force codes — and even float force sums — therefore do not
depend on the rebuild history, which keeps checkpoint/restore replay and
the machine simulation's parallel invariance exact.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.geometry.pbc import Box
from repro.kernels import NUMPY_SUITE

__all__ = [
    "NeighborList",
    "EnsembleNeighborList",
    "MAX_ATOMS",
    "check_atom_count",
    "pairs_to_rows",
    "rows_to_pairs",
]

#: Partners are stored as int32 atom ids, so a list holds at most this
#: many atoms (ids ``0 .. 2**31 - 1``).  ``row_ptr`` is int64: the
#: candidate count itself has no such limit.
MAX_ATOMS = 2**31


def check_atom_count(n_atoms: int) -> None:
    """Raise ``ValueError`` when ``n_atoms`` ids would not fit the int32 partners."""
    if n_atoms > MAX_ATOMS:
        raise ValueError(
            f"{n_atoms} atoms do not fit a Verlet list: partner ids are int32, "
            f"so at most {MAX_ATOMS} atoms"
        )


def pairs_to_rows(ii: np.ndarray, jj: np.ndarray, n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs sorted by ``i`` as rows: ``(row_ptr, partners)``.

    Row ``i`` is ``partners[row_ptr[i] : row_ptr[i + 1]]``, the ``jj`` of
    the pairs whose ``ii`` is ``i``, in their order; ``row_ptr`` is
    int64 of ``n_atoms + 1``, ``partners`` int32.
    """
    row_ptr = np.zeros(n_atoms + 1, dtype=np.int64)
    np.cumsum(np.bincount(ii, minlength=n_atoms), out=row_ptr[1:])
    return row_ptr, np.asarray(jj, dtype=np.int32)


def rows_to_pairs(row_ptr: np.ndarray, partners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows expanded back to int64 ``(i, j)`` pairs, in row order."""
    counts = np.diff(np.asarray(row_ptr, dtype=np.int64))
    ii = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return ii, np.asarray(partners, dtype=np.int64)


def _partner_csr(exclusions) -> tuple[np.ndarray, np.ndarray]:
    """Per-atom CSR ``(ptr, idx)`` of the partners ``j > i`` that
    :meth:`ExclusionTable.is_excluded` skips (hard exclusions and 1-4)."""
    pairs = np.concatenate([exclusions.excluded, exclusions.pair14])
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    ptr, _ = pairs_to_rows(pairs[:, 0], pairs[:, 1], exclusions.n_atoms)
    return ptr, np.ascontiguousarray(pairs[:, 1], dtype=np.int64)


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
        recorded under ``"neighbor_build"``, the per-evaluation wrap
        and skin check under ``"neighbor_check"``, and build/reuse
        events under the ``"neighbor_builds"`` / ``"neighbor_reuses"``
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
        # The list: row i is partners[row_ptr[i] : row_ptr[i + 1]].
        self._row_ptr: np.ndarray | None = None
        self._partners: np.ndarray | None = None
        self._lengths = np.ascontiguousarray(box.lengths, dtype=np.float64)
        # Rebuild state: the exclusion CSR ``neighbor_build`` reads
        # (built at the first rebuild) and the ``[row_ptr, partners]``
        # buffers it may fill and grow.
        self._excl_csr = None
        self._bufs = [np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)]

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
        check_atom_count(len(wrapped))
        if self.exclusions is not None and self._excl_csr is None:
            self._excl_csr = _partner_csr(self.exclusions)
        self._row_ptr, self._partners = self.kernels.neighbor_build(
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
        return 0 if self._partners is None else len(self._partners)

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

        ``walk`` is called as ``walk(wrapped, row_ptr, partners,
        lengths)`` with the wrapped C-contiguous positions and the
        candidates as rows — row ``i`` is ``partners[row_ptr[i] :
        row_ptr[i + 1]]``, so the rows in turn are the canonical ``(i,
        j)`` order — and what it returns is returned: the caller's record
        of the within-cutoff pairs (``.i``, ``.j``).
        That is how a force calculator filters and consumes the
        candidates in one pass while this stays the one per-evaluation
        entry point.  Rebuild or not, the walk sees the same candidates
        filtered at the same positions, so its result is a pure function
        of the current configuration.
        """
        with self.timers.time("neighbor_check") if self.timers is not None else nullcontext():
            wrapped = self.box.wrap(np.asarray(positions, dtype=np.float64))
            rebuild = self._needs_rebuild(wrapped)
        if rebuild:
            self._build(wrapped)
        else:
            self.n_reuses += 1
            if self.timers is not None:
                self.timers.count("neighbor_reuses")
        return walk(np.ascontiguousarray(wrapped), self._row_ptr, self._partners, self._lengths)


class EnsembleNeighborList(NeighborList):
    """Neighbor list for R replicas stacked along the atom axis.

    Replica ``r`` owns atom rows ``[r * n_solo, (r + 1) * n_solo)``; one
    call of the suite's ``neighbor_build`` over ``replicas`` blocks
    builds all replicas' candidates (on the NumPy tier one batched
    binning/filter/sort pass, on the compiled tier one C sweep binning
    each block in turn), and the walk handed to the inherited
    :meth:`pairs` runs once over every replica's rows.  Replica ``r``'s
    candidates are rows ``[r * n_solo, (r + 1) * n_solo)``, in that
    replica's canonical order, and a rebuild triggered by
    *any* replica's drift is bitwise harmless for the others: what the
    walk yields is a pure function of the current configuration
    regardless of when the list was last built — the same
    skin-independence contract the solo list already guarantees.
    """

    def __init__(self, box, cutoff, replicas, n_solo, **kwargs):
        super().__init__(box, cutoff, **kwargs)
        self.replicas = self._n_blocks = int(replicas)
        self.n_solo = int(n_solo)
