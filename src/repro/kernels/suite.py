"""Kernel tiers: NumPy reference implementations and ctypes wrappers.

A *kernel suite* is the small set of hot-loop primitives the force
path, neighbor list, constraint solver and mesh pass dispatch through:
neighbor-list rebuild (to the Verlet list's rows), the range-limited
pair walk (the cached rows straight to the fixed-point force
accumulator) and its float64 twin (rows to per-pair force rows), the NT force-export marks,
fixed-point scatter deposits and the ordered float deposit, the fused
mesh spread and gather, and the SHAKE/RATTLE constraint sweeps.  Each
primitive has one form: the rebuild and the sweeps take ``n`` stacked
blocks, and a solo system is one block.  The NumPy forms filter
candidates with the one cutoff predicate,
:func:`repro.geometry.cells.within`.  Two tiers implement it:

* :class:`NumpyKernels` — pure NumPy, always available, and the
  reference the property tests compare against.  Every primitive a
  component calls exists here with the compiled signature.
* :class:`CompiledKernels` — thin ctypes shims over ``_kernels.c``,
  built lazily by :mod:`repro.kernels.build`.  The wrappers own every
  layout question: an array C cannot take as it is runs the NumPy form
  or is a ``ValueError``.

The tier is chosen in one place, :func:`get_suite`.  Components hold a
suite — :data:`NUMPY_SUITE` unless given one — and never ask which, so
the force path, neighbor list, constraint solver, ensemble and mesh
plan run one control flow on both; nothing outside this package reads
``tier``.

The contract is *bitwise identity*: for any input, both tiers return
the same bytes.  The compiled tier therefore preserves every
reproducibility gate in the repo (backend equivalence, fault-recovery
replay, checkpoint round-trips) while removing the Python interpreter
from the per-pair loops.

:func:`get_suite` resolves the two knobs — tier and thread count —
from explicit arguments first, then the ``REPRO_KERNEL_TIER`` /
``REPRO_KERNEL_THREADS`` environment variables, then the defaults:
the compiled tier where it builds and the NumPy tier otherwise
(silently — nobody asked), 1 thread.  The suite it returns carries the
resolved facts as ``tier`` and ``threads``.  *Requesting*
``"compiled"`` on a host without a C compiler degrades to the NumPy
tier with a one-time warning — the package never hard-fails for lack
of a toolchain.

Every C kernel is single-threaded.  The thread count is the width of
one Python-side farm, :meth:`CompiledKernels.map_chunks`, over which a
stacked mesh pass (:meth:`~repro.ewald.gse.GaussianSplitEwald.mesh_pass`
with more than one lane) runs its per-lane spreads, FFTs and gathers;
a single-system engine is single-threaded at every setting.  Lanes
write disjoint outputs, so thread counts are **bitwise-invisible**:
every count produces the same bytes as ``threads=1``, which produces
the same bytes as the NumPy tier.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.fixedpoint.accumulate import scatter_add_int64
from repro.kernels.build import (
    KernelBuildError,
    MeshAxes,
    PairSpec,
    available,
    build_record,
    load,
)

__all__ = [
    "KERNEL_TIERS",
    "PairTableSpec",
    "NumpyKernels",
    "NUMPY_SUITE",
    "CompiledKernels",
    "make_pair_spec",
    "get_suite",
    "kernel_info",
]

KERNEL_TIERS = ("numpy", "compiled")

#: Hard ceiling on kernel_threads (catches typos like
#: REPRO_KERNEL_THREADS=1000 before they become a thread pool).
_MAX_THREADS = 128

#: z lanes per block of the compiled mesh kernels' halo'd columns
#: (``RK_ZLANES`` in ``_kernels.c``): a stencil's ``kz`` is padded to a
#: multiple of it.
_Z_LANES = 8

#: Atoms per ``(m, k)`` stencil block in the NumPy mesh kernels whose
#: bits the blocking cannot change (the quantized spread and the gather);
#: it bounds their scratch at O(block·k) whatever the atom count.
_MESH_BLOCK = 256


def _ptr(a: np.ndarray) -> int:
    return a.ctypes.data


def _conforms(a: np.ndarray, shape: tuple, dtype) -> bool:
    """Whether ``a`` can be handed to C as a dense ``shape`` array of ``dtype``."""
    return a.shape == shape and a.dtype == dtype and a.flags.c_contiguous


def _i64(a) -> np.ndarray:
    """C-contiguous int64 view (no copy when already conforming)."""
    return np.asarray(a, dtype=np.int64, order="C")


def _extrapolated_pairs(pairs: int, rows: int, block_len: int, n_blocks: int) -> int:
    """A rebuild's pair count, extrapolated from its first ``rows`` rows.

    Row ``i`` of a block of ``B`` atoms keeps only partners ``j > i``, so
    on average its share of the block's pairs is proportional to
    ``B - 1 - i``, and the first ``t`` rows hold ``t (2B - 1 - t) /
    (B (B - 1))`` of them.  The first row alone thus sizes a fresh
    list's buffers.
    """
    b = block_len
    full, t = divmod(rows, b)
    done = (full + t * (2 * b - 1 - t) / (b * (b - 1))) / n_blocks
    return math.ceil(pairs / done)


def _stencil_sums(g: np.ndarray, dx, dy, dz, out: np.ndarray) -> None:
    """``out[i] = Σ g[i]·(dx, dy, dz)`` over each atom's stencil cube.

    ``g`` is ``(m, kx, ky, kz)``, the displacement rows ``(m, k·)``.
    The adds of ``rk_mesh_gather_axes``, made as whole-array adds: each
    sum starts at +0.0 and runs in ascending index (DESIGN.md,
    gather-order lemma) — ``A = Σ_y g``, ``C = Σ_x g``, ``T = Σ_x A``,
    then ``Σ_x (Σ_z A)·dx``, ``Σ_y (Σ_z C)·dy``, ``Σ_z T·dz``.
    """
    m, kx, ky, kz = g.shape
    a, c = np.zeros((m, kx, kz)), np.zeros((m, ky, kz))
    for y in range(ky):
        a += g[:, :, y]
    for x in range(kx):
        c += g[:, x]
    sa, sc, t = np.zeros((m, kx)), np.zeros((m, ky)), np.zeros((m, kz))
    for z in range(kz):
        sa += a[:, :, z]
        sc += c[:, :, z]
    for x in range(kx):
        t += a[:, x]
    out[...] = 0.0
    for col, (s, d) in enumerate(((sa, dx), (sc, dy), (t, dz))):
        for k in range(s.shape[1]):
            out[:, col] += s[:, k] * d[:, k]


@dataclass(frozen=True)
class PairTableSpec:
    """Frozen per-system inputs of the tabulated pair kernels.

    Everything that does not change between force evaluations: charges,
    LJ type ids, the precomputed per-type-pair A/B coefficient matrices,
    the tier-table segmentations and quantized cubic coefficients for
    the electrostatic and dispersion layouts, and the force-code
    quantization constants.  Built once by :func:`make_pair_spec` and
    reused every step.

    ``e_inv``/``d_inv`` (reciprocal segment widths) and ``q_mul``
    (``q_scale / q_limit``) are what lets the compiled walk drop a
    division where that is exact: each is set only when every divisor
    it replaces is a power of two, and is ``None`` / ``0.0`` otherwise,
    which keeps the literal division.  The NumPy forms never read
    them; they evaluate ``tables`` (the
    :class:`~repro.functions.KernelTableSet`) with ``lj`` (the
    :class:`~repro.forcefield.LJTable`) and quantize with ``codec``,
    the objects the arrays above were taken from.
    """

    charges: np.ndarray
    types: np.ndarray
    amat: np.ndarray
    bmat: np.ndarray
    n_types: int
    coulomb: float
    cutoff2: float
    umax: float
    e_starts: np.ndarray
    e_widths: np.ndarray
    e_cf: np.ndarray
    e_ce: np.ndarray
    d_starts: np.ndarray
    d_widths: np.ndarray
    c12f: np.ndarray
    c6f: np.ndarray
    c12e: np.ndarray
    c6e: np.ndarray
    q_limit: float
    q_scale: float
    e_inv: np.ndarray | None = None
    d_inv: np.ndarray | None = None
    q_mul: float = 0.0
    tables: object = None
    lj: object = None
    codec: object = None

    @cached_property
    def c(self) -> PairSpec:
        """The spec as the walk's ``rk_pair_spec`` (pointers into these arrays)."""
        fields = {}
        for name, _ in PairSpec._fields_:
            if name.endswith("_nseg"):
                value = len(getattr(self, name[0] + "_starts"))
            else:
                value = getattr(self, name)
                if isinstance(value, np.ndarray):
                    value = value.ctypes.data
            fields[name] = value
        return PairSpec(**fields)


def _pow2(x: float) -> bool:
    """``x`` is a power of two far from the ends of the exponent range."""
    mantissa, exponent = math.frexp(x)
    return mantissa == 0.5 and -500 < exponent < 500


def _pow2_reciprocals(widths: np.ndarray) -> np.ndarray | None:
    """``1 / widths`` when dividing by each is an exact scaling, else None."""
    if all(_pow2(w) and w <= 1.0 for w in widths.tolist()):
        return np.ascontiguousarray(1.0 / widths)
    return None


def make_pair_spec(tables, lj_table, charges, type_ids, force_codec=None) -> PairTableSpec:
    """Precompute the static inputs of ``pair_walk`` and ``pair_rows``.

    The A/B matrices are the :class:`~repro.forcefield.LJTable`'s own
    (the ones :meth:`LJTable.pair_coefficients` gathers from).  Without
    a ``force_codec`` the spec serves only the float ``pair_rows``,
    which quantizes nothing.
    """
    from repro.util import COULOMB

    def seg(table):
        cq = np.ascontiguousarray(table.coeffs_quant, dtype=np.float64)
        if cq.ndim != 2 or cq.shape[1] != 4:
            raise ValueError("fused pair kernel requires cubic tables")
        return (
            np.ascontiguousarray(table.seg_starts, dtype=np.float64),
            np.ascontiguousarray(table.seg_widths, dtype=np.float64),
            cq,
        )

    e_starts, e_widths, e_cf = seg(tables.tables["elec_f"])
    ee_starts, _, e_ce = seg(tables.tables["elec_e"])
    d_starts, d_widths, c12f = seg(tables.tables["lj12_f"])
    _, _, c6f = seg(tables.tables["lj6_f"])
    _, _, c12e = seg(tables.tables["lj12_e"])
    _, _, c6e = seg(tables.tables["lj6_e"])
    if tables.tables["elec_f"].segmentation_key() != tables.tables["elec_e"].segmentation_key():
        raise ValueError("electrostatic tables must share a segmentation")
    for name in ("lj6_f", "lj12_e", "lj6_e"):
        if tables.tables[name].segmentation_key() != tables.tables["lj12_f"].segmentation_key():
            raise ValueError("dispersion tables must share a segmentation")

    amat = np.ascontiguousarray(lj_table.a_ij)
    bmat = np.ascontiguousarray(lj_table.b_ij)

    q_limit = q_scale = 1.0
    if force_codec is not None:
        q_limit, q_scale = float(force_codec.limit), float(force_codec.fmt.scale)
    return PairTableSpec(
        charges=np.ascontiguousarray(charges, dtype=np.float64),
        types=np.ascontiguousarray(type_ids, dtype=np.int64),
        amat=amat,
        bmat=bmat,
        n_types=int(amat.shape[0]),
        coulomb=float(COULOMB),
        cutoff2=float(tables.cutoff) ** 2,
        umax=float(np.nextafter(1.0, 0.0)),
        e_starts=e_starts,
        e_widths=e_widths,
        e_cf=e_cf,
        e_ce=e_ce,
        d_starts=d_starts,
        d_widths=d_widths,
        c12f=c12f,
        c6f=c6f,
        c12e=c12e,
        c6e=c6e,
        q_limit=q_limit,
        q_scale=q_scale,
        e_inv=_pow2_reciprocals(e_widths),
        d_inv=_pow2_reciprocals(d_widths),
        q_mul=q_scale / q_limit if _pow2(q_limit) and _pow2(q_scale) else 0.0,
        tables=tables,
        lj=lj_table,
        codec=force_codec,
    )


def _csr_contains(excl, ii, jj, n: int) -> np.ndarray:
    """Whether each pair ``(i, j)``, ``i < j``, is a partner entry of the CSR."""
    ptr, idx = excl
    owners = np.repeat(np.arange(len(ptr) - 1, dtype=np.int64), np.diff(ptr))
    keys = np.sort(owners * np.int64(n) + idx)
    if not len(keys):
        return np.zeros(len(ii), dtype=bool)
    cand = ii * np.int64(n) + jj
    pos = np.minimum(np.searchsorted(keys, cand), len(keys) - 1)
    return keys[pos] == cand


class NumpyKernels:
    """Reference tier: NumPy expressions matching the simulator's own.

    These mirror (and in the scatter cases simply call) the
    existing vectorized code paths, so "compiled vs numpy" identity is
    the same statement as "compiled vs simulator" identity.
    """

    tier = "numpy"
    #: Farm width of :meth:`map_chunks`.  The NumPy tier is always
    #: single-threaded (BLAS/NumPy manage their own internals); the knob
    #: only widens the compiled tier's farm and is bitwise-invisible there.
    threads = 1

    def map_chunks(self, fn, nchunks):
        """Run ``fn(0) .. fn(nchunks - 1)``, possibly concurrently.

        The chunks must write disjoint outputs; ordering is therefore
        bitwise-irrelevant.  The reference tier runs them serially.
        """
        for b in range(nchunks):
            fn(b)

    # -- neighbor rebuild --------------------------------------------------

    def neighbor_build(self, wrapped, lengths, reach, n_blocks, block_len, excl, bufs):
        """Canonical Verlet list of ``n_blocks`` stacked blocks, as rows.

        Every pair ``i < j`` within one block whose minimum-image
        distance passes :func:`~repro.geometry.cells.within` at ``reach``,
        except the partners in ``excl`` — a per-atom CSR ``(ptr, idx)``
        of partners ``j > i``, or ``None`` — sorted by ``(i, j)`` and
        returned as rows ``(row_ptr, partners)``
        (:func:`~repro.geometry.neighborlist.pairs_to_rows`).
        ``wrapped`` holds every coordinate in ``[0, L)``.  ``bufs`` is the
        caller's ``[row_ptr, partners]`` buffers, which only the compiled
        form writes.  Here: batched cell candidates, reach filter,
        exclusion mask, one canonical sort of the survivors — or, in a
        box that admits no binning, brute force per block — then the
        pairs counted into rows.
        """
        from repro.geometry.cells import (
            _canonical_order,
            brute_force_pairs,
            cell_candidate_pairs,
            within,
        )
        from repro.geometry.neighborlist import pairs_to_rows
        from repro.geometry.pbc import Box

        box = Box(lengths)
        cand = cell_candidate_pairs(wrapped, box, reach, n_blocks)
        if cand is None:
            blocks = wrapped.reshape(n_blocks, block_len, 3)
            parts = [brute_force_pairs(x, box, reach) for x in blocks]
            ii = np.concatenate([bf.i + r * block_len for r, bf in enumerate(parts)])
            jj = np.concatenate([bf.j + r * block_len for r, bf in enumerate(parts)])
        else:
            kept = within(wrapped, box, *cand, reach * reach)
            ii, jj = kept.i, kept.j
        if excl is not None and len(ii):
            keep = ~_csr_contains(excl, ii, jj, len(wrapped))
            ii, jj = ii[keep], jj[keep]
        if cand is not None and len(ii):
            order = _canonical_order(ii, jj, len(wrapped))
            ii, jj = ii[order], jj[order]
        return pairs_to_rows(ii, jj, len(wrapped))

    # -- tabulated pair kernels ----------------------------------------------

    def _tabulated(self, spec: PairTableSpec, wrapped, row_ptr, partners, lengths):
        """The rows, expanded to ``(i, j)`` candidates and filtered, through
        the force field's tabulated kernel."""
        from repro.forcefield import nonbonded_real_space_tabulated
        from repro.geometry.cells import within
        from repro.geometry.neighborlist import rows_to_pairs
        from repro.geometry.pbc import Box

        return nonbonded_real_space_tabulated(
            within(wrapped, Box(lengths), *rows_to_pairs(row_ptr, partners), spec.cutoff2),
            spec.charges, spec.types, spec.lj, spec.tables,
        )

    def pair_walk(self, spec: PairTableSpec, wrapped, row_ptr, partners, lengths, acc,
                  oi, oj, e_lj, e_coul):
        """One range-limited evaluation, Verlet rows to accumulator.

        :meth:`pair_rows`, then the rows quantized by ``spec.codec`` and
        :meth:`deposit_pairs`-ed into the ``(n_atoms, 3)`` int64 ``acc``;
        of the per-pair data only the surviving pairs ``oi[:m], oj[:m]``
        and their energies ``e_lj[:m], e_coul[:m]`` are kept (all four
        sized to the candidate count ``len(partners)``).  Returns ``m``.
        """
        nb = self._tabulated(spec, wrapped, row_ptr, partners, lengths)
        m = nb.n_pairs
        oi[:m], oj[:m], e_lj[:m], e_coul[:m] = nb.i, nb.j, nb.e_lj_pairs, nb.e_coul_pairs
        self.deposit_pairs(acc, nb.i, nb.j, spec.codec.quantize_round_only(nb.force))
        return m

    def pair_rows(self, spec: PairTableSpec, wrapped, row_ptr, partners, lengths,
                  oi, oj, rows, e_lj, e_coul):
        """The walk's float64 twin: Verlet rows to per-pair force rows.

        The rows expanded to ``(i, j)`` candidates with ``np.repeat``,
        :func:`~repro.geometry.cells.within` at the tables' cutoff, then
        :func:`~repro.forcefield.nonbonded_real_space_tabulated`: the
        surviving pairs in ``oi[:m], oj[:m]``, the force on atom ``i``
        in ``rows[:m]``, the energies in ``e_lj[:m], e_coul[:m]`` (all
        sized to the candidate count).  Nothing is summed — that is
        :meth:`deposit_pairs_float`'s.  Returns ``m``.
        """
        nb = self._tabulated(spec, wrapped, row_ptr, partners, lengths)
        m = nb.n_pairs
        oi[:m], oj[:m], rows[:m] = nb.i, nb.j, nb.force
        e_lj[:m], e_coul[:m] = nb.e_lj_pairs, nb.e_coul_pairs
        return m

    # -- fixed-point deposits --------------------------------------------

    def deposit_pairs(self, raw, i, j, codes):
        with np.errstate(over="ignore"):
            np.add.at(raw, i, codes)
            np.subtract.at(raw, j, codes)

    def scatter_rows(self, raw, idx, codes):
        with np.errstate(over="ignore"):
            np.add.at(raw, idx, codes)

    # -- float deposit -----------------------------------------------------

    def deposit_pairs_float(self, forces, i, j, rows):
        """``forces[i] += rows; forces[j] -= rows`` in the float path's order.

        Float addition does not commute, so the order is the contract:
        every ``i`` row in pair order, then every ``j`` row in pair
        order — these two calls, which is what the compiled tier
        replays (a fused one-loop deposit is a different sum).
        """
        np.add.at(forces, i, rows)
        np.add.at(forces, j, -rows)

    # -- NT force-export marks --------------------------------------------

    def nt_marks(self, i, j, home, node_tab, marks_i, marks_j):
        """Mark the per-atom force sums one step's pairs leave on each node.

        Pair ``(i, j)`` is computed on ``node_tab[home[i], home[j]]``
        (the tabulated NT rule over home-box ids), and that node then
        holds one summed force for atom ``i`` and one for atom ``j``.
        ``marks_i`` / ``marks_j`` are ``(n_atoms, n_nodes)`` bool maps,
        cleared here, of the i side's and the j side's (atom, node) sums.
        """
        node = node_tab[home[i], home[j]]
        for marks, atoms in ((marks_i, i), (marks_j, j)):
            marks[...] = False
            marks[atoms, node] = True

    # -- mesh spread and gather --------------------------------------------

    @staticmethod
    def mesh_block(axis_w, axis_d, axis_i, mesh, c2, lo, hi):
        """``(w, flat, inside)`` of atoms ``[lo, hi)`` of a stencil plan, each ``(m, k)``.

        The stencil points run x-major.  ``w = (wxn·wy)·wz`` inside the
        ``(dx²+dy²)+dz² <= c2`` sphere and ``+0.0`` outside it, ``flat``
        is the int64 mesh index ``(ix·my + iy)·mz + iz`` and ``inside``
        the sphere test.  Each is the value the C kernels form for that
        point, here as whole-array products over the block.
        """
        m, k = hi - lo, math.prod(a.shape[1] for a in axis_w)
        wx, wy, wz = (a[lo:hi] for a in axis_w)
        w = ((wx[:, :, None] * wy[:, None, :])[..., None] * wz[:, None, None, :]).reshape(m, k)
        d2 = [a[lo:hi] * a[lo:hi] for a in axis_d]
        r2 = (d2[0][:, :, None] + d2[1][:, None, :])[..., None] + d2[2][:, None, None, :]
        inside = r2.reshape(m, k) <= c2
        w *= inside
        ix, iy, iz = (a[lo:hi].astype(np.int64) for a in axis_i)
        fxy = ix[:, :, None] * int(mesh[1]) + iy[:, None, :]
        flat = (fxy[..., None] * int(mesh[2]) + iz[:, None, None, :]).reshape(m, k)
        return w, flat, inside

    def mesh_spread_axes(self, acc, axis_w, axis_d, axis_i, mesh, c2, qc):
        """Quantized spread of a stencil plan's atoms into the flat int64 mesh ``acc``.

        ``acc[idx] += rint(w · qc)`` over every stencil point, for finite
        ``qc``; a point outside the sphere adds ``rint(±0.0) == 0``.
        ``axis_w / axis_d / axis_i`` are the plan's three ``(n, ka)``
        weight, displacement and wrapped-index rows.  Integer sums
        commute, so the blocking is invisible.
        """
        for lo in range(0, len(qc), _MESH_BLOCK):
            hi = min(lo + _MESH_BLOCK, len(qc))
            w, flat, _ = self.mesh_block(axis_w, axis_d, axis_i, mesh, c2, lo, hi)
            scatter_add_int64(acc, flat, np.rint(w * qc[lo:hi, None]).astype(np.int64))

    def mesh_spread_float_axes(self, acc, axis_w, axis_d, axis_i, mesh, c2, q, chunk):
        """Unquantized spread into the flat float64 mesh ``acc``.

        Per ``chunk`` atoms, ``acc += bincount(idx, w · q)``, the
        bincount summed in element order from ``+0.0`` bins.  Float sums
        do not commute, so the chunking and that order are the contract.
        """
        if chunk < 1:
            raise ValueError(f"mesh_spread_float_axes: chunk must be >= 1, got {chunk}")
        for lo in range(0, len(q), chunk):
            hi = min(lo + chunk, len(q))
            w, flat, _ = self.mesh_block(axis_w, axis_d, axis_i, mesh, c2, lo, hi)
            w *= q[lo:hi, None]
            acc += np.bincount(flat.ravel(), weights=w.ravel(), minlength=len(acc))

    def mesh_gather_axes(self, out, axis_w, axis_d, axis_i, mesh, c2, phi, lo, hi):
        """Gather-and-contract for atoms ``[lo, hi)`` into ``out[i - lo]``.

        The three stencil sums ``Σ phi[idx]·w·(dx, dy, dz)`` of each
        atom, before its charge prefactor, added in the gather-order
        lemma's order (DESIGN.md) by :func:`_stencil_sums`.  A point
        outside the sphere adds ``-0.0``, i.e. nothing, whatever
        ``phi`` holds there.
        """
        shape = tuple(a.shape[1] for a in axis_w)
        for a in range(lo, hi, _MESH_BLOCK):
            b = min(a + _MESH_BLOCK, hi)
            w, flat, inside = self.mesh_block(axis_w, axis_d, axis_i, mesh, c2, a, b)
            # mode="clip" skips the bounds check: the rows are pre-wrapped.
            g = np.take(phi, flat, mode="clip")
            g *= w
            np.copyto(g, -0.0, where=~inside)
            _stencil_sums(
                g.reshape(b - a, *shape), *(d[a:b] for d in axis_d), out[a - lo : b - lo]
            )

    # -- constraints -------------------------------------------------------

    def shake_batch(self, solver, positions, reference, tol, nrep, natoms):
        """SHAKE ``nrep`` blocks stacked along the atom axis, in place.

        ``solver`` is one block's :class:`ConstraintSolver`; block ``r``
        owns rows ``[r * natoms, (r + 1) * natoms)`` of ``positions`` and
        ``reference`` (a solo system is one block, an ensemble's replicas
        are ``nrep``).  The reference tier runs the solver's NumPy sweep
        per block slice, which is the bitwise definition of the contract.
        """
        for r in range(nrep):
            sl = slice(r * natoms, (r + 1) * natoms)
            solver._shake_numpy(positions[sl], reference[sl], tol)
        return positions

    def rattle_batch(self, solver, velocities, positions, tol, nrep, natoms):
        """RATTLE ``nrep`` blocks stacked along the atom axis, in place."""
        for r in range(nrep):
            sl = slice(r * natoms, (r + 1) * natoms)
            solver._rattle_numpy(velocities[sl], positions[sl], tol)
        return velocities


class CompiledKernels(NumpyKernels):
    """ctypes tier: same contract, C hot loops.

    Inherits the NumPy implementations so any primitive without a C
    counterpart (or future additions) transparently falls back.
    """

    tier = "compiled"

    def __init__(self, lib, threads=1):
        self._lib = lib
        self.threads = int(threads)
        self._pool = None
        self._neighbor_work = None  # grow-only scratch
        # Per calling thread (``_scratch``): a stacked mesh pass's lanes
        # run the mesh kernels concurrently on this suite (``map_chunks``).
        self._thread_scratch = threading.local()

    def map_chunks(self, fn, nchunks):
        """Run disjoint-output chunks on a persistent Python pool.

        The one place a thread count takes effect: the lanes of a
        stacked mesh pass (an ensemble's per-replica spreads, FFTs and
        gathers).  ctypes and pocketfft release the GIL, so the chunks
        genuinely overlap.
        """
        if self.threads <= 1 or nchunks <= 1:
            for b in range(nchunks):
                fn(b)
            return
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.threads, thread_name_prefix="repro-kernels"
            )
        list(self._pool.map(fn, range(nchunks)))

    # -- kernels -----------------------------------------------------------

    # The pair and mesh kernels read and write through raw pointers, so
    # each checks every array against the layout C walks; any array
    # that does not conform — a strided view, another dtype, a short
    # buffer — runs the inherited NumPy form instead.

    @staticmethod
    def _rows_conform(wrapped, row_ptr, partners, lengths, outs) -> bool:
        """Verlet rows as C reads them — an int64 ``row_ptr`` per atom
        plus one, from 0 to the int32 partner count — and ``outs``,
        ``(array, dtype, row shape)`` scratch of at least that count."""
        n, m = len(wrapped), len(partners)
        return (
            _conforms(wrapped, (n, 3), np.float64)
            and _conforms(row_ptr, (n + 1,), np.int64)
            and _conforms(partners, (m,), np.int32)
            and _conforms(lengths, (3,), np.float64)
            and row_ptr[0] == 0
            and row_ptr[n] == m
            and all(_conforms(a[:m], (m, *row), t) for a, t, row in outs)
        )

    def neighbor_build(self, wrapped, lengths, reach, n_blocks, block_len, excl, bufs):
        """:meth:`NumpyKernels.neighbor_build` as one C cell sweep.

        The rows land in ``bufs``, the caller's ``[row_ptr, partners]``
        (int64, int32), and come back as ``row_ptr`` itself and a prefix
        view of ``partners``, so a steady-state rebuild allocates
        nothing.  A row that does not fit stops the sweep before it;
        ``partners`` is then replaced by a larger buffer sized from the
        rows already done (:func:`_extrapolated_pairs`, 1/8 headroom) and
        the sweep resumes at that row, so every row is swept once — a
        fresh list's empty buffers included.
        """
        n = n_blocks * block_len
        wrapped = np.asarray(wrapped, dtype=np.float64, order="C")
        if len(bufs[0]) != n + 1:
            bufs[0] = np.empty(n + 1, dtype=np.int64)
        if (
            not _conforms(wrapped, (n, 3), np.float64)
            or not _conforms(bufs[0], (n + 1,), np.int64)
            or not _conforms(bufs[1], (len(bufs[1]),), np.int32)
            or (excl is not None and len(excl[0]) != n + 1)
        ):
            raise ValueError("neighbor_build: arrays do not match the block layout")
        work = self._neighbor_work
        need = int(self._lib.rk_neighbor_work_size(block_len))
        if work is None or len(work) < need:
            work = self._neighbor_work = np.empty(need, dtype=np.int64)
        ptr, idx = (None, None) if excl is None else (_ptr(excl[0]), _ptr(excl[1]))
        at = np.zeros(2, dtype=np.int64)  # [first row to sweep, pairs written]
        while True:
            row_ptr, partners = bufs
            row_pairs = int(
                self._lib.rk_neighbor_build(
                    n_blocks, block_len, _ptr(wrapped), _ptr(lengths), float(reach),
                    ptr, idx, _ptr(work), _ptr(row_ptr), _ptr(partners), len(partners),
                    _ptr(at),
                )
            )
            row, m = int(at[0]), int(at[1])
            if not row_pairs:
                return row_ptr, partners[:m]
            size = _extrapolated_pairs(m + row_pairs, row + 1, block_len, n_blocks)
            bufs[1] = np.empty(size + size // 8, dtype=np.int32)
            bufs[1][:m] = partners[:m]

    def pair_walk(self, spec: PairTableSpec, wrapped, row_ptr, partners, lengths, acc,
                  oi, oj, e_lj, e_coul):
        """:meth:`NumpyKernels.pair_walk` as one C pass, bit for bit.

        Row by row, atom ``i`` held: filter, tables, quantize and deposit
        per block of its partners, with nothing stored per pair but the
        outputs.  The j side reads the coordinates as three arrays, a
        transpose into the calling thread's scratch (:meth:`_scratch`).
        """
        outs = ((oi, np.int64, ()), (oj, np.int64, ()), (e_lj, np.float64, ()),
                (e_coul, np.float64, ()))
        if not (
            self._rows_conform(wrapped, row_ptr, partners, lengths, outs)
            and _conforms(acc, (len(wrapped), 3), np.int64)
        ):
            return NumpyKernels.pair_walk(self, spec, wrapped, row_ptr, partners, lengths,
                                          acc, oi, oj, e_lj, e_coul)
        n = len(wrapped)
        return int(
            self._lib.rk_pair_walk(
                n, _ptr(row_ptr), _ptr(partners), _ptr(wrapped), _ptr(self._scratch(3 * n)),
                _ptr(lengths), ctypes.byref(spec.c), _ptr(acc), _ptr(oi), _ptr(oj),
                _ptr(e_lj), _ptr(e_coul),
            )
        )

    def pair_rows(self, spec: PairTableSpec, wrapped, row_ptr, partners, lengths,
                  oi, oj, rows, e_lj, e_coul):
        """:meth:`NumpyKernels.pair_rows` in C, sharing the walk's table
        arithmetic."""
        outs = ((oi, np.int64, ()), (oj, np.int64, ()), (rows, np.float64, (3,)),
                (e_lj, np.float64, ()), (e_coul, np.float64, ()))
        if not self._rows_conform(wrapped, row_ptr, partners, lengths, outs):
            return NumpyKernels.pair_rows(self, spec, wrapped, row_ptr, partners, lengths,
                                          oi, oj, rows, e_lj, e_coul)
        n = len(wrapped)
        return int(
            self._lib.rk_pair_rows(
                n, _ptr(row_ptr), _ptr(partners), _ptr(wrapped), _ptr(self._scratch(3 * n)),
                _ptr(lengths), ctypes.byref(spec.c), _ptr(oi), _ptr(oj), _ptr(rows),
                _ptr(e_lj), _ptr(e_coul),
            )
        )

    def nt_marks(self, i, j, home, node_tab, marks_i, marks_j):
        n_atoms, n_nodes = marks_i.shape
        if not (
            _conforms(i, (len(i),), np.int64) and _conforms(j, (len(i),), np.int64)
            and _conforms(home, (n_atoms,), np.int64)
            and _conforms(node_tab, (n_nodes, n_nodes), np.int64)
            and _conforms(marks_i, (n_atoms, n_nodes), np.bool_)
            and _conforms(marks_j, (n_atoms, n_nodes), np.bool_)
        ):
            raise ValueError("nt_marks: arrays do not match the machine layout")
        self._lib.rk_nt_marks(
            len(i), _ptr(i), _ptr(j), _ptr(home), _ptr(node_tab),
            n_nodes, n_atoms, _ptr(marks_i), _ptr(marks_j),
        )

    def deposit_pairs(self, raw, i, j, codes):
        """``raw[i] += codes; raw[j] -= codes`` wrapping; ``raw`` C cannot
        write in place (a strided view, another dtype) runs the NumPy form."""
        i, j, codes = _i64(i), _i64(j), _i64(codes)
        n = len(i)
        if len(j) != n or codes.shape != (n, 3):
            raise ValueError("deposit_pairs: i, j and codes differ in length")
        if not _conforms(raw, (len(raw), 3), np.int64):
            return NumpyKernels.deposit_pairs(self, raw, i, j, codes)
        self._lib.rk_deposit_pairs(_ptr(raw), _ptr(i), _ptr(j), _ptr(codes), n)

    def deposit_pairs_float(self, forces, i, j, rows):
        n = len(i)
        if not (
            _conforms(forces, (len(forces), 3), np.float64)
            and _conforms(rows, (n, 3), np.float64)
            and len(j) == n
        ):
            return NumpyKernels.deposit_pairs_float(self, forces, i, j, rows)
        self._lib.rk_deposit_pairs_float(
            _ptr(forces), _ptr(_i64(i)), _ptr(_i64(j)), _ptr(rows), n
        )

    def scatter_rows(self, raw, idx, codes):
        """``raw[idx] += codes`` wrapping; ``raw`` as for :meth:`deposit_pairs`."""
        idx, codes = _i64(idx), _i64(codes)
        n = len(idx)
        if codes.shape != (n, 3):
            raise ValueError("scatter_rows: idx and codes differ in length")
        if not _conforms(raw, (len(raw), 3), np.int64):
            return NumpyKernels.scatter_rows(self, raw, idx, codes)
        self._lib.rk_scatter_rows(_ptr(raw), _ptr(idx), _ptr(codes), n)

    @staticmethod
    def _mesh_axes(axis_w, axis_d, axis_i, mesh):
        """A stencil plan's per-axis rows as ``MeshAxes``, or None when
        one of them does not conform.

        That each index row is consecutive mod its mesh extent (what
        :meth:`~repro.ewald.gse.MeshStencilPlan.build` writes) is the
        plan's promise — the C kernels read only the first index of a z
        row, which is then one run in halo'd columns (the quantized
        spread and the gather, ``kzp`` lanes: ``kz`` rounded up to whole
        blocks of ``RK_ZLANES``) or runs of contiguous mesh points (the
        float spread).
        """
        n = len(axis_w[0])
        ks = [a.shape[1] for a in axis_w]
        rows = (*axis_w, *axis_d, *axis_i)
        dtypes = (np.float64,) * 6 + (np.int32,) * 3
        if not all(_conforms(a, (n, k), t) for a, k, t in zip(rows, ks * 3, dtypes)):
            return None
        kzp = -(-ks[2] // _Z_LANES) * _Z_LANES
        return MeshAxes(*ks, kzp, *(int(m) for m in mesh), *(_ptr(a) for a in rows))

    def _scratch(self, points: int) -> np.ndarray:
        """The calling thread's scratch, at least ``points`` float64.

        The float spread's per-chunk bins, the halo'd z columns of the
        quantized spread and the gather, or the pair walks' transposed
        coordinates (C zeroes or fills it per call); one grow-only array
        per thread serves all five, since a thread runs one kernel at a
        time.
        """
        part = getattr(self._thread_scratch, "array", None)
        if part is None or len(part) < points:
            part = self._thread_scratch.array = np.empty(points)
        return part

    def _halo(self, axes) -> np.ndarray:
        """The scratch as halo'd columns: ``mx·my`` of ``mz + kzp - 1`` points."""
        return self._scratch(axes.mx * axes.my * (axes.mz + axes.kzp - 1))

    def mesh_spread_axes(self, acc, axis_w, axis_d, axis_i, mesh, c2, qc):
        """:meth:`NumpyKernels.mesh_spread_axes` as one C pass from the
        axis rows, with no stencil block."""
        axes = self._mesh_axes(axis_w, axis_d, axis_i, mesh)
        n = len(axis_w[0])
        if axes is None or not (
            _conforms(acc, (int(np.prod(mesh)),), np.int64) and _conforms(qc, (n,), np.float64)
        ):
            return NumpyKernels.mesh_spread_axes(self, acc, axis_w, axis_d, axis_i, mesh, c2, qc)
        self._lib.rk_mesh_spread_axes(
            ctypes.byref(axes), n, float(c2), _ptr(qc), _ptr(acc), _ptr(self._halo(axes))
        )

    def mesh_spread_float_axes(self, acc, axis_w, axis_d, axis_i, mesh, c2, q, chunk):
        """:meth:`NumpyKernels.mesh_spread_float_axes` in C, same chunks,
        same per-bin order."""
        axes = self._mesh_axes(axis_w, axis_d, axis_i, mesh)
        n, npts = len(axis_w[0]), int(np.prod(mesh))
        if chunk < 1 or axes is None or not (
            _conforms(acc, (npts,), np.float64) and _conforms(q, (n,), np.float64)
        ):
            return NumpyKernels.mesh_spread_float_axes(
                self, acc, axis_w, axis_d, axis_i, mesh, c2, q, chunk
            )
        self._lib.rk_mesh_spread_float_axes(
            ctypes.byref(axes), n, float(c2), _ptr(q), _ptr(acc), npts,
            _ptr(self._scratch(npts)), int(chunk),
        )

    def mesh_gather_axes(self, out, axis_w, axis_d, axis_i, mesh, c2, phi, lo, hi):
        """:meth:`NumpyKernels.mesh_gather_axes` as one C pass, summing
        each atom's stencil as it walks it."""
        if not 0 <= lo <= hi <= len(axis_w[0]):
            raise ValueError(f"mesh_gather_axes: atoms [{lo}, {hi}) outside the plan")
        axes = self._mesh_axes(axis_w, axis_d, axis_i, mesh)
        if axes is None or not (
            _conforms(out, (hi - lo, 3), np.float64)
            and _conforms(phi, (int(np.prod(mesh)),), np.float64)
        ):
            return NumpyKernels.mesh_gather_axes(
                self, out, axis_w, axis_d, axis_i, mesh, c2, phi, lo, hi
            )
        self._lib.rk_mesh_gather_axes(
            ctypes.byref(axes), lo, hi, float(c2), _ptr(phi), _ptr(self._halo(axes)), _ptr(out)
        )

    # The constraint sweeps update their first array in place, so one C
    # cannot write there as it is — or a solver without constraints —
    # runs the NumPy form; the read-only second array is normalised.

    @staticmethod
    def _sweep_arrays(solver, target):
        """The solver's flattened constraint arrays, or None for NumPy."""
        if not _conforms(target, (len(target), 3), np.float64):
            return None
        return solver._compiled_arrays()

    def shake_batch(self, solver, positions, reference, tol, nrep, natoms):
        pre = self._sweep_arrays(solver, positions)
        if pre is None:
            return NumpyKernels.shake_batch(
                self, solver, positions, reference, tol, nrep, natoms
            )
        ci, cj, d2, inv, lengths, order, starts, dref, dx_all, d2_all = pre
        self._lib.rk_shake_batch(
            int(nrep), int(natoms),
            _ptr(positions), _ptr(np.asarray(reference, dtype=np.float64, order="C")),
            _ptr(ci), _ptr(cj), _ptr(d2), _ptr(inv), _ptr(lengths),
            len(ci), _ptr(order), _ptr(starts), len(starts) - 1,
            solver.iterations, float(tol), _ptr(dref),
        )
        return positions

    def rattle_batch(self, solver, velocities, positions, tol, nrep, natoms):
        pre = self._sweep_arrays(solver, velocities)
        if pre is None:
            return NumpyKernels.rattle_batch(
                self, solver, velocities, positions, tol, nrep, natoms
            )
        ci, cj, d2, inv, lengths, order, starts, dref, dx_all, d2_all = pre
        self._lib.rk_rattle_batch(
            int(nrep), int(natoms),
            _ptr(velocities), _ptr(np.asarray(positions, dtype=np.float64, order="C")),
            _ptr(ci), _ptr(cj), _ptr(inv), _ptr(lengths),
            len(ci), _ptr(order), _ptr(starts), len(starts) - 1,
            solver.iterations, float(tol), _ptr(dx_all), _ptr(d2_all),
        )
        return velocities


#: The NumPy suite: what ``get_suite("numpy")`` returns, and what every
#: component holds when it is not handed a suite.
NUMPY_SUITE = NumpyKernels()
#: Compiled suites keyed by thread count (each owns its farm).
_COMPILED_SUITES: dict[int, CompiledKernels] = {}
_warned = False


def _reset_pools() -> None:
    """Drop Python thread pools after fork (threads don't survive it).

    ``repro serve``'s forked worker processes rebuild their
    :meth:`CompiledKernels.map_chunks` executors lazily instead of
    deadlocking on worker threads that exist only in the parent.  The
    fallback warning is once per process, so a child whose parent
    already warned (the CLI's flag check) warns again for its own log.
    """
    global _warned
    _warned = False
    for suite in _COMPILED_SUITES.values():
        suite._pool = None


os.register_at_fork(after_in_child=_reset_pools)


def get_suite(tier: str | None = None, threads: int | None = None):
    """Resolve the tier/threads knobs to a kernel suite: the one resolver.

    Each knob is the argument, else ``REPRO_KERNEL_TIER`` /
    ``REPRO_KERNEL_THREADS`` (the only place either variable is read),
    else the default: ``"compiled"`` where the extension builds (about a
    second, once per checkout) and ``"numpy"`` otherwise, 1 thread.  The
    suite's ``tier`` and ``threads`` are what a run executes on:
    :data:`NUMPY_SUITE` (1 thread) for the NumPy tier whatever the
    count, and for a *requested* compiled tier that is unavailable,
    after a one-time warning rather than a failure.  Every returned
    suite produces identical bytes for identical inputs — the knobs only
    move work between implementations.
    """
    global _warned
    if tier is None:
        tier = os.environ.get("REPRO_KERNEL_TIER")
    if tier is None:
        tier = "compiled" if available() else "numpy"
    if tier not in KERNEL_TIERS:
        raise ValueError(f"unknown kernel_tier {tier!r}; expected one of {KERNEL_TIERS}")
    if threads is None:
        raw = os.environ.get("REPRO_KERNEL_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(f"REPRO_KERNEL_THREADS={raw!r} is not an integer") from None
    threads = int(threads)
    if not 1 <= threads <= _MAX_THREADS:
        raise ValueError(f"kernel_threads must be in [1, {_MAX_THREADS}], got {threads}")
    if tier == "numpy":
        # NumPy manages its own internal parallelism; threads is the
        # compiled tier's farm width and is deliberately ignored here.
        return NUMPY_SUITE
    try:
        lib = load()
    except KernelBuildError as exc:
        if not _warned:
            warnings.warn(
                f"compiled kernel tier unavailable ({exc}); "
                "falling back to the numpy tier",
                RuntimeWarning,
                stacklevel=2,
            )
            _warned = True
        return NUMPY_SUITE
    suite = _COMPILED_SUITES.get(threads)
    if suite is None:
        suite = _COMPILED_SUITES[threads] = CompiledKernels(lib, threads=threads)
    return suite


def kernel_info(tier: str | None = None, threads: int | None = None) -> dict:
    """Which kernels a run with these knobs executes, for the record.

    ``tier`` and ``threads`` are those of the suite :func:`get_suite`
    returns (after any fallback); on the compiled tier the build's
    :func:`~repro.kernels.build.build_record` is merged in — compiler,
    effective flags, host-ISA token, ladder rung, ``.so`` path.
    Observational: ``repro info`` prints it and a serve worker's
    ``online`` event carries it; nothing numeric reads it.
    """
    suite = get_suite(tier, threads)
    info = {"tier": suite.tier, "threads": suite.threads}
    if suite.tier == "compiled":
        info.update(build_record())
    return info
