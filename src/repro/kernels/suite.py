"""Kernel tiers: NumPy reference implementations and ctypes wrappers.

A *kernel suite* is the small set of hot-loop primitives the force
path, neighbor list, constraint solver and mesh pass dispatch through:
neighbor-list rebuild (to the Verlet list's rows), the range-limited
pair walk (the cached rows straight to the fixed-point force
accumulator, and for the machine each atom's home-box sets) and its
float64 twin (rows to per-pair force rows), the NT force-export routes
from those sets, the fixed-point pair deposit and the ordered float deposit, the fused
mesh spread and gather, and the constraint solves (SETTLE, and the
SHAKE/RATTLE sweeps of every other constraint).  Each primitive has
one form: the rebuild and the solves take ``n`` stacked blocks, and a
solo system is one block.  The rebuild and the walks read position codes
(:mod:`repro.geometry.codes`), and the NumPy forms filter candidates
with the one cutoff predicate, :func:`repro.geometry.cells.within`.
Two tiers implement it:

* :class:`NumpyKernels` — pure NumPy, always available, and the
  reference the property tests compare against.  Every primitive a
  component calls exists here with the compiled signature.
* :class:`CompiledKernels` — thin ctypes shims over ``_kernels.c``,
  built lazily by :mod:`repro.kernels.build`.  The wrappers own every
  layout question: an array C cannot take as it is runs the NumPy form
  or is a ``ValueError``; a primitive with no C form (the SHAKE/RATTLE
  sweeps) runs the inherited NumPy one.

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
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.fixedpoint.accumulate import scatter_add_int64
from repro.kernels import fft
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
    "DegenerateWaterError",
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


#: ``id(array) -> (weak reference, data pointer)`` of every live array a
#: wrapper has handed to C: reading ``ndarray.ctypes.data`` builds a
#: ctypes object (~2 µs), and a step hands the same persistent buffers —
#: plan rows, accumulators, scratch — to C dozens of times.  An entry
#: leaves when its array dies, before its id can be reused.
_POINTERS: dict[int, tuple] = {}


def _forget(key: int) -> None:
    _POINTERS.pop(key, None)


def _ptr(a: np.ndarray) -> int:
    """The data pointer of ``a``, read once per array object."""
    key = id(a)
    hit = _POINTERS.get(key)
    if hit is not None and hit[0]() is a:
        return hit[1]
    p = a.ctypes.data
    _POINTERS[key] = (weakref.ref(a, lambda _r, key=key: _forget(key)), p)
    return p


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


#: ``settle_batch``'s stages, in the order ``rk_settle_batch`` numbers them.
_SETTLE_STAGES = ("positions", "velocities")


class DegenerateWaterError(ArithmeticError):
    """A rigid water SETTLE cannot solve.

    The position step takes square roots that go negative when a
    molecule has moved too far out of its reference plane (or its
    reference is collinear), and the velocity step's 3x3 system is
    singular for a collinear molecule.  The solve writes no NaN: that
    molecule is left as it was, and this error names the first one —
    its ``stage`` (``"positions"`` or ``"velocities"``), ``block`` (the
    replica), ``molecule`` (its index among the solver's waters) and
    ``atoms`` (O, H1, H2 within the block).
    """

    stage: str
    block: int
    molecule: int
    atoms: tuple[int, int, int]


def _raise_degenerate(solver, stage: str, bad: int) -> None:
    """Raise :class:`DegenerateWaterError` for flat index ``bad``; -1 is none."""
    if bad < 0:
        return
    block, m = divmod(int(bad), len(solver.waters))
    atoms = tuple(int(a) for a in solver.waters[m])
    why = (
        "its solve would take the square root of a negative number"
        if stage == "positions"
        else "its three constraint directions are linearly dependent"
    )
    err = DegenerateWaterError(
        f"SETTLE {stage}: water {m} (atoms {atoms[0]}, {atoms[1]}, {atoms[2]}) "
        f"of block {block} is degenerate: {why}"
    )
    err.stage, err.block, err.molecule, err.atoms = stage, block, m, atoms
    raise err


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

    def neighbor_build(self, codes, lengths, reach, n_blocks, block_len, excl, bufs):
        """Canonical Verlet list of ``n_blocks`` stacked blocks, as rows.

        Every pair ``i < j`` within one block whose position ``codes`` pass
        :func:`~repro.geometry.cells.within` at ``reach``,
        except the partners in ``excl`` — a per-atom CSR ``(ptr, idx)``
        of partners ``j > i``, each row ascending in ``j`` (the compiled
        sweep merges its hits against the rows in order), or ``None`` —
        sorted by ``(i, j)`` and
        returned as rows ``(row_ptr, partners)``
        (:func:`~repro.geometry.neighborlist.pairs_to_rows`).  ``bufs`` is the
        caller's ``[row_ptr, partners]`` buffers, which only the compiled
        form writes.  Here: batched cell candidates, reach filter,
        exclusion mask, one canonical sort of the survivors — or, in a
        box that admits no binning, brute force per block — then the
        pairs counted into rows.
        """
        from repro.geometry import Box, PositionCodec
        from repro.geometry.cells import (
            _canonical_order,
            brute_force_codes,
            cell_candidate_pairs,
            within,
        )
        from repro.geometry.neighborlist import pairs_to_rows

        codec = PositionCodec(Box(lengths))
        cand = cell_candidate_pairs(codes, codec.box, reach, n_blocks)
        if cand is None:
            blocks = codes.reshape(n_blocks, block_len, 3)
            parts = [brute_force_codes(x, codec, reach) for x in blocks]
            ii = np.concatenate([bf.i + r * block_len for r, bf in enumerate(parts)])
            jj = np.concatenate([bf.j + r * block_len for r, bf in enumerate(parts)])
        else:
            kept = within(codes, codec, *cand, reach * reach)
            ii, jj = kept.i, kept.j
        if excl is not None and len(ii):
            keep = ~_csr_contains(excl, ii, jj, len(codes))
            ii, jj = ii[keep], jj[keep]
        if cand is not None and len(ii):
            order = _canonical_order(ii, jj, len(codes))
            ii, jj = ii[order], jj[order]
        return pairs_to_rows(ii, jj, len(codes))

    # -- tabulated pair kernels ----------------------------------------------

    def _tabulated(self, spec: PairTableSpec, codes, row_ptr, partners, lengths):
        """The rows, expanded to ``(i, j)`` candidates and filtered, through
        the force field's tabulated kernel."""
        from repro.forcefield import nonbonded_real_space_tabulated
        from repro.geometry import Box, PositionCodec
        from repro.geometry.cells import within
        from repro.geometry.neighborlist import rows_to_pairs

        codec = PositionCodec(Box(lengths))
        return nonbonded_real_space_tabulated(
            within(codes, codec, *rows_to_pairs(row_ptr, partners), spec.cutoff2),
            spec.charges, spec.types, spec.lj, spec.tables,
        )

    def pair_walk(self, spec: PairTableSpec, codes, row_ptr, partners, lengths, acc,
                  e_rows, counts, tags=None, sets=None):
        """One range-limited evaluation, Verlet rows to accumulator.

        :meth:`pair_rows` at the position codes ``codes``, then the rows quantized by ``spec.codec`` and
        :meth:`deposit_pairs`-ed into the ``(n_atoms, 3)`` int64 ``acc``.
        Each surviving pair's two energies are quantized by
        :data:`~repro.forcefield.ENERGY_CODEC` and wrap-added into
        its row ``i`` of the ``(n_atoms, 2)`` int64 ``e_rows`` (LJ,
        Coulomb); ``counts[i]`` is row ``i``'s survivor count.  Both are
        overwritten, every row.  ``e_rows=None`` is the force-only walk:
        no energy is quantized or summed, and ``acc``, ``counts`` and the
        sets are the same bytes.  Only with ``tags`` (an int64 id per atom,
        the machine's home boxes) are the ``(2, n_atoms, words)`` uint64
        bit sets ``sets`` overwritten: ``sets[0][i]`` holds bit
        ``tags[j]`` of every surviving ``(i, j)``, ``sets[1][j]`` bit
        ``tags[i]`` (box ``b`` is bit ``b % 64`` of word ``b // 64``).
        Returns the surviving pair count.
        """
        from repro.forcefield import ENERGY_CODEC

        nb = self._tabulated(spec, codes, row_ptr, partners, lengths)
        counts[...] = np.bincount(nb.i, minlength=len(counts))
        if e_rows is not None:
            e_rows[...] = 0
            with np.errstate(over="ignore"):
                for col, e in enumerate((nb.e_lj_pairs, nb.e_coul_pairs)):
                    np.add.at(e_rows[:, col], nb.i, ENERGY_CODEC.quantize_round_only(e))
        if tags is not None:
            sets[...] = 0
            for side, (a, b) in zip(sets, ((nb.i, nb.j), (nb.j, nb.i))):
                t = tags[b]
                np.bitwise_or.at(side, (a, t >> 6), np.uint64(1) << (t & 63).astype(np.uint64))
        self.deposit_pairs(acc, nb.i, nb.j, spec.codec.quantize_round_only(nb.force))
        return nb.n_pairs

    def pair_rows(self, spec: PairTableSpec, codes, row_ptr, partners, lengths,
                  oi, oj, rows, e_lj, e_coul):
        """The walk's float64 twin: Verlet rows to per-pair force rows.

        The rows expanded to ``(i, j)`` candidates with ``np.repeat``,
        :func:`~repro.geometry.cells.within` of the position codes
        ``codes`` at the tables' cutoff, then
        :func:`~repro.forcefield.nonbonded_real_space_tabulated`: the
        surviving pairs in ``oi[:m], oj[:m]``, the force on atom ``i``
        in ``rows[:m]``, the energies in ``e_lj[:m], e_coul[:m]`` (all
        sized to the candidate count).  Nothing is summed — that is
        :meth:`deposit_pairs_float`'s.  Returns ``m``.
        """
        nb = self._tabulated(spec, codes, row_ptr, partners, lengths)
        m = nb.n_pairs
        oi[:m], oj[:m], rows[:m] = nb.i, nb.j, nb.force
        e_lj[:m], e_coul[:m] = nb.e_lj_pairs, nb.e_coul_pairs
        return m

    # -- fixed-point deposits --------------------------------------------

    def deposit_pairs(self, raw, i, j, codes):
        with np.errstate(over="ignore"):
            np.add.at(raw, i, codes)
            np.subtract.at(raw, j, codes)

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

    # -- NT force-export routes -------------------------------------------

    def nt_routes(self, sets, home, node_tab, owners, counts):
        """One step's NT force-export route counts from the walk's home-box sets.

        Pair ``(i, j)`` is computed on ``node_tab[home[i], home[j]]`` (the
        tabulated NT rule over home-box ids), and that node then holds
        one summed force for atom ``i`` and one for atom ``j``.  So atom
        ``a``'s marks are the distinct ``node_tab[home[a], b]`` over the
        boxes ``b`` of its row set ``sets[0][a]``, and the distinct
        ``node_tab[b, home[a]]`` over its column set ``sets[1][a]``; each
        mark is one force on the route ``node -> owners[a]``, and
        ``counts[side]`` (``(2, n_nodes ** 2)`` int64, overwritten) counts
        them per route ``node * n_nodes + owner``.
        """
        from repro.parallel.nt import export_route_counts, set_members

        n = len(node_tab)
        for side, (set_, out) in enumerate(zip(sets, counts)):
            atoms, boxes = set_members(set_)
            pair = (boxes, home[atoms]) if side else (home[atoms], boxes)
            export_route_counts(atoms, node_tab[pair], owners, n, out)

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

    # -- mesh solve --------------------------------------------------------

    def mesh_solve(self, phi, energy, q, green, tw):
        """``phi <- F⁻¹(green · F q)`` over a ``(lanes, mx, my, mz)`` stack of
        real meshes, and each lane's ``energy`` ``0.5 · Σ q·phi``.

        The one FFT (:func:`repro.kernels.fft.mesh_solve`): the real-input
        transform along z, line transforms along y and x, ``green`` (the
        ``(mx, my, mz/2 + 1)`` half spectrum, x and y bit-reversed) and the
        inverse, unnormalized; the energy in
        :func:`~repro.kernels.fft.mesh_energy`'s order.  ``tw`` is the
        largest axis's :func:`~repro.kernels.fft.stage_table`.  Lanes are
        independent.
        """
        fft.mesh_solve(phi, energy, q, green, tw)

    # -- constraints -------------------------------------------------------

    def shake_batch(self, solver, positions, reference, tol, nrep, natoms):
        """SHAKE ``nrep`` blocks stacked along the atom axis, in place.

        ``solver`` is one block's :class:`ConstraintSolver`; block ``r``
        owns rows ``[r * natoms, (r + 1) * natoms)`` of ``positions`` and
        ``reference`` (a solo system is one block, an ensemble's replicas
        are ``nrep``).  Both tiers run the solver's NumPy sweep per block
        slice (the compiled suite inherits it), so each block keeps its
        own convergence exit and is the solo solve bit for bit.
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

    def settle_batch(self, solver, stage, out, src, nrep, natoms):
        """SETTLE the solver's rigid waters in ``nrep`` blocks, in place.

        ``stage`` ``"positions"`` moves ``out`` (positions) against the
        reference ``src``; ``"velocities"`` projects ``out`` (velocities)
        at the positions ``src``.  Blocks are stacked as in
        :meth:`shake_batch`, and the reference tier runs the solver's
        NumPy solve per block slice.  A degenerate molecule is left as
        it was, every other one is solved, and then
        :class:`DegenerateWaterError` names the first.
        """
        bad = -1
        for r in range(nrep):
            sl = slice(r * natoms, (r + 1) * natoms)
            m = solver._settle_numpy(stage, out[sl], src[sl])
            if m >= 0 and bad < 0:
                bad = r * len(solver.waters) + m
        _raise_degenerate(solver, stage, bad)
        return out


class CompiledKernels(NumpyKernels):
    """ctypes tier: same contract, C hot loops.

    Inherits the NumPy implementations, so a primitive without a C
    counterpart — the SHAKE / RATTLE sweeps, which since SETTLE take
    only a protein's bonds to H — runs the one NumPy form here too.
    """

    tier = "compiled"

    def __init__(self, lib, threads=1):
        self._lib = lib
        self.threads = int(threads)
        self._pool = None
        self._neighbor_work = None  # grow-only scratch
        #: The rebuild's ``[first row to sweep, pairs written]`` cursor.
        self._neighbor_at = np.zeros(2, dtype=np.int64)
        #: ``rk_nt_routes``'s per-node scratch.
        self._nt_stamp = np.empty(0, dtype=np.int64)
        #: SETTLE's reference coordinates, copied in per solve.
        self._settle_src: np.ndarray | None = None
        #: ``MeshAxes`` per live set of plan rows (``_mesh_axes``).
        self._axes_kept: dict = {}
        # Per calling thread (``_scratch``): a stacked mesh pass's lanes
        # run the mesh kernels concurrently on this suite (``map_chunks``).
        self._thread_scratch = threading.local()

    def map_chunks(self, fn, nchunks):
        """Run disjoint-output chunks on a persistent Python pool.

        The one place a thread count takes effect: the lanes of a
        stacked mesh pass (an ensemble's per-replica spreads, FFTs and
        gathers).  ctypes releases the GIL, so the chunks genuinely
        overlap.
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
    def _rows_conform(codes, row_ptr, partners, lengths, outs) -> bool:
        """Position codes and Verlet rows as C reads them — an int64
        ``row_ptr`` per atom plus one, from 0 to the candidate count, over
        an int32 partner buffer that may run past it — and ``outs``,
        ``(array, dtype, row shape)`` scratch of at least that count."""
        n = len(codes)
        if not (
            _conforms(codes, (n, 3), np.int64)
            and _conforms(row_ptr, (n + 1,), np.int64)
            and _conforms(partners, (len(partners),), np.int32)
            and _conforms(lengths, (3,), np.float64)
        ):
            return False
        m = int(row_ptr[n])
        return (
            row_ptr[0] == 0
            and m <= len(partners)
            and all(_conforms(a[:m], (m, *row), t) for a, t, row in outs)
        )

    def neighbor_build(self, codes, lengths, reach, n_blocks, block_len, excl, bufs):
        """:meth:`NumpyKernels.neighbor_build` as one C cluster sweep.

        The rows land in ``bufs``, the caller's ``[row_ptr, partners]``
        (int64, int32), and come back as the two buffers themselves —
        ``partners`` runs past the candidate count ``row_ptr[-1]`` — so a
        steady-state rebuild allocates nothing and hands the walk arrays
        whose pointers it has seen.  A row that does not fit stops the sweep before it;
        ``partners`` is then replaced by a larger buffer sized from the
        rows already done (:func:`_extrapolated_pairs`, 1/8 headroom) and
        the sweep resumes at that row, so every row is swept once — a
        fresh list's empty buffers included.
        """
        n = n_blocks * block_len
        if len(bufs[0]) != n + 1:
            bufs[0] = np.empty(n + 1, dtype=np.int64)
        if (
            not _conforms(codes, (n, 3), np.int64)
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
        at = self._neighbor_at
        at[:] = 0
        while True:
            row_ptr, partners = bufs
            row_pairs = int(
                self._lib.rk_neighbor_build(
                    n_blocks, block_len, _ptr(codes), _ptr(lengths), float(reach),
                    ptr, idx, _ptr(work), _ptr(row_ptr), _ptr(partners), len(partners),
                    _ptr(at), -1,
                )
            )
            row, m = int(at[0]), int(at[1])
            if not row_pairs:
                return row_ptr, partners
            size = _extrapolated_pairs(m + row_pairs, row + 1, block_len, n_blocks)
            bufs[1] = np.empty(size + size // 8, dtype=np.int32)
            bufs[1][:m] = partners[:m]

    def pair_walk(self, spec: PairTableSpec, codes, row_ptr, partners, lengths, acc,
                  e_rows, counts, tags=None, sets=None):
        """:meth:`NumpyKernels.pair_walk` as one C pass, bit for bit.

        Row by row, atom ``i`` held: filter, tables, quantize and deposit
        per block of its partners, with nothing stored per pair; with
        ``tags`` each block's home-box bits are ORed after its deposit.  The j
        side reads the codes as three arrays, a transpose into the calling
        thread's scratch (:meth:`_scratch`, whose bytes C fills as int64).
        """
        n = len(codes)
        words = 0 if sets is None else sets.shape[-1]
        if not (
            self._rows_conform(codes, row_ptr, partners, lengths, ())
            and _conforms(acc, (n, 3), np.int64)
            and (e_rows is None or _conforms(e_rows, (n, 2), np.int64))
            and _conforms(counts, (n,), np.int64)
            and (tags is None or (
                _conforms(tags, (n,), np.int64) and _conforms(sets, (2, n, words), np.uint64)
            ))
        ):
            return NumpyKernels.pair_walk(self, spec, codes, row_ptr, partners, lengths,
                                          acc, e_rows, counts, tags, sets)
        return int(
            self._lib.rk_pair_walk(
                n, _ptr(row_ptr), _ptr(partners), _ptr(codes), _ptr(self._scratch(3 * n)),
                _ptr(lengths), ctypes.byref(spec.c), _ptr(acc),
                None if e_rows is None else _ptr(e_rows), _ptr(counts),
                None if tags is None else _ptr(tags), words,
                None if tags is None else _ptr(sets),
            )
        )

    def pair_rows(self, spec: PairTableSpec, codes, row_ptr, partners, lengths,
                  oi, oj, rows, e_lj, e_coul):
        """:meth:`NumpyKernels.pair_rows` in C, sharing the walk's table
        arithmetic."""
        outs = ((oi, np.int64, ()), (oj, np.int64, ()), (rows, np.float64, (3,)),
                (e_lj, np.float64, ()), (e_coul, np.float64, ()))
        if not self._rows_conform(codes, row_ptr, partners, lengths, outs):
            return NumpyKernels.pair_rows(self, spec, codes, row_ptr, partners, lengths,
                                          oi, oj, rows, e_lj, e_coul)
        n = len(codes)
        return int(
            self._lib.rk_pair_rows(
                n, _ptr(row_ptr), _ptr(partners), _ptr(codes), _ptr(self._scratch(3 * n)),
                _ptr(lengths), ctypes.byref(spec.c), _ptr(oi), _ptr(oj), _ptr(rows),
                _ptr(e_lj), _ptr(e_coul),
            )
        )

    def nt_routes(self, sets, home, node_tab, owners, counts):
        _, n_atoms, words = sets.shape
        n_nodes = len(node_tab)
        if not (
            _conforms(sets, (2, n_atoms, words), np.uint64)
            and _conforms(home, (n_atoms,), np.int64)
            and _conforms(owners, (n_atoms,), np.int64)
            and _conforms(node_tab, (n_nodes, n_nodes), np.int64)
            and _conforms(counts, (2, n_nodes * n_nodes), np.int64)
            and 64 * words >= n_nodes
        ):
            raise ValueError("nt_routes: arrays do not match the machine layout")
        if len(self._nt_stamp) != n_nodes:
            self._nt_stamp = np.empty(n_nodes, dtype=np.int64)
        stamp = self._nt_stamp
        self._lib.rk_nt_routes(
            n_atoms, words, _ptr(sets), _ptr(home), _ptr(owners), _ptr(node_tab),
            n_nodes, _ptr(stamp), _ptr(counts),
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
        i, j = _i64(i), _i64(j)  # held across the call
        self._lib.rk_deposit_pairs_float(_ptr(forces), _ptr(i), _ptr(j), _ptr(rows), n)

    def _mesh_axes(self, axis_w, axis_d, axis_i, mesh):
        """A stencil plan's per-axis rows as ``MeshAxes``, or None when
        one of them does not conform.

        That each index row is consecutive mod its mesh extent (what
        :meth:`~repro.ewald.gse.MeshStencilPlan.build` writes) is the
        plan's promise — the C kernels read only the first index of a z
        row, which is then one run in halo'd columns (the quantized
        spread and the gather, ``kzp`` lanes: ``kz`` rounded up to whole
        blocks of ``RK_ZLANES``) or runs of contiguous mesh points (the
        float spread).  A plan refills its rows in place, so the struct
        is built once per set of row arrays and kept while they live.
        """
        rows = (*axis_w, *axis_d, *axis_i)
        key = id(rows[0])
        hit = self._axes_kept.get(key)
        if hit is not None and hit[1] is mesh and all(
            r() is a for r, a in zip(hit[0], rows, strict=True)
        ):
            return hit[2]
        n = len(axis_w[0])
        ks = [a.shape[1] for a in axis_w]
        dtypes = (np.float64,) * 6 + (np.int32,) * 3
        if not all(_conforms(a, (n, k), t) for a, k, t in zip(rows, ks * 3, dtypes)):
            return None
        kzp = -(-ks[2] // _Z_LANES) * _Z_LANES
        axes = MeshAxes(*ks, kzp, *(int(m) for m in mesh), *(_ptr(a) for a in rows))
        kept = self._axes_kept
        kept[key] = (
            [weakref.ref(rows[0], lambda _r, key=key: kept.pop(key, None))]
            + [weakref.ref(a) for a in rows[1:]],
            mesh,
            axes,
        )
        return axes

    def _scratch(self, points: int) -> np.ndarray:
        """The calling thread's scratch, at least ``points`` float64.

        The float spread's per-chunk bins, the halo'd z columns of the
        quantized spread and the gather, or the pair walks' transposed
        position codes (C zeroes or fills it per call); one grow-only array
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

    def mesh_solve(self, phi, energy, q, green, tw):
        """:meth:`NumpyKernels.mesh_solve` in C, one call per farmed run of lanes."""
        lanes = len(q)
        mx, my, mz = green.shape[0], green.shape[1], q.shape[-1]
        wr, wi = tw
        if not (
            _conforms(q, (lanes, mx, my, mz), np.float64)
            and _conforms(phi, q.shape, np.float64)
            and _conforms(energy, (lanes,), np.float64)
            and _conforms(green, (mx, my, mz // 2 + 1), np.float64)
            and _conforms(wr, (len(wr),), np.float64)
            and _conforms(wi, wr.shape, np.float64)
            and len(wr) >= max(mx, my, mz) - 1
        ):
            return NumpyKernels.mesh_solve(self, phi, energy, q, green, tw)
        lane_bytes = 8 * mx * my * mz
        work = 2 * mx * my * (mz // 2 + 1) + my * mz
        q0, g, phi0, e0 = _ptr(q), _ptr(green), _ptr(phi), _ptr(energy)
        w_r, w_i = _ptr(wr), _ptr(wi)
        chunks = min(self.threads, lanes)

        def run(c):
            lo, hi = c * lanes // chunks, (c + 1) * lanes // chunks
            self._lib.rk_mesh_solve(
                hi - lo, mx, my, mz, q0 + lo * lane_bytes, g, phi0 + lo * lane_bytes,
                e0 + 8 * lo, w_r, w_i, _ptr(self._scratch(work)),
            )

        self.map_chunks(run, chunks)

    def settle_batch(self, solver, stage, out, src, nrep, natoms):
        if not _conforms(out, (len(out), 3), np.float64):
            return NumpyKernels.settle_batch(self, solver, stage, out, src, nrep, natoms)
        mol, par, lengths = solver._settle_arrays()
        # The integrator hands a fresh array each solve: copied into kept
        # scratch, whose pointer is read once.
        if self._settle_src is None or self._settle_src.shape != out.shape:
            self._settle_src = np.empty(out.shape)
        np.copyto(self._settle_src, src)
        src = self._settle_src
        bad = self._lib.rk_settle_batch(
            _SETTLE_STAGES.index(stage), int(nrep), int(natoms),
            _ptr(out), _ptr(src), _ptr(mol), _ptr(par), len(mol), _ptr(lengths),
        )
        _raise_degenerate(solver, stage, bad)
        return out


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
