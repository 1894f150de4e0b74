"""Force orchestration: one object that evaluates the full force field.

Composes the substrates exactly as a time step does (Table 2's rows):

* range-limited forces (LJ + screened Coulomb from PPIP-style tables),
  one walk over the Verlet list's rows
* charge spreading -> FFT -> convolution -> inverse FFT -> force
  interpolation (GSE)
* correction forces for excluded / 1-4 pairs
* bonded forces

and produces either dense float forces (reference path) or
order-invariant fixed-point force codes (Anton path).  Multiple
time-stepping ("long-range interactions are typically evaluated only
every two or three time steps") is provided by :class:`MTSForceProvider`.
The float64 analytic kernel those tables are measured against is not a
mode of this calculator: it is :func:`repro.analysis.forces.analytic_forces`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cache

import numpy as np

from repro.core.system import ChemicalSystem
from repro.ewald import (
    GaussianSplitEwald,
    GSEParams,
    MeshStencilPlan,
    choose_sigma,
    correction_forces_static,
    precompute_correction_static,
    self_energy,
)
from repro.fixedpoint import FixedAccumulator, FixedFormat, ScaledFixed, round_nearest_even
from repro.forcefield import (
    ENERGY_CODEC,
    NonbondedResult,
    PairWalkResult,
    all_bonded_forces,
    build_kernel_tables,
    energy_codes,
    scatter_forces,
)
from repro.geometry import NeighborList
from repro.kernels import NUMPY_SUITE, make_pair_spec

__all__ = ["MDParams", "ForceReport", "ForceCalculator", "MTSForceProvider"]

#: Fixed-point width of the mesh-charge accumulator that every
#: fixed-point evaluation spreads through: integer sums make the mesh,
#: like every force, independent of atom order and of how spreading is
#: distributed over nodes (Section 4's parallel invariance).  The float
#: path spreads float.
MESH_CHARGE_BITS = 40


@dataclass(frozen=True)
class MDParams:
    """The knobs of Table 2: ``cutoff``, ``mesh`` and ``long_range_every``.

    ``cutoff``/``mesh`` trade real-space against Fourier work;
    ``long_range_every`` is the MTS interval.  ``skin`` sizes the Verlet
    buffer and moves no bit.  Everything else that decides force bits
    is a constant: the range-limited pair kernels are the PPIP-style
    tiered tables (:data:`~repro.functions.evaluator.TABLE_MANTISSA_BITS`)
    with plain-cutoff LJ, as on Anton; the Ewald width follows the
    cutoff at :data:`~repro.ewald.kernels.EWALD_TOLERANCE`; Coulomb is
    on unless every charge is zero; and the mesh spread follows the
    arithmetic: integer (:data:`MESH_CHARGE_BITS`) on the fixed-point
    path, float on the float path.
    """

    cutoff: float = 9.0
    #: Verlet-list buffer radius (A).  Pairs are cached out to
    #: ``cutoff + skin`` and the list is rebuilt only when an atom has
    #: moved more than ``skin/2`` since the last build; 0 rebuilds
    #: every evaluation.  Results are bitwise independent of the skin.
    skin: float = 2.0
    mesh: tuple[int, int, int] = (32, 32, 32)
    long_range_every: int = 1
    #: Not fields: ``"table"`` and :data:`MESH_CHARGE_BITS` are the only
    #: accepted values.  The benchmark workloads
    #: ``benchmarks/perf/workloads/machine64.py`` and ``ensemble8.py``
    #: still pass both; the next change to the benchmark (ROADMAP
    #: item 1(b)) deletes the two keywords.
    kernel_mode: InitVar[str] = "table"
    quantize_mesh_bits: InitVar[int] = MESH_CHARGE_BITS

    def __post_init__(self, kernel_mode: str, quantize_mesh_bits: int) -> None:
        if kernel_mode != "table":
            raise ValueError(f"unknown kernel_mode {kernel_mode!r}")
        if quantize_mesh_bits != MESH_CHARGE_BITS:
            raise ValueError(
                f"quantize_mesh_bits must be {MESH_CHARGE_BITS}, got {quantize_mesh_bits!r}"
            )


def _resolved(energies) -> dict:
    """An energy breakdown that may still be a thunk, as a dict."""
    return energies() if callable(energies) else energies


class ForceReport:
    """Forces plus the per-component energy breakdown of one evaluation.

    ``energies`` is a dict or — from a force-only evaluation
    (``compute_fixed(..., energies=False)``) — a zero-argument callable
    that computes it.  Such a breakdown is resolved on the first read of
    :attr:`energies`, once, into the dict the eager evaluation returns:
    the same keys in the same order and the same bits (DESIGN.md,
    "Force-only steps and lazy energies").
    """

    def __init__(self, forces: np.ndarray, energies=None, n_pairs: int = 0):
        self.forces = forces
        self._energies = {} if energies is None else energies
        self.n_pairs = n_pairs

    @property
    def energies(self) -> dict:
        if callable(self._energies):
            self._energies = self._energies()
        return self._energies

    def add_energies(self, more) -> None:
        """Append ``more``'s keys (a dict or a thunk of one) to the
        breakdown, as ``dict.update`` would, resolving neither."""
        head = self._energies
        if callable(head) or callable(more):
            self._energies = lambda: {**_resolved(head), **_resolved(more)}
        else:
            head.update(more)

    @property
    def potential_energy(self) -> float | np.ndarray:
        """The energies' sum in key order, per lane: ``(R,)`` for R > 1
        replicas (each entry the one-lane float chain), a float for one."""
        total = np.ravel(sum(self.energies.values()))
        return total if len(total) > 1 else float(total[0])


class ForceCalculator:
    """Evaluates all force-field components for one system.

    ``kernels`` is the kernel suite (:mod:`repro.kernels`) both force
    paths dispatch on — the fixed-point one (:meth:`compute_fixed`) and
    the float64 one (:meth:`compute`, which is what
    :func:`~repro.core.simulation.minimize_energy` evaluates): neighbor
    list, tabulated pair kernel, force deposit, mesh spread and gather.
    The default, :data:`~repro.kernels.NUMPY_SUITE`, is the plain NumPy
    evaluation, the oracle of every suite; the calculator never asks
    which suite it holds, and every suite yields the same bits.
    """

    #: Prefix of the force path's phase names (``pair_list``,
    #: ``range_limited``, ``correction``, ``kspace``, ``deposit``,
    #: ``energies``, ``collect``): the ensemble charges them to its own.
    _phase_prefix = ""
    #: Lanes of the (replica-stacked) system: the fixed-point path
    #: reports every energy per lane (:meth:`_lanes`).
    replicas = 1

    def __init__(
        self, system: ChemicalSystem, params: MDParams = MDParams(), kernels=NUMPY_SUITE
    ):
        # Deferred import: repro.perf pulls in workload -> repro.core.
        from repro.perf.timers import Timers

        self.system = system
        self.params = params
        self.kernels = kernels
        self.timers = Timers()
        self.neighbor_list = NeighborList(
            system.box,
            params.cutoff,
            skin=params.skin,
            exclusions=system.exclusions,
            timers=self.timers,
            kernels=kernels,
        )
        self.electrostatics = bool(np.any(system.charges != 0))
        if self.electrostatics:
            gse_params = GSEParams.choose(system.box, params.cutoff, params.mesh)
            self.gse = GaussianSplitEwald(system.box, gse_params)
            self.sigma = gse_params.sigma
        else:
            # A sigma is still needed for kernel shapes; with zero
            # charges every Coulomb term vanishes identically.
            self.gse = None
            self.sigma = choose_sigma(params.cutoff)
        self.tables = build_kernel_tables(params.cutoff, self.sigma)
        # The fixed-point path's mesh codec.  Mesh charge magnitudes are
        # bounded by a few elementary charges times the (sub-unity)
        # Gaussian weight.
        self.mesh_codec = ScaledFixed(FixedFormat(MESH_CHARGE_BITS), limit=8.0)
        # Self energy is configuration-independent: compute once, for
        # one lane.
        self._e_self = self_energy(system.charges[: system.n_atoms // self.replicas], self.sigma)
        # Correction-pair indices/charge products/LJ coefficients are
        # topology-derived and never change: gather them once.
        self._corr_static = precompute_correction_static(
            system.charges, system.type_ids, system.lj, system.exclusions
        )
        # Steady-state scratch of both paths: the pair kernels' outputs
        # and the short/long force accumulators are allocated once and
        # reused, so repeated steps allocate nothing on the hot path.
        self._pair_spec = None
        self._pair_spec_codec = None
        self._pair_out: tuple[np.ndarray, ...] | None = None
        self._pair_rows: tuple[np.ndarray, ...] | None = None
        #: The wrapped coordinates the last pair walk ran on (what
        #: ``NeighborList.pairs`` wrapped) and the positions they wrap:
        #: the evaluation's one wrap, which its mesh plan and the
        #: machine's home-box lookup reuse.
        self.walk_positions: np.ndarray | None = None
        self._walk_source: np.ndarray | None = None
        #: Optional hook of the fixed-point walk, ``(positions, wrapped)
        #: -> (tags, sets)``: an int64 id per atom and the home-box sets
        #: the walk ORs them into (``pair_walk``).  The machine's backend
        #: sets it, tagging atoms with the home boxes of the walk's own
        #: wrap; None (solo, ensemble) builds no sets.
        self.walk_tags = None
        self._walk_rows = (
            np.zeros((system.n_atoms, 2), dtype=np.int64),
            np.zeros(system.n_atoms, dtype=np.int64),
        )
        #: The correction pairs' force codes, refilled each evaluation.
        self._corr_codes: np.ndarray | None = None
        self._acc_short: FixedAccumulator | None = None
        self._acc_long: FixedAccumulator | None = None
        # What every mesh pass of this calculator — float, batched or
        # machine — refills instead of reallocating: the stencil plan,
        # with its lane views and mesh accumulator.
        self._mesh_plan = (
            MeshStencilPlan(self.gse, system.n_atoms) if self.gse is not None else None
        )

    # -- pair-kernel inputs and scratch ----------------------------------------

    def _spec(self, force_codec=None):
        """The cached :func:`make_pair_spec`; the float pass takes it
        whatever codec it carries, the fixed-point walk needs its own."""
        if self._pair_spec is None or (
            force_codec is not None and self._pair_spec_codec is not force_codec
        ):
            s = self.system
            self._pair_spec = make_pair_spec(
                self.tables, s.lj, s.charges, s.type_ids, force_codec
            )
            self._pair_spec_codec = force_codec
        return self._pair_spec

    def _accumulator(self, slot: str, force_codec) -> FixedAccumulator:
        """A zeroed per-evaluation accumulator from the reuse pool.

        Two slots ("short", "long") exist because the long-range pass
        runs while the short-range accumulator is live.  Callers
        consume ``acc.raw()``/``acc.total()`` before the next evaluation
        (the MTS provider and :meth:`compute_fixed` both do), so reuse
        is invisible.
        """
        acc = getattr(self, "_acc_" + slot)
        shape = (self.system.n_atoms, 3)
        if acc is None or acc.shape != shape or acc.fmt != force_codec.fmt:
            acc = FixedAccumulator(shape, force_codec.fmt)
            setattr(self, "_acc_" + slot, acc)
        else:
            acc.zero()
        return acc

    def _correction_force_codes(self, corr, force_codec) -> np.ndarray:
        """The correction pairs' force codes, in kept scratch: the C
        deposit that reads them then knows the buffer's pointer."""
        codes = force_codec.quantize_round_only(corr.force)
        if self._corr_codes is None or self._corr_codes.shape != codes.shape:
            self._corr_codes = np.empty_like(codes)
        np.copyto(self._corr_codes, codes)
        return self._corr_codes

    def _pair_buffers(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``(oi, oj)`` pair outputs for >= ``n`` candidates."""
        if self._pair_out is None or len(self._pair_out[0]) < n:
            # Candidate counts wander a fraction of a percent between
            # rebuilds; headroom keeps that from reallocating every time.
            cap = n + n // 8
            self._pair_out = tuple(np.empty(cap, dtype=np.int64) for _ in "ij")
        return self._pair_out

    def _row_buffers(self, n: int) -> tuple[np.ndarray, ...]:
        """The float pass's ``(rows, e_lj, e_coul)`` for >= ``n`` candidates."""
        if self._pair_rows is None or len(self._pair_rows[1]) < n:
            cap = n + n // 8
            self._pair_rows = (np.empty((cap, 3)), np.empty(cap), np.empty(cap))
        return self._pair_rows

    # -- contribution gathering -------------------------------------------

    def _range_limited(
        self,
        positions: np.ndarray,
        force_codec=None,
        acc: FixedAccumulator | None = None,
        energies: bool = True,
    ) -> NonbondedResult | PairWalkResult:
        """The range-limited part: one suite pass over the Verlet rows.

        Run from inside :meth:`NeighborList.pairs`, which hands over the
        cached candidates as rows ``(row_ptr, partners)``: cutoff test
        and table evaluation, then either quantize-and-accumulate into
        ``acc`` (``pair_walk``) or, without one, the float64 force rows
        (``pair_rows``).  The walk's record is a :class:`PairWalkResult`
        — per-row energy codes (none, for ``energies=False``: the
        force-only walk) and survivor counts; with a
        :attr:`walk_tags` hook it also fills the hook's home-box sets.
        The float pass returns a
        :class:`NonbondedResult` of per-pair arrays with ``np.sum``
        energies.  Every array is a view of reused scratch, valid until
        the next evaluation.
        """
        spec, k = self._spec(force_codec), self.kernels

        def walk(wrapped, row_ptr, partners, lengths):
            self.walk_positions, self._walk_source = wrapped, positions
            with self.timers.time(self._phase_prefix + "range_limited"):
                if acc is not None:
                    e_rows, counts = self._walk_rows
                    e_rows = e_rows if energies else None
                    tagged = () if self.walk_tags is None else self.walk_tags(positions, wrapped)
                    m = k.pair_walk(
                        spec, wrapped, row_ptr, partners, lengths, acc.raw(),
                        e_rows, counts, *tagged,
                    )
                    return PairWalkResult(e_rows=e_rows, counts=counts, n_pairs=m)
                n_cand = int(row_ptr[-1])
                oi, oj = self._pair_buffers(n_cand)
                rows, e_lj, e_coul = self._row_buffers(n_cand)
                m = k.pair_rows(
                    spec, wrapped, row_ptr, partners, lengths, oi, oj, rows, e_lj, e_coul
                )
                return NonbondedResult(
                    energy_lj=float(np.sum(e_lj[:m])),
                    energy_coul=float(np.sum(e_coul[:m])),
                    i=oi[:m],
                    j=oj[:m],
                    force=rows[:m],
                    e_lj_pairs=e_lj[:m],
                    e_coul_pairs=e_coul[:m],
                )

        with self.timers.time(self._phase_prefix + "pair_list"):
            return self.neighbor_list.pairs(positions, walk)

    def _bonded(self, positions: np.ndarray):
        with self.timers.time("bonded"):
            return all_bonded_forces(positions, self.system.box, self.system.topology)

    def _corrections(self, positions: np.ndarray):
        with self.timers.time(self._phase_prefix + "correction"):
            return correction_forces_static(
                positions, self.system.box, self._corr_static, self.sigma
            )

    def _walked(self, positions: np.ndarray) -> np.ndarray | None:
        """``positions`` wrapped, when the last pair walk wrapped this very
        array and it cannot have changed since (it owns its data and is
        read-only, as the fixed-point integrator's decoded positions
        are), else None."""
        frozen = not positions.flags.writeable and positions.base is None
        if positions is self._walk_source and frozen:
            return self.walk_positions
        return None

    def _kspace(self, positions: np.ndarray, codec=None) -> tuple[float, np.ndarray]:
        """Mesh energy and forces, on the suite, into the kept plan:
        a float spread, or an integer one through ``codec``."""
        with self.timers.time(self._phase_prefix + "kspace"):
            return self.gse.kspace(
                positions, self.system.charges, codec=codec,
                kernels=self.kernels, plan=self._mesh_plan,
            )

    # -- float path -----------------------------------------------------------
    #
    # Float addition does not commute, so wherever this path sums it
    # sums in the NumPy evaluation's order: pair forces through the
    # suite's ordered ``deposit_pairs_float`` (all i rows, then all j
    # rows — ``np.add.at`` twice), everything else dense and in the
    # sequence below.

    def compute_long(self, positions: np.ndarray) -> ForceReport:
        """Long-range components only: corrections + mesh electrostatics.

        Virtual-site redistribution is NOT applied here; callers that
        combine parts apply it once on the combined force.
        """
        s = self.system
        forces = np.zeros((s.n_atoms, 3))
        corr = self._corrections(positions)
        self.kernels.deposit_pairs_float(forces, corr.i, corr.j, corr.force)
        e_k = 0.0
        if self.gse is not None:
            e_k, f_k = self._kspace(positions)
            forces += f_k
        energies = {
            "correction": corr.energy_exclusion + corr.energy_14_coul,
            "lj14": corr.energy_14_lj,
            "coulomb_kspace": e_k,
            "coulomb_self": self._e_self,
        }
        return ForceReport(forces=forces, energies=energies)

    def compute(self, positions: np.ndarray, include_long_range: bool = True) -> ForceReport:
        """Dense float64 forces and the energy breakdown."""
        s = self.system
        n = s.n_atoms
        forces = np.zeros((n, 3))
        energies: dict[str, float] = {}

        nb = self._range_limited(positions)
        self.kernels.deposit_pairs_float(forces, nb.i, nb.j, nb.force)
        energies["lj"] = nb.energy_lj
        energies["coulomb_real"] = nb.energy_coul

        bonded = self._bonded(positions)
        forces += scatter_forces(n, bonded)
        energies["bond"] = bonded[0].energy
        energies["angle"] = bonded[1].energy
        energies["dihedral"] = bonded[2].energy

        if include_long_range:
            long_part = self.compute_long(positions)
            forces += long_part.forces
            energies.update(long_part.energies)

        s.spread_virtual_site_forces(forces)
        return ForceReport(forces=forces, energies=energies, n_pairs=nb.n_pairs)

    # -- fixed-point path ---------------------------------------------------------
    #
    # Every energy is an integer lane sum of ENERGY_CODEC codes — the
    # walk's row codes, and ``energy_codes`` of each other term array —
    # decoded once per key: order-free, so a lane reports its solo bits
    # by construction.  The k-space and self energies are per-lane floats.

    def _lanes(self, values: np.ndarray) -> list:
        """``(k, replicas)`` per-lane energies as this calculator reports
        them, one entry per row: one lane, Python floats."""
        return values[:, 0].tolist()

    def _decode(self, codes: dict) -> dict:
        """Energy codes per key, ``(replicas,)`` int64 each, decoded."""
        values = ENERGY_CODEC.reconstruct(np.array(list(codes.values())))
        return dict(zip(codes, self._lanes(values)))

    def _energy_walk(self, positions: np.ndarray, build: int, force_codec) -> PairWalkResult:
        """The walk's energy rows at ``positions``, for the report of a
        force-only evaluation there: one walk with energies, into private
        outputs, over the rows :meth:`NeighborList.rewalk` gives (that
        evaluation's, or private ones if the list has been rebuilt since).
        Survivors and energy codes are a pure function of the positions,
        so they are the eager walk's."""
        spec, k = self._spec(force_codec), self.kernels

        def walk(wrapped, row_ptr, partners, lengths):
            n = len(wrapped)
            e_rows, counts = np.empty((n, 2), dtype=np.int64), np.empty(n, dtype=np.int64)
            acc = np.zeros((n, 3), dtype=np.int64)
            m = k.pair_walk(spec, wrapped, row_ptr, partners, lengths, acc, e_rows, counts)
            return PairWalkResult(e_rows=e_rows, counts=counts, n_pairs=m)

        return self.neighbor_list.rewalk(positions, build, walk)

    def _short_energies(
        self, positions: np.ndarray, nb: PairWalkResult, codes, energies: bool, force_codec
    ):
        """The walk's energies and ``codes()``'s, decoded in that key order:
        now, or — for a force-only evaluation, whose walk left no energy
        rows — as the memoised thunk its report resolves on first read,
        which walks again at ``positions`` (:meth:`_energy_walk`).  The
        integrator's positions own their data and are read-only (replaced,
        never written in place), as :meth:`_walked` relies on too; any
        other array is copied first."""
        if energies:
            return self._decode({**self._pair_codes(nb), **codes()})
        if positions.flags.writeable or positions.base is not None:
            positions = positions.copy()
        build = self.neighbor_list.n_builds
        return cache(lambda: self._decode(
            {**self._pair_codes(self._energy_walk(positions, build, force_codec)), **codes()}
        ))

    def _pair_codes(self, nb: PairWalkResult) -> dict:
        """The walk's LJ and Coulomb codes per lane: its lane blocks of rows."""
        lj, coul = np.add.reduce(nb.e_rows.reshape(self.replicas, -1, 2), axis=1).T
        return {"lj": lj, "coulomb_real": coul}

    def _bonded_codes(self, bonded) -> dict:
        """Each bonded kind's energy codes per lane."""
        return {
            key: energy_codes(contrib.energy_terms, self.replicas)
            for key, contrib in zip(("bond", "angle", "dihedral"), bonded)
        }

    def _correction_codes(self, corr) -> dict:
        """The exclusion + 1-4 Coulomb and the scaled 1-4 LJ codes per lane."""
        R = self.replicas
        return {
            "correction": energy_codes(corr.e_exclusion, R) + energy_codes(corr.e_14_coul, R),
            "lj14": energy_codes(corr.lj_scale14 * corr.e_14_lj, R),
        }

    def _long_energies(self, correction_codes, e_k, energies: bool):
        """The long-range energies in report order, ``correction_codes()``
        decoded: now, or as a memoised thunk."""

        def decode() -> dict:
            (e_self,) = self._lanes(np.full((1, self.replicas), self._e_self))
            return {**self._decode(correction_codes()), "coulomb_kspace": e_k,
                    "coulomb_self": e_self}

        return decode() if energies else cache(decode)

    def compute_long_fixed(
        self, positions: np.ndarray, force_codec, energies: bool = True
    ) -> tuple[np.ndarray, dict]:
        """Fixed-point codes of the long-range components only.

        Raw (unwrapped) int64 sums — callers combine with short-range
        codes and wrap once.  No vsite redistribution here.  The energies
        come back as a dict or, with ``energies=False``, as a thunk of it
        (:meth:`ForceReport.add_energies` takes either).
        """
        time, p = self.timers.time, self._phase_prefix
        acc = self._accumulator("long", force_codec)
        corr = self._corrections(positions)
        with time(p + "deposit"):
            ccodes = self._correction_force_codes(corr, force_codec)
            self.kernels.deposit_pairs(acc.raw(), corr.i, corr.j, ccodes)
        if self.gse is not None:
            e_k, f_k = self._kspace(positions, self.mesh_codec)
            with time(p + "deposit"):
                acc.deposit_dense(force_codec.quantize_round_only(f_k))
        else:
            (e_k,) = self._lanes(np.zeros((1, self.replicas)))
        with time(p + "energies"):
            long = self._long_energies(lambda: self._correction_codes(corr), e_k, energies)
        return acc.raw(), long

    def compute_fixed(
        self,
        positions: np.ndarray,
        force_codec,
        include_long_range: bool = True,
        energies: bool = True,
    ) -> tuple[np.ndarray, ForceReport]:
        """Order-invariant fixed-point force codes.

        Every contribution (per pair, per bonded term, per atom of the
        mesh interpolation) is quantized once with ``force_codec`` and
        integer-accumulated, so the total is independent of evaluation
        and summation order — the machine simulation distributes these
        same contributions over nodes and obtains identical bits.  So is
        every energy but the k-space and self terms: an integer lane sum
        of :data:`~repro.forcefield.ENERGY_CODEC` codes, decoded once.

        ``energies=False`` is a force-only evaluation, for a step whose
        energies nobody asks for: the walk computes no energy and nothing
        is decoded, and the report's energies resolve on first read to the
        dict this call returns with ``energies=True`` — same keys, order
        and bits (DESIGN.md, "Force-only steps and lazy energies").  The
        force codes are the same bytes either way.
        """
        time, p = self.timers.time, self._phase_prefix
        acc = self._accumulator("short", force_codec)
        nb = self._range_limited(positions, force_codec, acc, energies)
        bonded = self._bonded(positions)
        with time(p + "deposit"):
            for contrib in bonded:
                if contrib.n_terms:
                    c = force_codec.quantize_round_only(contrib.force)
                    acc.deposit(contrib.idx.ravel(), c.reshape(-1, 3))
        with time(p + "energies"):
            short = self._short_energies(
                positions, nb, lambda: self._bonded_codes(bonded), energies, force_codec
            )

        long = None
        if include_long_range:
            long_codes, long = self.compute_long_fixed(positions, force_codec, energies)
            with time(p + "deposit"):
                acc.deposit_dense(long_codes)

        with time(p + "collect"):
            total = self._spread_vsite_codes(acc.total())
            report = ForceReport(
                forces=force_codec.reconstruct(total),
                energies=short,
                n_pairs=nb.n_pairs,
            )
            if long is not None:
                report.add_energies(long)
        return total, report

    def _spread_vsite_codes(self, codes: np.ndarray) -> np.ndarray:
        """Redistribute vsite force codes to parents (integer-exact)."""
        top = self.system.topology
        if not len(top.vsite_idx):
            return codes
        sidx, p, r1, r2 = (top.vsite_idx[:, c] for c in range(4))
        w = top.vsite_weight[:, None]
        fs = codes[sidx].astype(np.float64)
        codes[sidx] = 0
        with np.errstate(over="ignore"):
            np.add.at(codes, p, round_nearest_even((1.0 - 2.0 * w) * fs).astype(np.int64))
            np.add.at(codes, r1, round_nearest_even(w * fs).astype(np.int64))
            np.add.at(codes, r2, round_nearest_even(w * fs).astype(np.int64))
        return codes


class MTSForceProvider:
    """Impulse (Verlet-I / r-RESPA) multiple-time-step force schedule.

    Long-range forces are evaluated every ``k = long_range_every``
    calls and applied as an impulse with weight ``k``; in between, the
    provider returns only range-limited + bonded forces.  Energies
    report the most recent long-range values so monitoring stays
    meaningful on every step.
    """

    def __init__(self, calc: ForceCalculator, force_codec=None):
        self.calc = calc
        self.force_codec = force_codec
        self.k = calc.params.long_range_every
        self.calls = 0
        self.long_evaluations = 0
        #: The last long-range energies: a dict, or the thunk of a
        #: force-only evaluation's (``ForceReport.add_energies`` takes both).
        self._last_long_energies = {}

    def _impulse(self, out: np.ndarray, long_codes: np.ndarray) -> np.ndarray:
        """``wrap(out + k * long_codes)``, written into ``out``.

        Both are int64 arrays this evaluation owns (the short-range total
        and the long accumulator's raw sums, zeroed before its next use);
        int64 adds wrap silently, then the format's wrap
        ``((v + half) & mask) - half`` runs in place.
        """
        fmt = self.force_codec.fmt
        half = np.int64(1) << np.int64(fmt.bits - 1)
        mask = (np.int64(1) << np.int64(fmt.bits)) - np.int64(1)
        np.multiply(long_codes, np.int64(self.k), out=long_codes)
        np.add(out, long_codes, out=out)
        np.add(out, half, out=out)
        np.bitwise_and(out, mask, out=out)
        return np.subtract(out, half, out=out)

    def __call__(self, positions: np.ndarray, energies: bool = False):
        """Forces at ``positions`` and their report.  ``energies`` asks a
        fixed-point evaluation for its energy breakdown now (a step whose
        energies are recorded); otherwise they resolve on first read
        (:meth:`ForceCalculator.compute_fixed`).  The float path always
        computes them."""
        if self.k == 1:
            # Single-rate fast path: one combined evaluation.
            self.calls += 1
            self.long_evaluations += 1
            if self.force_codec is not None:
                return self.calc.compute_fixed(positions, self.force_codec, energies=energies)
            report = self.calc.compute(positions)
            return report.forces, report
        include_long = self.calls % self.k == 0
        if self.force_codec is not None:
            out, report = self.calc.compute_fixed(
                positions, self.force_codec, include_long_range=False, energies=energies
            )
            if include_long:
                long_codes, long_energies = self.calc.compute_long_fixed(
                    positions, self.force_codec, energies
                )
                with self.calc.timers.time("mts_combine"):
                    out = self.calc._spread_vsite_codes(self._impulse(out, long_codes))
                self._last_long_energies = long_energies
                self.long_evaluations += 1
        else:
            report = self.calc.compute(positions, include_long_range=False)
            out = report.forces
            if include_long:
                long_part = self.calc.compute_long(positions)
                out = out + self.k * long_part.forces
                self.calc.system.spread_virtual_site_forces(out)
                self._last_long_energies = long_part.energies
                self.long_evaluations += 1
        report.add_energies(self._last_long_energies)
        self.calls += 1
        return out, report
