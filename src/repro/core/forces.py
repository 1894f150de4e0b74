"""Force orchestration: one object that evaluates the full force field.

Composes the substrates exactly as a time step does (Table 2's rows):

* range-limited forces (LJ + screened Coulomb, analytic or tabulated)
* charge spreading -> FFT -> convolution -> inverse FFT -> force
  interpolation (GSE)
* correction forces for excluded / 1-4 pairs
* bonded forces

and produces either dense float forces (reference path) or
order-invariant fixed-point force codes (Anton path).  Multiple
time-stepping ("long-range interactions are typically evaluated only
every two or three time steps") is provided by :class:`MTSForceProvider`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.system import ChemicalSystem
from repro.ewald import (
    GaussianSplitEwald,
    GSEParams,
    MeshStencilPlan,
    correction_forces_static,
    precompute_correction_static,
    self_energy,
)
from repro.fixedpoint import FixedAccumulator, round_nearest_even
from repro.forcefield import (
    NonbondedResult,
    all_bonded_forces,
    build_kernel_tables,
    nonbonded_real_space,
    scatter_forces,
)
from repro.geometry import NeighborList
from repro.kernels import NUMPY_SUITE, make_pair_spec

__all__ = ["MDParams", "ForceReport", "ForceCalculator", "MTSForceProvider"]


@dataclass(frozen=True)
class MDParams:
    """Tunable simulation parameters (the knobs of Table 2).

    ``cutoff``/``mesh`` trade real-space against Fourier work;
    ``long_range_every`` is the MTS interval.  ``kernel_mode`` selects
    the range-limited pair kernels: ``"table"`` (the default, what every
    driver runs) evaluates them from the PPIP-style tiered tables, as
    Anton does; ``"analytic"`` is the float64 SciPy/NumPy oracle those
    tables are measured against (Table 4's numerical force error) and
    is chosen explicitly.  ``lj_mode`` applies to that oracle only: the
    table path is plain-cutoff LJ, as on Anton.
    """

    cutoff: float = 9.0
    #: Verlet-list buffer radius (A).  Pairs are cached out to
    #: ``cutoff + skin`` and the list is rebuilt only when an atom has
    #: moved more than ``skin/2`` since the last build; 0 rebuilds
    #: every evaluation.  Results are bitwise independent of the skin.
    skin: float = 2.0
    mesh: tuple[int, int, int] = (32, 32, 32)
    ewald_tolerance: float = 1e-5
    lj_mode: str = "shift_force"
    kernel_mode: str = "table"
    long_range_every: int = 1
    table_mantissa_bits: int = 22
    #: Fixed-point bits for mesh-charge accumulation; None keeps float
    #: spreading.  Set (e.g. 40) when bitwise parallel invariance of
    #: the mesh pipeline matters (the machine simulation requires it).
    quantize_mesh_bits: int | None = None
    #: Disable Coulomb entirely (bead models); also auto-disabled when
    #: every charge is zero.
    electrostatics: bool = True


@dataclass
class ForceReport:
    """Forces plus the per-component energy breakdown of one evaluation."""

    forces: np.ndarray
    energies: dict = field(default_factory=dict)
    n_pairs: int = 0

    @property
    def potential_energy(self) -> float:
        return float(sum(self.energies.values()))


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

    #: Phase names of the one fixed-point pair path, as data: the
    #: ensemble prefixes its pair phases, and the machine charges the
    #: analytic kernel's quantization to a leaf of its own; both charge
    #: its pair deposit to their own deposit phase (the tabulated walk
    #: deposits as it goes, inside ``range_limited``).
    _pair_phase_prefix = ""
    _quantize_phase = "range_limited"
    _deposit_phase = "deposit"

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
        self.electrostatics = bool(params.electrostatics) and bool(np.any(system.charges != 0))
        if self.electrostatics:
            gse_params = GSEParams.choose(
                system.box, params.cutoff, params.mesh, real_space_tolerance=params.ewald_tolerance
            )
            self.gse = GaussianSplitEwald(system.box, gse_params)
            self.sigma = gse_params.sigma
        else:
            from repro.ewald import choose_sigma

            self.gse = None
            # A sigma is still needed for kernel shapes; with zero
            # charges every Coulomb term vanishes identically.
            self.sigma = choose_sigma(params.cutoff, params.ewald_tolerance)
        self.tables = None
        if params.kernel_mode == "table":
            self.tables = build_kernel_tables(
                params.cutoff, self.sigma, mantissa_bits=params.table_mantissa_bits
            )
        elif params.kernel_mode != "analytic":
            raise ValueError(f"unknown kernel_mode {params.kernel_mode!r}")
        self.mesh_codec = None
        if params.quantize_mesh_bits is not None:
            from repro.fixedpoint import FixedFormat, ScaledFixed

            # Mesh charge magnitudes are bounded by a few elementary
            # charges times the (sub-unity) Gaussian weight.
            self.mesh_codec = ScaledFixed(FixedFormat(params.quantize_mesh_bits), limit=8.0)
        # Self energy is configuration-independent: compute once.
        self._e_self = self_energy(system.charges, self.sigma)
        # Correction-pair indices/charge products/LJ coefficients are
        # topology-derived and never change: gather them once.
        self._corr_static = precompute_correction_static(
            system.charges, system.type_ids, system.lj, system.exclusions
        )
        # Steady-state scratch of the fixed-point path: the pair
        # walk's outputs and the short/long force accumulators are
        # allocated once and reused, so repeated steps allocate nothing
        # on the hot path.
        self._pair_spec = None
        self._pair_spec_codec = None
        self._pair_out: tuple[np.ndarray, ...] | None = None
        self._pair_rows: np.ndarray | None = None
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

    def _pair_buffers(self, n: int) -> tuple[np.ndarray, ...]:
        """(oi, oj, e_lj, e_coul) walk outputs for >= ``n`` candidates."""
        out = self._pair_out
        if out is None or len(out[0]) < n:
            # Candidate counts wander a fraction of a percent between
            # rebuilds; headroom keeps that from reallocating every time.
            cap = n + n // 8
            out = self._pair_out = (
                np.empty(cap, dtype=np.int64),
                np.empty(cap, dtype=np.int64),
                np.empty(cap, dtype=np.float64),
                np.empty(cap, dtype=np.float64),
            )
        return out

    # -- contribution gathering -------------------------------------------

    def _pairs(self, positions: np.ndarray, walk=None):
        with self.timers.time(self._pair_phase_prefix + "pair_list"):
            return self.neighbor_list.pairs(positions, walk)

    def _range_limited(self, positions: np.ndarray):
        """Per-pair float64 forces and energies of the range-limited part.

        Tabulated kernels are one suite pass over the cached candidates
        (:meth:`_walk_pairs`); the analytic kernel takes the list's
        filtered pairs.
        """
        if self.tables is not None:
            return self._walk_pairs(positions)
        s = self.system
        pairs = self._pairs(positions)
        with self.timers.time(self._pair_phase_prefix + "range_limited"):
            return nonbonded_real_space(
                pairs,
                s.charges,
                s.type_ids,
                s.lj,
                s.exclusions,
                self.sigma,
                lj_mode=self.params.lj_mode,
                cutoff=self.params.cutoff,
                assume_filtered=True,
            )

    def _range_limited_codes(
        self, positions: np.ndarray, force_codec
    ) -> tuple[NonbondedResult, np.ndarray]:
        """Range-limited pair result plus quantized int64 force codes.

        The float evaluation and one quantization: the analytic
        kernel's fixed-point path and the machine's serial backend.
        """
        nb = self._range_limited(positions)
        with self.timers.time(self._quantize_phase):
            codes = force_codec.quantize_round_only(nb.force)
        return nb, codes

    def _deposit_range_limited(
        self, positions: np.ndarray, force_codec, acc: FixedAccumulator
    ) -> NonbondedResult:
        """Deposit the range-limited pair forces into ``acc``.

        Tabulated kernels are one suite walk per evaluation
        (:meth:`_walk_pairs`); the analytic kernel is
        :meth:`_range_limited_codes` and one pair deposit.
        """
        if self.tables is not None:
            return self._walk_pairs(positions, force_codec, acc)
        nb, codes = self._range_limited_codes(positions, force_codec)
        with self.timers.time(self._deposit_phase):
            self.kernels.deposit_pairs(acc.raw(), nb.i, nb.j, codes)
        return nb

    def _walk_pairs(
        self, positions: np.ndarray, force_codec=None, acc: FixedAccumulator | None = None
    ) -> NonbondedResult:
        """One suite pass over the cached candidates.

        Run from inside :meth:`NeighborList.pairs`: cutoff test and
        table evaluation, then either quantize-and-accumulate into
        ``acc`` (``pair_walk``; ``force`` is None) or, without one, the
        float64 force rows (``pair_rows``).  No per-pair array exists
        but the result's own — the surviving ``(i, j)``, the per-pair
        energies and the rows, all views of reused scratch, valid until
        the next evaluation.
        """
        spec, k = self._spec(force_codec), self.kernels

        def walk(wrapped, ii, jj, lengths):
            with self.timers.time(self._pair_phase_prefix + "range_limited"):
                oi, oj, e_lj, e_coul = self._pair_buffers(len(ii))
                if acc is not None:
                    m = k.pair_walk(
                        spec, wrapped, ii, jj, lengths, acc.raw(), oi, oj, e_lj, e_coul,
                    )
                    force = None
                else:
                    if self._pair_rows is None or len(self._pair_rows) < len(ii):
                        self._pair_rows = np.empty((len(oi), 3))
                    m = k.pair_rows(
                        spec, wrapped, ii, jj, lengths, oi, oj, self._pair_rows, e_lj, e_coul,
                    )
                    force = self._pair_rows[:m]
                return NonbondedResult(
                    energy_lj=float(np.sum(e_lj[:m])),
                    energy_coul=float(np.sum(e_coul[:m])),
                    i=oi[:m],
                    j=oj[:m],
                    force=force,
                    e_lj_pairs=e_lj[:m],
                    e_coul_pairs=e_coul[:m],
                )

        return self._pairs(positions, walk)

    def _bonded(self, positions: np.ndarray):
        with self.timers.time("bonded"):
            return all_bonded_forces(positions, self.system.box, self.system.topology)

    def _corrections(self, positions: np.ndarray):
        with self.timers.time("correction"):
            return correction_forces_static(
                positions, self.system.box, self._corr_static, self.sigma
            )

    def _kspace(self, positions: np.ndarray) -> tuple[float, np.ndarray]:
        """Mesh energy and forces, on the suite, into the kept plan."""
        with self.timers.time("kspace"):
            return self.gse.kspace(
                positions, self.system.charges, codec=self.mesh_codec,
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

    def compute_long_fixed(
        self, positions: np.ndarray, force_codec
    ) -> tuple[np.ndarray, dict]:
        """Fixed-point codes of the long-range components only.

        Raw (unwrapped) int64 sums — callers combine with short-range
        codes and wrap once.  No vsite redistribution here.
        """
        acc = self._accumulator("long", force_codec)
        corr = self._corrections(positions)
        ccodes = force_codec.quantize_round_only(corr.force)
        acc.deposit(corr.i, ccodes)
        acc.deposit(corr.j, -ccodes)
        e_k = 0.0
        if self.gse is not None:
            e_k, f_k = self._kspace(positions)
            acc.deposit_dense(force_codec.quantize_round_only(f_k))
        energies = {
            "correction": corr.energy_exclusion + corr.energy_14_coul,
            "lj14": corr.energy_14_lj,
            "coulomb_kspace": e_k,
            "coulomb_self": self._e_self,
        }
        return acc.raw(), energies

    def compute_fixed(
        self, positions: np.ndarray, force_codec, include_long_range: bool = True
    ) -> tuple[np.ndarray, ForceReport]:
        """Order-invariant fixed-point force codes.

        Every contribution (per pair, per bonded term, per atom of the
        mesh interpolation) is quantized once with ``force_codec`` and
        integer-accumulated, so the total is independent of evaluation
        and summation order — the machine simulation distributes these
        same contributions over nodes and obtains identical bits.
        """
        acc = self._accumulator("short", force_codec)
        energies: dict[str, float] = {}

        nb = self._deposit_range_limited(positions, force_codec, acc)
        energies["lj"] = nb.energy_lj
        energies["coulomb_real"] = nb.energy_coul

        bonded = self._bonded(positions)
        for contrib in bonded:
            if contrib.n_terms:
                c = force_codec.quantize_round_only(contrib.force)
                acc.deposit(contrib.idx.ravel(), c.reshape(-1, 3))
        energies["bond"] = bonded[0].energy
        energies["angle"] = bonded[1].energy
        energies["dihedral"] = bonded[2].energy

        if include_long_range:
            long_codes, long_energies = self.compute_long_fixed(positions, force_codec)
            acc.deposit_dense(long_codes)
            energies.update(long_energies)

        total = acc.total()
        total = self._spread_vsite_codes(total)
        report = ForceReport(
            forces=force_codec.reconstruct(total),
            energies=energies,
            n_pairs=nb.n_pairs,
        )
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
        self._last_long_energies: dict[str, float] = {}

    def __call__(self, positions: np.ndarray):
        if self.k == 1:
            # Single-rate fast path: one combined evaluation.
            self.calls += 1
            self.long_evaluations += 1
            if self.force_codec is not None:
                return self.calc.compute_fixed(positions, self.force_codec)
            report = self.calc.compute(positions)
            return report.forces, report
        include_long = self.calls % self.k == 0
        if self.force_codec is not None:
            out, report = self.calc.compute_fixed(
                positions, self.force_codec, include_long_range=False
            )
            if include_long:
                long_codes, long_energies = self.calc.compute_long_fixed(
                    positions, self.force_codec
                )
                with np.errstate(over="ignore"):
                    raw = out.astype(np.int64) + np.int64(self.k) * long_codes
                out = self.calc._spread_vsite_codes(self.force_codec.wrap(raw))
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
        report.energies.update(self._last_long_energies)
        self.calls += 1
        return out, report
