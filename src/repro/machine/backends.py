"""Execution backends for the functional machine simulation.

A :class:`MachineBackend` runs the per-node work of a machine time
step.  One ships:

* :class:`VectorizedBackend` — what every run uses: each phase's
  contributions deposited by single array kernels, owner grouping
  collapsed (integer accumulation commutes, so grouping cannot change
  the bits), cached import routes, and traffic accounting batched
  over per-step (atom, node) marks.

The literal per-node Python loops the array kernels replaced —
deposits grouped node by node, GSE spreading and interpolation called
once per owning node, traffic charged one ``send`` at a time — are the
oracle the differential tests and the scaling benchmark compare
against, and live with them: ``tests/serial_backend.py``, passed as
``AntonMachine(backend=SerialBackend())``.

Both produce bitwise-identical ``state_codes()`` trajectories and
identical reported energies: every force contribution is quantized
once and integer-accumulated, so *where* and *in what order*
contributions are summed is invisible — the paper's
parallel-invariance argument (Section 4) applied to the simulator's
own execution strategy.

Backends also charge their engine phases to ``machine_*`` timers
(``machine_nt_assign``, ``machine_deposit``, ``machine_mesh``,
``machine_traffic``) on the calculator's
:class:`~repro.perf.timers.Timers`.  The mesh has no loop here: the
vectorized backend's ``mesh_long_range`` is one lane of
:meth:`~repro.ewald.GaussianSplitEwald.mesh_pass` — the pass the float
path and the ensemble run — which charges ``mesh_plan`` /
``mesh_spread`` / ``mesh_unquantize`` / ``mesh_fft`` / ``mesh_interp``
(and, through its ``before_solve`` hook, ``mesh_fft_traffic``) nested
inside ``machine_mesh`` — the breakdown ``repro machine --profile`` and
the scaling benchmark report.  With tabulated kernels
the range-limited pair deposit happens inside the suite's pair walk and
is charged to ``range_limited``; ``machine_deposit`` then holds the
bonded and correction deposits only.
"""

from __future__ import annotations

import numpy as np

from repro.parallel import nt_assign_pairs, nt_node_tables, tower_plate_boxes

__all__ = ["MachineBackend", "VectorizedBackend"]

#: Largest box-pair count tabulated by the vectorized NT lookup; above
#: this (>= 2048 nodes) the direct per-pair computation is used.
_NT_TABLE_MAX_ENTRIES = 4 << 20


class MachineBackend:
    """Strategy interface for one machine step's per-node execution.

    A backend runs on the kernel suite (:mod:`repro.kernels`) of the
    calculator it is bound to — the one :class:`~repro.machine.AntonMachine`
    resolved from its ``kernel_tier`` / ``kernel_threads`` — and keeps
    it as ``kernels``.  Every suite is bitwise identical, so the suite
    composes freely with every backend and with fault-recovery replay.
    """

    name = "base"

    def bind(self, calc) -> None:
        """Attach to a MachineForceCalculator (called once by it)."""
        self.calc = calc
        self.kernels = calc.kernels

    # -- force deposit phases -------------------------------------------

    def range_limited(self, calc, positions, force_codec, acc):
        """Compute + deposit range-limited pair forces; return (nb, export).

        ``export`` is the backend's own record of the step's NT
        assignment, handed back to :meth:`account_force_export`.
        """
        raise NotImplementedError

    def deposit_bonded(self, calc, acc, bonded, force_codec) -> None:
        raise NotImplementedError

    def deposit_corrections(self, calc, acc, corr, ccodes) -> None:
        raise NotImplementedError

    def mesh_long_range(self, calc, positions, acc, force_codec) -> float:
        """Spread/solve/interpolate the GSE mesh; returns the k-space energy."""
        raise NotImplementedError

    # -- traffic accounting ---------------------------------------------

    def account_position_import(self, machine) -> None:
        raise NotImplementedError

    def account_force_export(self, machine, export) -> None:
        raise NotImplementedError


class VectorizedBackend(MachineBackend):
    """Segmented group-by execution: one array kernel per phase.

    Owner/node grouping is dropped wherever integer accumulation makes
    it unobservable, the NT assignment reuses one ``box_coord`` pass
    over the whole configuration, the GSE mesh is one lane of the shared
    mesh pass, and traffic is charged
    through :meth:`~repro.parallel.comm.SimNetwork.send_batch` with
    routes computed by array ops (position-import routes are static per
    machine and cached).  Bitwise identical to the serial test oracle.
    """

    name = "vectorized"

    def bind(self, calc) -> None:
        super().bind(calc)
        self._import_routes: tuple[np.ndarray, np.ndarray] | None = None
        self._nt_table: np.ndarray | None = None
        #: Per-side (atom, node) force-export marks, reused across steps.
        self._marks: tuple[np.ndarray, np.ndarray] | None = None

    def _nt_marks(self, m, positions, i, j) -> tuple[np.ndarray, np.ndarray]:
        """The step's NT assignment as per-side (atom, node) marks.

        The computing node is a pure function of the two home-box ids
        (see :func:`~repro.parallel.nt.nt_node_tables`), so per step
        the assignment is one ``node_of`` pass over the configuration
        and one kernel pass over the pairs that looks each node up and
        marks the two per-atom force sums it leaves there — all
        :meth:`account_force_export` needs, with no per-pair array.
        The node depends on the atoms' *current* home boxes and the
        pairs on this step's cutoff test, so the marks are per step,
        not per rebuild.
        """
        n = m.topology.n_nodes
        if self._marks is None:
            self._marks = tuple(np.zeros((len(positions), n), dtype=np.bool_) for _ in "ij")
        marks_i, marks_j = self._marks
        if n * n > _NT_TABLE_MAX_ENTRIES:
            coords = m.decomp.box_coord(positions)
            node = nt_assign_pairs(m.decomp, positions, i, j, atom_box_coords=coords).node
            for marks, atoms in ((marks_i, i), (marks_j, j)):
                marks[...] = False
                marks[atoms, node] = True
            return self._marks
        if self._nt_table is None:
            self._nt_table = np.ascontiguousarray(nt_node_tables(m.decomp)[0])
        self.kernels.nt_marks(
            i, j, m.decomp.node_of(positions), self._nt_table, marks_i, marks_j
        )
        return self._marks

    def range_limited(self, calc, positions, force_codec, acc):
        nb = calc._range_limited(positions, force_codec, acc)
        with calc.timers.time("machine_nt_assign"):
            marks = self._nt_marks(calc.machine, positions, nb.i, nb.j)
        return nb, marks

    def deposit_bonded(self, calc, acc, bonded, force_codec) -> None:
        for contrib in bonded:
            if contrib.n_terms:
                c = force_codec.quantize_round_only(contrib.force)
                acc.deposit(contrib.idx.ravel(), c.reshape(-1, 3))

    def deposit_corrections(self, calc, acc, corr, ccodes) -> None:
        self.kernels.deposit_pairs(acc.raw(), corr.i, corr.j, ccodes)

    def mesh_long_range(self, calc, positions, acc, force_codec) -> float:
        t = calc.timers

        # FFT traffic accounting and the FFT solve are separate phases:
        # the former is simulated-machine bookkeeping, the latter engine
        # compute, and the overhead attribution must tell them apart.
        def account_fft():
            with t.time("mesh_fft_traffic"):
                calc.machine.account_fft()

        e_k, f_k = calc.gse.mesh_pass(
            positions, calc.system.charges, codec=calc.mesh_codec, kernels=self.kernels,
            plan=calc._mesh_plan, timers=t, before_solve=account_fft,
        )
        with t.time("mesh_interp"):
            acc.deposit_dense(force_codec.quantize_round_only(f_k))
        return float(e_k[0])

    def _import_route_arrays(self, machine) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) node ids of every tower/plate import route.

        The import region depends only on the decomposition and the
        (constant) reach, so the routes are computed once per machine.
        """
        if self._import_routes is None:
            reach = machine.params.cutoff + machine.migration.import_margin()
            srcs, dsts = [], []
            for node in range(machine.topology.n_nodes):
                tower, plate = tower_plate_boxes(
                    machine.decomp, machine.topology.coord(node), reach
                )
                for bx in tower | plate:
                    src = machine.topology.node_id(bx)
                    if src != node:
                        srcs.append(src)
                        dsts.append(node)
            self._import_routes = (
                np.asarray(srcs, dtype=np.int64),
                np.asarray(dsts, dtype=np.int64),
            )
        return self._import_routes

    def account_position_import(self, machine) -> None:
        counts = machine._node_occupancy()
        src, dst = self._import_route_arrays(machine)
        nbytes = counts[src] * machine.hw.bytes_per_position
        occupied = nbytes > 0
        # multicast_routes == send_batch for the flat statistics; an
        # attached router additionally groups the routes by source into
        # NT broadcast trees (matching the serial backend's grouping).
        machine.network.multicast_routes(
            src[occupied], dst[occupied], nbytes[occupied], tag="position_import"
        )

    def account_force_export(self, machine, export) -> None:
        """Charge the exact force-export routes from the marks.

        Each remote (atom, computing-node) contribution is one summed
        force vector travelling from the computing node to the atom's
        owner; a route's byte count is the exact count of such vectors
        (times ``bytes_per_force``, floored at the minimum message
        size).

        A side's set marks, in flat order, are the ascending unique
        ``atom * n + node`` keys ``np.unique`` finds over the pairs.
        Local contributions (the computing node owns the atom) survive
        to the route stage here but land on src == dst routes, which
        ``send_batch`` drops — the charged statistics are exactly the
        serial oracle's.
        """
        n = machine.topology.n_nodes
        for marks in export:
            contrib = np.flatnonzero(marks)
            route = (contrib % n) * n + machine.owners[contrib // n]
            counts = np.bincount(route, minlength=n * n)
            routes = np.nonzero(counts)[0]
            nbytes = np.maximum(
                counts[routes] * machine.hw.bytes_per_force, machine.hw.min_message_bytes
            )
            machine.network.send_batch(routes // n, routes % n, nbytes, tag="force_export")
