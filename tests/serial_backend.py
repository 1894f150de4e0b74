"""The serial machine backend: the per-node oracle of the array kernels.

:class:`SerialBackend` is the literal per-node Python loops
:class:`repro.machine.backends.VectorizedBackend` replaced: deposits
grouped node by node, GSE spreading and interpolation called once per
owning node, traffic charged one ``send`` at a time.  It is what the
differential tests compare the shipped backend against, and runs as
``AntonMachine(backend=SerialBackend())``.
"""

from __future__ import annotations

import numpy as np

from repro.machine.backends import MachineBackend
from repro.parallel import nt_assign_pairs, tower_plate_boxes

__all__ = ["SerialBackend", "machine_backend"]


def machine_backend(name: str):
    """What ``AntonMachine(backend=)`` takes for a parametrize id."""
    return SerialBackend() if name == "serial" else name


def _force_export_side(machine, pair_nodes: np.ndarray, atoms: np.ndarray):
    """Exact force-export routes for one side of the pair list.

    Each remote (atom, computing-node) contribution is one summed force
    vector travelling from the computing node to the atom's owner; the
    per-route byte count is the exact count of such vectors (times
    ``bytes_per_force``, floored at the minimum message size) — the old
    even-split integer division undercounted by up to
    ``len(routes) - 1`` force records per step.

    Returns ``(src, dst, nbytes)`` arrays, or None when nothing leaves
    its computing node.
    """
    owner = machine.owners[atoms]
    remote = pair_nodes != owner
    if not np.any(remote):
        return None
    n = np.int64(machine.topology.n_nodes)
    contrib = np.unique(atoms[remote] * n + pair_nodes[remote])
    c_src = contrib % n
    route = c_src * n + machine.owners[contrib // n]
    routes, counts = np.unique(route, return_counts=True)
    nbytes = np.maximum(
        counts * machine.hw.bytes_per_force, machine.hw.min_message_bytes
    )
    return routes // n, routes % n, nbytes


class SerialBackend(MachineBackend):
    """Per-node Python loops — the original execution strategy.

    Every phase iterates over simulated nodes (or routes) in Python, so
    its cost grows with the node count even though the physics does
    not.  This is the pre-vectorization baseline preserved for the
    scaling benchmark and for differential testing.
    """

    name = "serial"

    def _deposit_by_node(self, calc, acc, node, i, j, codes) -> None:
        """Deposit pair contributions node by node (ascending id)."""
        order = np.argsort(node, kind="stable")
        n_nodes = calc.machine.topology.n_nodes
        boundaries = np.searchsorted(node[order], np.arange(n_nodes + 1))
        for n in range(n_nodes):
            sel = order[boundaries[n] : boundaries[n + 1]]
            if len(sel):
                acc.deposit(i[sel], codes[sel])
                acc.deposit(j[sel], -codes[sel])

    def range_limited(self, calc, positions, force_codec, acc):
        m = calc.machine
        nb = calc._range_limited(positions)
        codes = force_codec.quantize_round_only(nb.force)
        with calc.timers.time("machine_nt_assign"):
            assign = nt_assign_pairs(m.decomp, positions, nb.i, nb.j)
        with calc.timers.time("machine_deposit"):
            self._deposit_by_node(calc, acc, assign.node, nb.i, nb.j, codes)
        return nb, (assign.node, nb.i, nb.j)

    def deposit_bonded(self, calc, acc, bonded, force_codec) -> None:
        term_nodes = calc.machine.bond_assignment.term_node
        offset = 0
        for contrib in bonded:
            if contrib.n_terms:
                t_nodes = term_nodes[offset : offset + contrib.n_terms]
                c = force_codec.quantize_round_only(contrib.force)
                for n in np.unique(t_nodes):
                    sel = t_nodes == n
                    acc.deposit(contrib.idx[sel].ravel(), c[sel].reshape(-1, 3))
            offset += contrib.n_terms

    def deposit_corrections(self, calc, acc, corr, ccodes) -> None:
        corr_nodes = calc.machine.owners[corr.i]
        self._deposit_by_node(calc, acc, corr_nodes, corr.i, corr.j, ccodes)

    def mesh_long_range(self, calc, positions, acc, force_codec) -> float:
        s, m, gse = calc.system, calc.machine, calc.gse
        t = calc.timers
        # One stencil plan per node, over the atoms it owns.  Bitwise
        # equal to one plan over all atoms: every plan kernel is per-atom
        # arithmetic plus a commutative reduction, so the partition is
        # invisible in the bits.
        node_rows = [np.nonzero(m.owners == n)[0] for n in range(m.topology.n_nodes)]
        with t.time("mesh_plan"):
            plans = [(rows, gse.make_plan(positions[rows])) for rows in node_rows if len(rows)]
        mesh_acc = np.zeros(gse.mesh_point_count(), dtype=np.int64)
        with t.time("mesh_spread"):
            for rows, plan in plans:
                plan.spread_codes(s.charges[rows], mesh_acc, calc.mesh_codec, kernels=calc.kernels)
        with t.time("mesh_unquantize"):
            Q = calc.mesh_codec.reconstruct(calc.mesh_codec.wrap(mesh_acc)).reshape(
                tuple(gse.mesh)
            )
        with t.time("mesh_fft_traffic"):
            m.account_fft()
        with t.time("mesh_fft"):
            phi, e_k = gse.solve(Q)

        # Force interpolation, per owning node.
        with t.time("mesh_interp"):
            for rows, plan in plans:
                f_k = plan.interpolate_forces(s.charges[rows], phi, kernels=calc.kernels)
                acc.deposit(rows, force_codec.quantize_round_only(f_k))
        return e_k

    def account_position_import(self, machine) -> None:
        # Each occupied source box broadcasts its atoms to every node
        # whose tower/plate imports it — one multicast per source.  The
        # charged statistics equal the old per-route ``send`` loop
        # (multicast batches the same routes); grouping by source is
        # what lets an attached router model the NT broadcast as a
        # spanning tree instead of per-destination unicast paths.
        counts = machine._node_occupancy()
        reach = machine.params.cutoff + machine.migration.import_margin()
        dsts_of: dict[int, list[int]] = {}
        for node in range(machine.topology.n_nodes):
            tower, plate = tower_plate_boxes(
                machine.decomp, machine.topology.coord(node), reach
            )
            for bx in tower | plate:
                src = machine.topology.node_id(bx)
                if src == node or counts[src] == 0:
                    continue
                dsts_of.setdefault(src, []).append(node)
        for src in sorted(dsts_of):
            machine.network.multicast(
                src,
                dsts_of[src],
                int(counts[src]) * machine.hw.bytes_per_position,
                tag="position_import",
            )

    def account_force_export(self, machine, export) -> None:
        pair_nodes, i, j = export
        for atoms in (i, j):
            out = _force_export_side(machine, pair_nodes, atoms)
            if out is None:
                continue
            for src, dst, nbytes in zip(*out):
                machine.network.send(int(src), int(dst), int(nbytes), tag="force_export")
