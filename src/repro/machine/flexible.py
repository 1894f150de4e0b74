"""Flexible-subsystem model: geometry cores, static bond-term
assignment, bond destinations, and the correction pipeline
(paper Sections 2.2, 3.2.3).

"Bond terms are statically assigned to GCs, so that each atom has a
fixed set of 'bond destinations.'  On every time step an atom's
position is sent directly to the flexible subsystems containing its
bond destinations ... this approach allows us to perform static
load-balancing among the GCs so that the worst-case load is
minimized."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.forcefield import ExclusionTable, Topology
from repro.machine.config import ANTON_2008, AntonHardware

__all__ = ["BondTerm", "BondTermAssignment", "assign_bond_terms", "correction_pairs_per_node"]

#: Relative GC cost of evaluating each term kind (arithmetic op counts).
TERM_COST = {"bond": 1.0, "angle": 2.4, "dihedral": 5.0}


@dataclass(frozen=True)
class BondTerm:
    """One bonded term: kind, its atoms, and its GC cost."""

    kind: str
    atoms: tuple[int, ...]
    cost: float


@dataclass
class BondTermAssignment:
    """Static assignment of bond terms to (node, geometry core) slots."""

    terms: list[BondTerm]
    term_node: np.ndarray          # node id per term
    term_gc: np.ndarray            # GC index within node per term
    gc_load: dict[tuple[int, int], float]  # (node, gc) -> summed cost
    bond_destinations: dict[int, set[int]]  # atom -> nodes needing its position

    def worst_gc_load(self) -> float:
        return max(self.gc_load.values(), default=0.0)

    def destination_messages(self, owners: np.ndarray) -> int:
        """Off-node position sends per step: one per (atom, remote
        destination node) pair (then replicated on-chip to GCs and the
        correction pipeline for free)."""
        count = 0
        for atom, nodes in self.bond_destinations.items():
            count += sum(1 for n in nodes if n != owners[atom])
        return count


def _gather_terms(topology: Topology) -> list[BondTerm]:
    topology.compile()
    terms: list[BondTerm] = []
    for idx in topology.bond_idx:
        terms.append(BondTerm("bond", tuple(int(a) for a in idx), TERM_COST["bond"]))
    for idx in topology.angle_idx:
        terms.append(BondTerm("angle", tuple(int(a) for a in idx), TERM_COST["angle"]))
    for idx in topology.dihedral_idx:
        terms.append(BondTerm("dihedral", tuple(int(a) for a in idx), TERM_COST["dihedral"]))
    return terms


def assign_bond_terms(
    topology: Topology,
    owners: np.ndarray,
    hw: AntonHardware = ANTON_2008,
) -> BondTermAssignment:
    """Statically assign bond terms to geometry cores.

    Each term goes to the node owning its first atom (keeping bond
    destinations close to home nodes, as the periodic reassignment in
    the paper maintains); within a node, terms are spread over the GCs
    by longest-processing-time-first, minimizing the worst-case load.
    """
    terms = _gather_terms(topology)
    term_node = np.array([owners[t.atoms[0]] for t in terms], dtype=np.int64)

    # LPT per node: sort that node's terms by cost descending, place
    # each on the currently lightest GC.
    term_gc = np.zeros(len(terms), dtype=np.int64)
    gc_load: dict[tuple[int, int], float] = {}
    for node in np.unique(term_node):
        t_ids = np.nonzero(term_node == node)[0]
        order = sorted(t_ids, key=lambda t: (-terms[t].cost, t))
        loads = [0.0] * hw.n_geometry_cores
        for t in order:
            gc = int(np.argmin(loads))
            term_gc[t] = gc
            loads[gc] += terms[t].cost
        for gc, load in enumerate(loads):
            if load:
                gc_load[(int(node), gc)] = load

    destinations: dict[int, set[int]] = {}
    for t, term in enumerate(terms):
        for atom in term.atoms:
            destinations.setdefault(atom, set()).add(int(term_node[t]))
    return BondTermAssignment(
        terms=terms,
        term_node=term_node,
        term_gc=term_gc,
        gc_load=gc_load,
        bond_destinations=destinations,
    )


def correction_pairs_per_node(
    exclusions: ExclusionTable, owners: np.ndarray
) -> dict[int, int]:
    """Correction-pipeline list lengths per node.

    Correction pairs (excluded + 1-4) are processed on the node owning
    the pair's first atom — the correction pipeline is "a PPIP with the
    necessary control logic to process a list of atom pairs"
    (Section 3.1).
    """
    out: dict[int, int] = {}
    for arr in (exclusions.excluded, exclusions.pair14):
        if len(arr):
            nodes, counts = np.unique(owners[arr[:, 0]], return_counts=True)
            for n, c in zip(nodes, counts):
                out[int(n)] = out.get(int(n), 0) + int(c)
    return out
