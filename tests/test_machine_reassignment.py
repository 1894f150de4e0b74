"""Unit tests for periodic bond-term reassignment (Section 3.2.3)."""

import numpy as np
import pytest

from repro.core import MDParams, minimize_energy
from repro.machine import AntonMachine
from repro.systems import build_solvated_protein


@pytest.fixture(scope="module")
def protein_system():
    s = build_solvated_protein(n_residues=3, side=16.0, seed=41)
    minimize_energy(s, MDParams(cutoff=4.5, mesh=(32, 32, 32)), max_steps=40)
    s.initialize_velocities(320.0, seed=42)
    return s


def test_reassignment_does_not_change_physics(protein_system):
    params = MDParams(cutoff=4.5, mesh=(32, 32, 32))
    ref = AntonMachine(protein_system.copy(), params, n_nodes=8, dt=1.0)
    ref.step(6)
    aggressive = AntonMachine(
        protein_system.copy(), params, n_nodes=8, dt=1.0, bond_reassign_interval=2
    )
    aggressive.step(6)
    assert np.array_equal(ref.state_codes()[0], aggressive.state_codes()[0])
    assert np.array_equal(ref.state_codes()[1], aggressive.state_codes()[1])


def test_reassignment_tracks_current_owners(protein_system):
    params = MDParams(cutoff=4.5, mesh=(32, 32, 32))
    m = AntonMachine(protein_system.copy(), params, n_nodes=8, dt=1.0)
    # Force a fake ownership change, reassign, and check the term
    # placement followed it.
    term0_atom = m.bond_assignment.terms[0].atoms[0]
    old_node = m.bond_assignment.term_node[0]
    new_node = (old_node + 1) % m.topology.n_nodes
    m.owners = m.owners.copy()
    m.owners[term0_atom] = new_node
    m.reassign_bond_terms()
    assert m.bond_assignment.term_node[0] == new_node


def test_reassignment_interval_respected(protein_system):
    params = MDParams(cutoff=4.5, mesh=(32, 32, 32))
    m = AntonMachine(
        protein_system.copy(), params, n_nodes=8, dt=1.0, bond_reassign_interval=3
    )
    first = m.bond_assignment
    m.step(2)
    assert m.bond_assignment is first  # not yet
    m.step(1)
    assert m.bond_assignment is not first  # step 3 triggered it
