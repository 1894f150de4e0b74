"""Unit tests for the molecular topology builder."""

import numpy as np
import pytest

from repro.forcefield import TIP3P, TIP4PEW, Topology, add_water_to_topology


class TestTopologyBuilding:
    def test_bond_arrays(self):
        top = Topology(4)
        top.add_bond(0, 1, 340.0, 1.09)
        top.add_bond(1, 2, 310.0, 1.52)
        top.compile()
        assert top.n_bond_terms == 2
        np.testing.assert_array_equal(top.bond_idx, [[0, 1], [1, 2]])
        np.testing.assert_allclose(top.bond_r0, [1.09, 1.52])

    def test_index_validation(self):
        top = Topology(3)
        with pytest.raises(IndexError):
            top.add_bond(0, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            top.add_bond(1, 1, 1.0, 1.0)

    def test_compile_is_idempotent(self):
        top = Topology(2)
        top.add_bond(0, 1, 1.0, 1.0)
        top.compile()
        top.compile()
        assert top.n_bond_terms == 1

    def test_no_mutation_after_compile(self):
        top = Topology(2)
        top.compile()
        with pytest.raises(RuntimeError):
            top.add_bond(0, 1, 1.0, 1.0)

    def test_empty_topology_compiles(self):
        top = Topology(5).compile()
        assert top.n_bond_terms == 0
        assert top.n_constraints == 0
        assert len(top.angle_idx) == 0


class TestMerge:
    def test_merge_offsets_indices(self):
        frag = Topology(3)
        frag.add_bond(0, 1, 2.0, 1.0)
        frag.add_angle(0, 1, 2, 3.0, 1.9)
        whole = Topology(6)
        whole.merge(frag, 0)
        whole.merge(frag, 3)
        whole.compile()
        np.testing.assert_array_equal(whole.bond_idx, [[0, 1], [3, 4]])
        np.testing.assert_array_equal(whole.angle_idx, [[0, 1, 2], [3, 4, 5]])

    def test_merge_overflow_rejected(self):
        frag = Topology(3)
        whole = Topology(4)
        with pytest.raises(ValueError):
            whole.merge(frag, 2)


class TestConstraintGroups:
    def test_water_is_one_group(self):
        top = Topology(3)
        add_water_to_topology(top, 0, TIP3P)
        groups = top.constraint_groups()
        assert len(groups) == 1
        np.testing.assert_array_equal(groups[0], [0, 1, 2])

    def test_tip4pew_vsite_joins_group(self):
        top = Topology(4)
        add_water_to_topology(top, 0, TIP4PEW)
        groups = top.constraint_groups()
        assert len(groups) == 1
        np.testing.assert_array_equal(groups[0], [0, 1, 2, 3])

    def test_disjoint_groups(self):
        top = Topology(7)
        add_water_to_topology(top, 0, TIP3P)
        add_water_to_topology(top, 3, TIP3P)
        top.add_constraint(6, 5, 1.0)  # H of second water bonded further
        groups = top.constraint_groups()
        assert len(groups) == 2
        assert sorted(map(len, groups)) == [3, 4]

    def test_groups_are_computed_once_and_flatten_to_member_leader(self):
        top = Topology(7)
        add_water_to_topology(top, 0, TIP3P)
        add_water_to_topology(top, 3, TIP3P)
        top.add_constraint(6, 5, 1.0)
        groups = top.constraint_groups()
        assert top.constraint_groups() is groups  # memoised: the topology is frozen
        with pytest.raises(RuntimeError):
            top.add_constraint(0, 6, 1.0)  # ... so nothing can invalidate it
        member, leader = top.constraint_group_members()
        np.testing.assert_array_equal(member, [0, 1, 2, 3, 4, 5, 6])
        np.testing.assert_array_equal(leader, [0, 0, 0, 3, 3, 3, 3])
        empty = Topology(2).constraint_group_members()
        assert len(empty[0]) == len(empty[1]) == 0

    def test_unconstrained_atoms_not_in_groups(self):
        top = Topology(5)
        top.add_constraint(0, 1, 1.0)
        groups = top.constraint_groups()
        assert len(groups) == 1
        covered = set(np.concatenate(groups).tolist())
        assert covered == {0, 1}

    def test_bonded_graph_includes_constraints_and_vsites(self):
        top = Topology(4)
        add_water_to_topology(top, 0, TIP4PEW)
        edges = {tuple(sorted(e)) for e in top.bonded_graph_edges().tolist()}
        assert (0, 1) in edges  # O-H1 constraint
        assert (1, 2) in edges  # H-H constraint
        assert (0, 3) in edges  # M-O vsite attachment
