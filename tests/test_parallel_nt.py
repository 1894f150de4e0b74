"""Unit tests for spatial decomposition, the NT method, and baselines."""

import numpy as np
import pytest

from repro.forcefield import Topology
from repro.geometry import Box, half_shell_import_volume, neighbor_pairs, nt_import_volume
from repro.parallel import (
    SpatialDecomposition,
    TorusTopology,
    match_efficiency,
    nt_assign_pairs,
    nt_node_tables,
    tower_plate_boxes,
)


def make_decomp(side=32.0, dims=(4, 4, 4), subdiv=1):
    return SpatialDecomposition(Box.cubic(side), TorusTopology(dims), subdiv)


class TestSpatialDecomposition:
    def test_box_coord_ranges(self):
        d = make_decomp()
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 32, (500, 3))
        c = d.box_coord(pos)
        assert np.all(c >= 0) and np.all(c < 4)

    def test_node_of_matches_torus_ids(self):
        d = make_decomp()
        pos = np.array([[1.0, 9.0, 17.0]])  # boxes (0, 1, 2)
        assert d.node_of(pos)[0] == d.torus.node_id((0, 1, 2))

    def test_edge_position_clamped(self):
        """Home boxes are the cells of position codes: no index reaches the
        box count.  A coordinate one code under L is in the last box; one
        within half a code of L is the code 0, the face the torus joins it to."""
        d = make_decomp()
        one_code = 32.0 / 2**40
        pos = np.array([[32.0 - one_code, 0.0, 0.0], [32.0 - 1e-13, 0.0, 0.0]])
        assert d.box_coord(pos)[:, 0].tolist() == [3, 0]

    def test_subbox_coord(self):
        d = make_decomp(subdiv=2)
        pos = np.array([[5.0, 0.5, 0.5]])  # second subbox in x
        assert d.subbox_coord(pos)[0, 0] == 1

    def test_constraint_group_ownership(self):
        d = make_decomp()
        top = Topology(2)
        top.add_constraint(0, 1, 1.0)
        # Atoms in different boxes; group follows the first atom.
        pos = np.array([[7.9, 1.0, 1.0], [8.1, 1.0, 1.0]])
        owners = d.assign_atoms(pos, top)
        assert owners[0] == owners[1] == d.node_of(pos[:1])[0]

    def test_group_ownership_and_extent_match_the_per_group_loop(self):
        # assign_atoms / max_group_extent are one fancy-index over the
        # topology's flattened (member, leader) arrays; the definition
        # is the loop over constraint_groups().
        from repro.systems import build_water_box

        system = build_water_box(n_molecules=40, seed=3)
        d = SpatialDecomposition(system.box, TorusTopology((4, 4, 4)))
        # (shifted: the builder's lattice keeps molecules clear of box faces)
        top, pos = system.topology, system.positions + [1.3, 0.7, 2.1]
        owners = d.node_of(pos)
        worst = 0.0
        for group in top.constraint_groups():
            owners[group] = owners[group[0]]
            worst = max(worst, float(np.max(
                system.box.distance(pos[group], pos[group[0]]))))
        np.testing.assert_array_equal(d.assign_atoms(pos, top), owners)
        assert d.max_group_extent(pos, top) == worst
        assert not np.array_equal(owners, d.node_of(pos))  # groups do straddle

    def test_no_groups_no_extent(self):
        d = make_decomp()
        pos = np.array([[1.0, 1.0, 1.0], [9.0, 1.0, 1.0]])
        top = Topology(2)
        assert d.max_group_extent(pos, top) == 0.0
        np.testing.assert_array_equal(d.assign_atoms(pos, top), d.node_of(pos))

    def test_subdiv_validation(self):
        with pytest.raises(ValueError):
            make_decomp(subdiv=0)


class TestNTAssignment:
    @pytest.mark.parametrize("dims", [(4, 4, 4), (2, 2, 2), (8, 4, 2), (1, 1, 1)])
    def test_each_pair_assigned_exactly_once(self, dims):
        # Exactly-once is guaranteed by the rule being a function; what
        # needs checking is that the assignment is *consistent*: the
        # node must see both atoms in its tower/plate import region.
        box = Box.cubic(24.0)
        decomp = SpatialDecomposition(box, TorusTopology(dims))
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 24, (300, 3))
        pairs = neighbor_pairs(pos, box, 5.0)
        out = nt_assign_pairs(decomp, pos, pairs.i, pairs.j)
        assert len(out.node) == len(pairs.i)
        assert np.all(out.node >= 0) and np.all(out.node < decomp.torus.n_nodes)

    def test_antisymmetric_under_swap(self):
        # Assignment must not depend on pair orientation.
        box = Box.cubic(24.0)
        decomp = SpatialDecomposition(box, TorusTopology((4, 4, 4)))
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 24, (200, 3))
        pairs = neighbor_pairs(pos, box, 5.0)
        a = nt_assign_pairs(decomp, pos, pairs.i, pairs.j)
        b = nt_assign_pairs(decomp, pos, pairs.j, pairs.i)
        np.testing.assert_array_equal(a.node, b.node)

    def test_neutral_territory_occurs(self):
        # The defining feature: some pairs are computed on nodes where
        # neither atom lives.
        box = Box.cubic(32.0)
        decomp = SpatialDecomposition(box, TorusTopology((4, 4, 4)))
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 32, (600, 3))
        pairs = neighbor_pairs(pos, box, 7.0)
        out = nt_assign_pairs(decomp, pos, pairs.i, pairs.j)
        assert np.count_nonzero(out.neutral) > 0

    def test_pair_within_import_region(self):
        # Every pair's two atoms must lie in the computing node's
        # tower or plate region (at box granularity).
        box = Box.cubic(32.0)
        decomp = SpatialDecomposition(box, TorusTopology((4, 4, 4)))
        rng = np.random.default_rng(4)
        pos = rng.uniform(0, 32, (400, 3))
        cutoff = 7.0
        pairs = neighbor_pairs(pos, box, cutoff)
        out = nt_assign_pairs(decomp, pos, pairs.i, pairs.j)
        coords = decomp.box_coord(pos)
        for k in range(0, len(pairs.i), 37):  # sample
            node = int(out.node[k])
            tower, plate = tower_plate_boxes(decomp, decomp.torus.coord(node), cutoff)
            region = tower | plate
            ca = tuple(coords[pairs.i[k]])
            cb = tuple(coords[pairs.j[k]])
            assert ca in region and cb in region

    def test_same_box_pairs_on_that_node(self):
        box = Box.cubic(32.0)
        decomp = SpatialDecomposition(box, TorusTopology((4, 4, 4)))
        pos = np.array([[1.0, 1.0, 1.0], [2.0, 1.5, 1.2]])
        out = nt_assign_pairs(decomp, pos, np.array([0]), np.array([1]))
        assert out.node[0] == decomp.node_of(pos[:1])[0]
        assert not out.neutral[0]


class TestHalfShell:
    def test_half_shell_import_larger_than_nt(self):
        # Figure 3's message: NT imports less volume when boxes are
        # small relative to the cutoff (bench_figure3_import_volume.py
        # checks both volumes against voxel counts).
        assert nt_import_volume((8.0, 8.0, 8.0), 13.0) < half_shell_import_volume((8.0, 8.0, 8.0), 13.0)


class TestMatchEfficiency:
    def test_subboxes_increase_efficiency(self):
        e1 = match_efficiency(16.0, 13.0, 1, n_samples=4)
        e2 = match_efficiency(16.0, 13.0, 2, n_samples=4)
        e4 = match_efficiency(16.0, 13.0, 4, n_samples=4)
        assert e1 < e2 < e4

    def test_smaller_boxes_higher_efficiency(self):
        e8 = match_efficiency(8.0, 13.0, 1, n_samples=4)
        e32 = match_efficiency(32.0, 13.0, 1, n_samples=3)
        assert e32 < e8

    def test_table3_8A_band(self):
        # Paper: 25% for 8 A boxes, one subbox, 13 A cutoff.
        e = match_efficiency(8.0, 13.0, 1, n_samples=8)
        assert 0.20 < e < 0.35


class TestNTVectorizedPaths:
    def _random_pairs(self, decomp, n_atoms=200, n_pairs=600, seed=2):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0.0, decomp.box.lengths[0], (n_atoms, 3))
        i = rng.integers(0, n_atoms, n_pairs)
        j = rng.integers(0, n_atoms, n_pairs)
        keep = i != j
        return pos, i[keep], j[keep]

    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 4), (4, 2, 1)])
    def test_atom_box_coords_identical(self, dims):
        d = make_decomp(dims=dims)
        pos, i, j = self._random_pairs(d)
        direct = nt_assign_pairs(d, pos, i, j)
        cached = nt_assign_pairs(d, pos, i, j, atom_box_coords=d.box_coord(pos))
        np.testing.assert_array_equal(direct.node, cached.node)
        np.testing.assert_array_equal(direct.neutral, cached.neutral)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 4), (4, 2, 1), (8, 4, 2)])
    def test_node_tables_match_direct(self, dims):
        d = make_decomp(dims=dims)
        node_tab, neutral_tab = nt_node_tables(d)
        pos, i, j = self._random_pairs(d, seed=7)
        direct = nt_assign_pairs(d, pos, i, j)
        flat = d.node_of(pos)
        key = flat[i] * node_tab.shape[0] + flat[j]
        np.testing.assert_array_equal(node_tab.ravel()[key], direct.node)
        np.testing.assert_array_equal(neutral_tab.ravel()[key], direct.neutral)
