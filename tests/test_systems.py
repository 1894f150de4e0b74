"""Unit tests for the system builders and benchmark specs."""

import numpy as np
import pytest

from repro.forcefield import TIP4PEW
from repro.systems import (
    BPTI,
    TABLE4_SYSTEMS,
    benchmark_by_name,
    build_hp_system,
    build_solvated_protein,
    build_water_box,
    hp_miniprotein,
    standard_lj_table,
    synthetic_protein,
)
from repro.util import WATER_MOLECULE_DENSITY


class TestWaterBox:
    def test_molecule_count_and_sites(self):
        s = build_water_box(n_molecules=50, seed=0)
        assert s.n_atoms == 150
        assert s.meta["n_water_molecules"] == 50

    def test_density_from_side(self):
        s = build_water_box(side=25.0, seed=0)
        expected = int(round(25.0**3 * WATER_MOLECULE_DENSITY))
        assert s.meta["n_water_molecules"] == expected

    def test_neutral(self):
        s = build_water_box(n_molecules=30, seed=1)
        assert abs(float(np.sum(s.charges))) < 1e-10

    def test_tip4pew_has_vsites(self):
        s = build_water_box(n_molecules=10, model=TIP4PEW, seed=0)
        assert s.n_atoms == 40
        assert np.count_nonzero(~s.massive) == 10

    def test_no_heavy_atom_overlaps(self):
        # H-H contacts between lattice neighbors are expected before
        # minimization; the oxygens themselves must not overlap.
        s = build_water_box(n_molecules=100, seed=2)
        from repro.geometry import neighbor_pairs

        o_pos = s.positions[0::3]
        pairs = neighbor_pairs(o_pos, s.box, 2.2)
        assert len(pairs.i) == 0

    def test_requires_some_argument(self):
        with pytest.raises(ValueError):
            build_water_box()

    def test_deterministic(self):
        a = build_water_box(n_molecules=20, seed=5)
        b = build_water_box(n_molecules=20, seed=5)
        np.testing.assert_array_equal(a.positions, b.positions)


class TestSyntheticProtein:
    def test_atom_count(self):
        frag = synthetic_protein(10)
        assert frag.n_atoms == 80

    def test_neutral_per_residue(self):
        frag = synthetic_protein(5)
        per_res = frag.charges.reshape(5, 8).sum(axis=1)
        np.testing.assert_allclose(per_res, 0.0, atol=1e-12)

    def test_term_counts(self):
        frag = synthetic_protein(10)
        top = frag.topology.compile()
        # 4 heavy-atom bonds per residue + 9 inter-residue C-N bonds;
        # the 3 X-H bonds per residue are constraints (paper style).
        assert len(top.bond_idx) == 10 * 4 + 9
        assert len(top.constraint_idx) == 10 * 3
        assert len(top.angle_idx) == 10 * 6 + 9 * 2
        assert len(top.dihedral_idx) == 9 * 2

    def test_bonds_at_equilibrium(self):
        # Bond r0 comes from the as-built geometry: zero bond energy.
        from repro.forcefield import bond_forces
        from repro.geometry import Box

        frag = synthetic_protein(8)
        box = Box.cubic(1000.0)
        pos = frag.positions - frag.positions.min(axis=0) + 100.0
        out = bond_forces(pos, box, frag.topology)
        assert out.energy == pytest.approx(0.0, abs=1e-16)

    def test_needs_residue(self):
        with pytest.raises(ValueError):
            synthetic_protein(0)


class TestHPMiniprotein:
    def test_sequence_types(self):
        from repro.systems import BEAD_HYDROPHOBIC, BEAD_POLAR

        frag = hp_miniprotein("HPH")
        np.testing.assert_array_equal(
            frag.type_ids, [BEAD_HYDROPHOBIC, BEAD_POLAR, BEAD_HYDROPHOBIC]
        )

    def test_chain_connectivity(self):
        frag = hp_miniprotein("HHPP")
        top = frag.topology.compile()
        assert len(top.bond_idx) == 3
        assert len(top.angle_idx) == 2

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            hp_miniprotein("HXH")
        with pytest.raises(ValueError):
            hp_miniprotein("")

    def test_build_hp_system(self):
        s = build_hp_system(hp_miniprotein("HHPHHPPH"))
        assert s.n_atoms == 8
        assert s.box.lengths[0] >= 60.0


class TestSolvatedProtein:
    def test_composition(self):
        s = build_solvated_protein(n_residues=4, side=22.0, n_ions=2, seed=0)
        assert s.meta["n_protein_atoms"] == 32
        assert s.meta["n_ions"] == 2
        assert s.n_atoms == 32 + 2 + 3 * s.meta["n_water_molecules"]

    def test_clearance_respected(self):
        s = build_solvated_protein(n_residues=4, side=22.0, seed=0, clearance=2.4)
        prot = s.positions[:32]
        waters_o = s.positions[32::3][: s.meta["n_water_molecules"]]
        d2 = np.min(s.box.distance2(waters_o[:, None, :], prot[None, :, :]), axis=1)
        assert np.all(d2 > 2.4**2 - 1e-9)

    def test_too_many_ions(self):
        with pytest.raises(ValueError):
            build_solvated_protein(n_residues=2, side=15.0, n_ions=10000)


class TestBenchmarkSpecs:
    def test_table4_rows(self):
        names = [s.name for s in TABLE4_SYSTEMS]
        assert names == ["gpW", "DHFR", "aSFP", "NADHOx", "FtsZ", "T7Lig"]
        dhfr = benchmark_by_name("DHFR")
        assert dhfr.n_atoms == 23558
        assert dhfr.cutoff == 13.0
        assert dhfr.mesh == 32

    def test_bpti_composition(self):
        # Section 5.3: 892 protein atoms + 6 Cl + 4215 TIP4P-Ew waters.
        assert BPTI.n_atoms == 17758
        assert BPTI.water_model.four_site
        assert BPTI.n_protein_atoms == pytest.approx(892, abs=8)
        assert BPTI.n_water_molecules == pytest.approx(4215, abs=3)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            benchmark_by_name("nosuch")

    def test_scaled_build(self):
        s = benchmark_by_name("gpW").build(scale=0.03, seed=0)
        assert 150 < s.n_atoms < 600
        # Density preserved.
        rho_full = 9865 / 46.8**3
        rho = s.n_atoms / s.box.volume
        assert rho == pytest.approx(rho_full, rel=0.25)

    def test_waters_only_build(self):
        s = benchmark_by_name("gpW").build(scale=0.02, waters_only=True)
        assert s.meta["n_protein_atoms"] == 0

    def test_paper_accuracy_columns_present(self):
        for spec in TABLE4_SYSTEMS:
            assert spec.paper_energy_drift is not None
            assert spec.paper_total_force_error < 1e-4
            assert spec.paper_numerical_force_error < spec.paper_total_force_error


class TestLJTableTypes:
    def test_water_slot_override(self):
        t = standard_lj_table(water_sigma_o=3.2, water_eps_o=0.2)
        assert t.sigmas[0] == 3.2
        assert t.epsilons[0] == 0.2

    def test_hydrogens_noninteracting(self):
        t = standard_lj_table()
        a, b = t.pair_coefficients(np.array([1]), np.array([1]))  # water H
        assert a[0] == 0.0 and b[0] == 0.0
