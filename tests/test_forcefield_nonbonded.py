"""Unit tests for LJ parameters, exclusions, and nonbonded kernels."""

import numpy as np
import pytest

from repro.ewald import choose_sigma
from repro.forcefield import (
    LJTable,
    Topology,
    build_exclusions,
    build_kernel_tables,
    lj_energy_prefactor,
    nonbonded_real_space,
    nonbonded_real_space_tabulated,
)
from repro.geometry import Box, PositionCodec, neighbor_pairs


class TestLJTable:
    def test_lorentz_berthelot(self):
        t = LJTable([3.0, 1.0], [0.2, 0.05])
        assert t.sigma_ij[0, 1] == pytest.approx(2.0)
        assert t.eps_ij[0, 1] == pytest.approx(0.1)

    def test_pair_coefficients(self):
        t = LJTable([3.0], [0.2])
        a, b = t.pair_coefficients(np.array([0]), np.array([0]))
        assert a[0] == pytest.approx(4 * 0.2 * 3.0**12)
        assert b[0] == pytest.approx(4 * 0.2 * 3.0**6)

    def test_pair_coefficients_gather_equals_the_per_pair_arithmetic(self):
        """The hoisted A/B matrices: same bits as forming 4 eps s^12 and
        4 eps s^6 from each pair's own (sigma, epsilon)."""
        rng = np.random.default_rng(4)
        t = LJTable(rng.uniform(0.0, 4.0, 7), rng.uniform(0.0, 0.4, 7))
        ti, tj = rng.integers(0, 7, 5000), rng.integers(0, 7, 5000)
        sig, eps = t.sigma_ij[ti, tj], t.eps_ij[ti, tj]
        s6 = sig**6
        a, b = t.pair_coefficients(ti, tj)
        np.testing.assert_array_equal(a, 4.0 * eps * s6 * s6)
        np.testing.assert_array_equal(b, 4.0 * eps * s6)

    def test_validation(self):
        with pytest.raises(ValueError):
            LJTable([1.0], [-0.1])
        with pytest.raises(ValueError):
            LJTable([[1.0]], [[0.1]])

    def test_lj_minimum_at_2_to_sixth_sigma(self):
        t = LJTable([3.0], [0.2])
        a, b = t.pair_coefficients(np.array([0]), np.array([0]))
        rmin = 2 ** (1 / 6) * 3.0
        e, p = lj_energy_prefactor(np.array([rmin**2]), a, b)
        assert e[0] == pytest.approx(-0.2, rel=1e-12)
        assert p[0] == pytest.approx(0.0, abs=1e-12)


class TestExclusions:
    def _chain(self, n):
        """Linear chain 0-1-2-...-(n-1)."""
        top = Topology(n)
        for i in range(n - 1):
            top.add_bond(i, i + 1, 300.0, 1.5)
        return top

    def test_linear_chain_exclusions(self):
        ex = build_exclusions(self._chain(5))
        pairs = {tuple(p) for p in ex.excluded.tolist()}
        # 1-2 and 1-3 along the chain
        assert pairs == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4)}
        p14 = {tuple(p) for p in ex.pair14.tolist()}
        assert p14 == {(0, 3), (1, 4)}

    def test_is_excluded_covers_14(self):
        ex = build_exclusions(self._chain(5))
        i = np.array([0, 0, 0, 1])
        j = np.array([1, 3, 4, 4])
        np.testing.assert_array_equal(ex.is_excluded(i, j), [True, True, False, True])

    def test_ring_13_wins_over_14(self):
        # Triangle 0-1-2: every pair is 1-2; nothing scaled.
        top = Topology(3)
        top.add_bond(0, 1, 1.0, 1.0)
        top.add_bond(1, 2, 1.0, 1.0)
        top.add_bond(2, 0, 1.0, 1.0)
        ex = build_exclusions(top)
        assert ex.n_pair14 == 0
        assert ex.n_excluded == 3

    def test_constraints_count_as_bonds(self):
        top = Topology(3)
        top.add_constraint(0, 1, 1.0)
        top.add_constraint(0, 2, 1.0)
        ex = build_exclusions(top)
        assert {tuple(p) for p in ex.excluded.tolist()} == {(0, 1), (0, 2), (1, 2)}

    def test_empty_topology(self):
        ex = build_exclusions(Topology(4))
        assert ex.n_excluded == 0
        assert not ex.is_excluded(np.array([0]), np.array([1]))[0]


class TestNonbondedRealSpace:
    def _system(self, n=64, side=14.0, seed=0):
        rng = np.random.default_rng(seed)
        box = Box.cubic(side)
        pos = rng.uniform(0, side, (n, 3))
        charges = rng.uniform(-0.5, 0.5, n)
        types = np.zeros(n, dtype=np.int64)
        lj = LJTable([3.0], [0.15])
        ex = build_exclusions(Topology(n))
        return box, pos, charges, types, lj, ex

    def test_forces_match_numerical_gradient_of_energy(self):
        box, pos, charges, types, lj, ex = self._system(n=20)
        cutoff = 6.0
        sigma = choose_sigma(cutoff, 1e-6)

        def energy(p):
            pr = neighbor_pairs(p, box, cutoff)
            out = nonbonded_real_space(pr, charges, types, lj, ex, sigma)
            return out.energy

        # The pair geometry reads position codes, so the difference steps
        # are whole codes: h is then exactly the step every displacement sees.
        codec = PositionCodec(box)
        codes = codec.encode(pos)
        pos = codec.decode(codes)
        pairs = neighbor_pairs(pos, box, cutoff)
        out = nonbonded_real_space(pairs, charges, types, lj, ex, sigma)
        dense = np.zeros((20, 3))
        np.add.at(dense, out.i, out.force)
        np.add.at(dense, out.j, -out.force)
        for a in range(0, 20, 5):
            for c in range(3):
                k = round(1e-6 / codec.step[c])
                c1, c2 = codes.copy(), codes.copy()
                c1[a, c] += k
                c2[a, c] -= k
                h = k * codec.step[c]
                num = -(energy(codec.decode(c1)) - energy(codec.decode(c2))) / (2 * h)
                assert dense[a, c] == pytest.approx(num, abs=5e-4)

    def test_excluded_pairs_skipped(self):
        box = Box.cubic(12.0)
        pos = np.array([[1.0, 1.0, 1.0], [2.2, 1.0, 1.0]])
        charges = np.array([0.5, -0.5])
        types = np.zeros(2, dtype=np.int64)
        lj = LJTable([3.0], [0.15])
        top = Topology(2)
        top.add_bond(0, 1, 100.0, 1.2)
        ex = build_exclusions(top)
        pairs = neighbor_pairs(pos, box, 5.0)
        out = nonbonded_real_space(pairs, charges, types, lj, ex, 1.5)
        assert out.n_pairs == 0
        assert out.energy == 0.0


class TestTabulatedPath:
    def test_tabulated_matches_analytic(self):
        rng = np.random.default_rng(3)
        n, side, cutoff = 96, 18.0, 7.0
        box = Box.cubic(side)
        # Keep pairs away from the LJ core so both paths are in the
        # physically sampled regime.
        pos = rng.uniform(0, side, (n, 3))
        charges = rng.uniform(-0.5, 0.5, n)
        types = np.zeros(n, dtype=np.int64)
        lj = LJTable([2.2], [0.1])
        ex = build_exclusions(Topology(n))
        sigma = choose_sigma(cutoff, 1e-6)
        tables = build_kernel_tables(cutoff, sigma)
        pairs = neighbor_pairs(pos, box, cutoff)
        # Drop very close random overlaps (not present in real systems).
        keep = pairs.r2 > 2.0**2
        from repro.geometry import NeighborPairs

        pairs = NeighborPairs(pairs.i[keep], pairs.j[keep], pairs.dx[keep], pairs.r2[keep])
        analytic = nonbonded_real_space(pairs, charges, types, lj, ex, sigma)
        tab = nonbonded_real_space_tabulated(pairs, charges, types, lj, tables)
        f_scale = np.sqrt(np.mean(analytic.force**2))
        assert np.max(np.abs(tab.force - analytic.force)) < 1e-3 * max(f_scale, 1.0)
        assert tab.energy == pytest.approx(analytic.energy, rel=1e-3, abs=1e-3)


class TestKernelTableMemoization:
    def test_same_parameters_share_one_table_set(self):
        a = build_kernel_tables(7.0, 1.9)
        b = build_kernel_tables(7.0, 1.9)
        assert a is b

    def test_distinct_parameters_build_distinct_sets(self):
        a = build_kernel_tables(7.0, 1.9)
        b = build_kernel_tables(7.0, 2.0)
        c = build_kernel_tables(7.5, 1.9)
        assert a is not b and a is not c

    def test_memoized_tables_evaluate_identically(self):
        import numpy as np

        a = build_kernel_tables(6.0, 1.7)
        b = build_kernel_tables(6.0, 1.7)
        r2 = np.linspace(1.5, 35.0, 64)
        np.testing.assert_array_equal(a.evaluate("elec_f", r2), b.evaluate("elec_f", r2))
