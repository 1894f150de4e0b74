"""Unit tests for the machine models (HTIS, flexible subsystem, traffic)."""

import numpy as np
import pytest

from repro.core import MDParams, minimize_energy
from repro.fixedpoint import FixedFormat
from repro.forcefield import Topology, build_exclusions
from repro.machine import (
    ANTON_2008,
    AntonMachine,
    HTISModel,
    assign_bond_terms,
    correction_pairs_per_node,
)
from repro.systems import build_water_box


class TestHardwareConfig:
    def test_paper_constants(self):
        hw = ANTON_2008
        assert hw.n_ppips == 32
        assert hw.match_units == 256
        assert hw.clock_ppip_hz == 2 * hw.clock_flexible_hz
        assert hw.link_gbit_per_s == 50.6

    def test_throughputs(self):
        hw = ANTON_2008
        assert hw.interactions_per_second == pytest.approx(32 * 970e6)
        assert hw.pairs_considered_per_second == pytest.approx(256 * 485e6)


class TestHTISModel:
    def test_ppip_bound_at_high_efficiency(self):
        m = HTISModel()
        t = m.evaluate(pairs_considered=1e6, interactions=5e5)  # 50% efficiency
        assert t.time_s == t.ppip_limited_s

    def test_match_bound_at_low_efficiency(self):
        m = HTISModel()
        t = m.evaluate(pairs_considered=1e6, interactions=1e4)  # 1% efficiency
        assert t.time_s == t.match_limited_s
        assert t.ppip_limited_s < t.time_s

    def test_threshold_efficiency(self):
        m = HTISModel()
        # 2 pairs/cycle per PPIP via 8 match units -> 25%.
        assert m.min_match_efficiency_for_full_utilization() == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            HTISModel().evaluate(10, 20)


class TestBondTermAssignment:
    def _topology(self, n=20):
        top = Topology(n)
        for i in range(n - 1):
            top.add_bond(i, i + 1, 300.0, 1.5)
        for i in range(n - 2):
            top.add_angle(i, i + 1, i + 2, 50.0, 1.9)
        for i in range(n - 3):
            top.add_dihedral(i, i + 1, i + 2, i + 3, 1.0, 3, 0.0)
        return top.compile()

    def test_every_term_assigned(self):
        top = self._topology()
        owners = np.zeros(20, dtype=np.int64)
        out = assign_bond_terms(top, owners)
        assert len(out.terms) == 19 + 18 + 17
        assert np.all(out.term_node == 0)

    def test_lpt_balances_gcs(self):
        top = self._topology(50)
        owners = np.zeros(50, dtype=np.int64)
        out = assign_bond_terms(top, owners)
        loads = [out.gc_load.get((0, gc), 0.0) for gc in range(8)]
        assert max(loads) < 1.6 * (sum(loads) / 8)  # near-balanced

    def test_worst_load_minimized_vs_naive(self):
        top = self._topology(50)
        owners = np.zeros(50, dtype=np.int64)
        out = assign_bond_terms(top, owners)
        # Naive round-robin by term index.
        naive = [0.0] * 8
        for t, term in enumerate(out.terms):
            naive[t % 8] += term.cost
        assert max(out.gc_load.values()) <= max(naive) + 1e-12

    def test_bond_destinations_cover_term_atoms(self):
        top = self._topology(12)
        owners = np.arange(12, dtype=np.int64) // 6  # two nodes
        out = assign_bond_terms(top, owners)
        # Atom 5 participates in terms owned by node 0 (its own) and
        # terms starting at atoms 3,4,5 — all node 0; atom 6's terms
        # start on node 0 (terms 3-6 span the boundary) and node 1.
        assert 0 in out.bond_destinations[6]
        msgs = out.destination_messages(owners)
        assert msgs > 0  # boundary atoms must ship positions

    def test_correction_pairs_per_node(self):
        top = Topology(6)
        for i in range(5):
            top.add_bond(i, i + 1, 300.0, 1.5)
        ex = build_exclusions(top)
        owners = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
        lists = correction_pairs_per_node(ex, owners)
        assert sum(lists.values()) == ex.n_excluded + ex.n_pair14


class TestAntonMachineTraffic:
    @pytest.fixture(scope="class")
    def machine(self):
        base = build_water_box(n_molecules=24, seed=11)
        params = MDParams(cutoff=4.0, mesh=(16, 16, 16))
        minimize_energy(base, params, max_steps=30)
        base.initialize_velocities(300.0, seed=12)
        m = AntonMachine(base, params, n_nodes=8, dt=1.0)
        m.step(4)
        return m

    def test_traffic_classes_present(self, machine):
        tags = machine.traffic_summary()
        for tag in ("position_import", "force_export", "fft_axis0", "migration"):
            assert tag in tags, f"missing {tag}"

    def test_many_small_messages(self, machine):
        # The paper's communication signature: many messages per node
        # per step (thousands on the real machine; tens at this scale).
        assert machine.messages_per_node_per_step() > 5

    def test_mesh_quantization_forced(self):
        base = build_water_box(n_molecules=8, seed=1)
        m = AntonMachine(base, MDParams(cutoff=3.0, mesh=(16, 16, 16)), n_nodes=1, dt=1.0)
        assert m.calc.mesh_codec.fmt == FixedFormat(40)
