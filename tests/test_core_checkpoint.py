"""Unit tests for checkpoint/restore (bitwise continuation)."""

import numpy as np
import pytest

from repro.core import MDParams, Simulation, minimize_energy
from repro.systems import build_water_box

PARAMS = MDParams(cutoff=4.2, mesh=(16, 16, 16), long_range_every=2)


@pytest.fixture(scope="module")
def system():
    s = build_water_box(n_molecules=24, seed=21)
    minimize_energy(s, PARAMS, max_steps=40)
    s.initialize_velocities(300.0, seed=22)
    return s


class TestCheckpoint:
    def test_bitwise_continuation_fixed(self, system):
        # Continuous run of 16 steps...
        ref = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed")
        ref.run(16)
        ref_codes = ref.integrator.state_codes()

        # ...equals 8 steps + checkpoint + restore into a fresh object + 8.
        first = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed")
        first.run(8)
        chk = first.checkpoint()

        resumed = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed")
        resumed.restore(chk)
        resumed.run(8)
        codes = resumed.integrator.state_codes()
        assert np.array_equal(codes[0], ref_codes[0])
        assert np.array_equal(codes[1], ref_codes[1])

    def test_mts_phase_preserved(self, system):
        # Checkpoint at an odd step: the restored run must keep the
        # long-range schedule phase (k=2).
        ref = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed")
        ref.run(13)
        ref_codes = ref.integrator.state_codes()

        first = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed")
        first.run(7)
        chk = first.checkpoint()
        resumed = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed")
        resumed.restore(chk)
        resumed.run(6)
        assert np.array_equal(resumed.integrator.state_codes()[0], ref_codes[0])

    def test_float_mode_continuation(self, system):
        ref = Simulation(system.copy(), PARAMS, dt=1.0, mode="float")
        ref.run(10)

        first = Simulation(system.copy(), PARAMS, dt=1.0, mode="float")
        first.run(5)
        chk = first.checkpoint()
        resumed = Simulation(system.copy(), PARAMS, dt=1.0, mode="float")
        resumed.restore(chk)
        resumed.run(5)
        np.testing.assert_array_equal(resumed.integrator.positions, ref.integrator.positions)

    def test_mode_mismatch_rejected(self, system):
        sim = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed")
        chk = sim.checkpoint()
        other = Simulation(system.copy(), PARAMS, dt=1.0, mode="float")
        with pytest.raises(ValueError):
            other.restore(chk)

    def test_step_count_restored(self, system):
        sim = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed")
        sim.run(6)
        chk = sim.checkpoint()
        resumed = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed")
        resumed.restore(chk)
        assert resumed.integrator.step_count == 6


class TestFingerprintValidation:
    """restore() rejects checkpoints from incompatible runs up front."""

    def test_different_system_rejected(self, system):
        from repro.io import FingerprintMismatch
        from repro.systems import build_water_box

        chk = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed").checkpoint()
        other = build_water_box(n_molecules=27, seed=3)
        target = Simulation(other, PARAMS, dt=1.0, mode="fixed")
        with pytest.raises(FingerprintMismatch, match="n_atoms"):
            target.restore(chk)

    def test_different_force_params_rejected(self, system):
        from repro.io import FingerprintMismatch

        chk = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed").checkpoint()
        other_params = MDParams(cutoff=4.0, mesh=(16, 16, 16), long_range_every=2)
        target = Simulation(system.copy(), other_params, dt=1.0, mode="fixed")
        with pytest.raises(FingerprintMismatch, match="params_hash"):
            target.restore(chk)

    def test_different_skin_accepted(self, system):
        # The neighbor-list buffer radius does not influence bits, so a
        # checkpoint restores (and continues bitwise) under another skin.
        from dataclasses import replace

        ref = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed")
        ref.run(8)

        first = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed")
        first.run(4)
        chk = first.checkpoint()
        resumed = Simulation(
            system.copy(), replace(PARAMS, skin=3.0), dt=1.0, mode="fixed"
        )
        resumed.restore(chk)
        resumed.run(4)
        for a, b in zip(resumed.integrator.state_codes(), ref.integrator.state_codes()):
            np.testing.assert_array_equal(a, b)

    def test_different_datapath_width_rejected(self, system):
        from repro.io import FingerprintMismatch

        chk = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed").checkpoint()
        # A checkpoint written at another position width: its stored header says so.
        chk["fingerprint"] = {**chk["fingerprint"], "position_bits": 32}
        target = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed")
        with pytest.raises(FingerprintMismatch, match="position_bits"):
            target.restore(chk)

    def test_legacy_checkpoint_without_fingerprint(self, system):
        # Pre-fingerprint checkpoints still restore (shape-checked only).
        sim = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed")
        sim.run(2)
        chk = sim.checkpoint()
        del chk["fingerprint"]
        resumed = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed")
        resumed.restore(chk)
        assert resumed.integrator.step_count == 2

    def test_legacy_checkpoint_wrong_atom_count_rejected(self, system):
        from repro.systems import build_water_box

        sim = Simulation(system.copy(), PARAMS, dt=1.0, mode="fixed")
        chk = sim.checkpoint()
        del chk["fingerprint"]
        other = build_water_box(n_molecules=27, seed=3)
        target = Simulation(other, PARAMS, dt=1.0, mode="fixed")
        with pytest.raises(ValueError, match="atoms"):
            target.restore(chk)
