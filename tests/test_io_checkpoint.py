"""Unit tests for the atomic, rolling checkpoint store."""

import numpy as np
import pytest

from repro.core import MDParams, Simulation
from repro.ewald import GSEParams
from repro.io import (
    CheckpointError,
    CheckpointStore,
    CorruptRecord,
    FingerprintMismatch,
)
from repro.io.session import RunSession
from repro.systems import build_water_box

FP = {"version": 1, "n_atoms": 4, "mode": "fixed", "dt": 1.0}


def make_state(step):
    rng = np.random.default_rng(step)
    return {
        "step_count": step,
        "X": rng.integers(0, 2**40, size=(4, 3)),
        "fingerprint": dict(FP),
    }


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(make_state(10), 10)
        loaded = store.load_latest()
        assert loaded.step == 10
        np.testing.assert_array_equal(loaded.state["X"], make_state(10)["X"])
        assert loaded.skipped == []

    def test_deterministic_bytes(self, tmp_path):
        a = CheckpointStore(tmp_path / "a")
        b = CheckpointStore(tmp_path / "b")
        pa = a.save(make_state(5), 5)
        pb = b.save(make_state(5), 5)
        assert pa.read_bytes() == pb.read_bytes()

    def test_retention_prunes_oldest(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=2)
        for step in (1, 2, 3, 4):
            store.save(make_state(step), step)
        assert store.steps() == [3, 4]

    def test_no_tmp_files_left(self, tmp_path):
        store = CheckpointStore(tmp_path)
        (tmp_path / ".tmp-999-000000000001").write_bytes(b"stale")
        store.save(make_state(1), 1)
        assert list(tmp_path.glob(".tmp-*")) == []

    def test_empty_store_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError):
            store.load_latest()

    def test_retain_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, retain=0)


class TestRetainUnderRollbackLoops:
    """Pruning during rapid save/restore cycles — the fault-recovery
    access pattern — must never consume the snapshot being restored."""

    def test_load_latest_does_not_consume(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=1)
        store.save(make_state(4), 4)
        for _ in range(5):  # back-to-back rollbacks from the same snapshot
            assert store.load_latest().step == 4
        assert store.steps() == [4]

    def test_rapid_rollback_loop_retain_one(self, tmp_path):
        # Simulated crash loop: every recovered step checkpoints, then
        # crashes again.  With retain=1 each save prunes the previous
        # snapshot, but the newest must always be restorable.
        store = CheckpointStore(tmp_path, retain=1)
        store.save(make_state(1), 1)
        for step in (2, 3, 4, 5):
            loaded = store.load_latest()
            assert loaded.step == step - 1  # restore point still there
            store.save(make_state(step), step)  # replayed step re-checkpoints
            assert store.steps() == [step]
        assert store.load_latest().step == 5

    def test_resave_restored_step_after_rollback(self, tmp_path):
        # A replayed step may re-save the very step of the snapshot it
        # restored from; the overwrite must be atomic and readable.
        store = CheckpointStore(tmp_path, retain=2)
        store.save(make_state(4), 4)
        restored = store.load_latest()
        store.save(restored.state, restored.step)
        assert store.steps() == [4]
        loaded = store.load_latest()
        np.testing.assert_array_equal(loaded.state["X"], make_state(4)["X"])


class TestCorruptionFallback:
    def test_falls_back_to_newest_valid(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(make_state(10), 10)
        newest = store.save(make_state(20), 20)
        # Tear the newest snapshot mid-state-record.
        newest.write_bytes(newest.read_bytes()[:-20])
        loaded = store.load_latest()
        assert loaded.step == 10
        assert len(loaded.skipped) == 1
        assert loaded.skipped[0][0] == newest

    def test_bit_flip_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(make_state(10), 10)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="corrupt"):
            store.load_latest()

    def test_non_checkpoint_file_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(make_state(1), 1)
        (tmp_path / "ckpt-000000000099.rrs").write_bytes(b"garbage")
        loaded = store.load_latest()
        assert loaded.step == 1
        assert len(loaded.skipped) == 1

    def test_load_single_corrupt_file(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(make_state(1), 1)
        path.write_bytes(path.read_bytes()[:8])
        with pytest.raises(CorruptRecord):
            store.load(path)


class TestFingerprintGate:
    """The fingerprint gate is the engine's restore, reached through the
    RunSession every resuming entry point opens."""

    @staticmethod
    def _engine(waters):
        system = build_water_box(n_molecules=waters, seed=3)
        system.initialize_velocities(300.0, seed=1)
        params = MDParams(cutoff=3.52, mesh=GSEParams.smallest_mesh(system.box, 3.52))
        return Simulation(system, params, dt=1.0, kernel_tier="numpy").engine

    def _store(self, tmp_path):
        engine = self._engine(16)
        engine.integrator.step()
        store = CheckpointStore(tmp_path)
        store.save(engine.replica_checkpoint(0), 1)
        return store

    def test_matching_fingerprint_ok(self, tmp_path):
        store = self._store(tmp_path)
        with RunSession([store], resume=True) as session:
            assert session.open(self._engine(16)) == 1

    def test_mismatch_is_hard_error(self, tmp_path):
        # A *valid* snapshot from the wrong system must not be walked
        # past — that would silently resume the wrong run.
        store = self._store(tmp_path)
        with RunSession([store], resume=True) as session:
            with pytest.raises(FingerprintMismatch, match="n_atoms"):
                session.open(self._engine(12))
