"""RunSession: the one resume / open-or-append / final-checkpoint protocol."""

import pytest

from repro.core import MDParams, Simulation, minimize_energy
from repro.io import (
    CheckpointError,
    CheckpointStore,
    FingerprintMismatch,
    RunSession,
    TrajectoryReader,
)
from repro.systems import build_water_box

PARAMS = MDParams(cutoff=3.0, mesh=(16, 16, 16), long_range_every=2)


@pytest.fixture(scope="module")
def system():
    s = build_water_box(n_molecules=8, seed=3)
    minimize_energy(s, PARAMS, max_steps=10)
    s.initialize_velocities(300.0, seed=4)
    return s


def leg(system, root, steps, resume=False, fail=False):
    """One leg of a stored solo run to global step ``steps``."""
    sim = Simulation(system.copy(), PARAMS, dt=1.0)
    session = RunSession([CheckpointStore(root / "ck")], resume=resume)
    done = session.open(sim.engine, [root / "t.rrs"], [root / "e.jsonl"])
    with session:
        sim.run(steps - done, record_every=2, energy_writer=session.energy_writers[0],
                trajectory=session.trajectories[0], trajectory_every=2,
                checkpoint_store=session.stores[0], checkpoint_every=4)
        if fail:
            raise RuntimeError("died mid-run")
    return session


def files(root):
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_resumed_legs_leave_the_uninterrupted_runs_files(system, tmp_path):
    (tmp_path / "ref").mkdir()
    (tmp_path / "cut").mkdir()
    ref = leg(system, tmp_path / "ref", 8)
    assert [p.name for p in ref.final_checkpoints] == ["ckpt-000000000008.rrs"]

    first = leg(system, tmp_path / "cut", 5)  # off every cadence
    assert first.loaded is None
    resumed = leg(system, tmp_path / "cut", 8, resume=True)
    assert resumed.loaded[0].step == 5
    want, got = files(tmp_path / "ref"), files(tmp_path / "cut")
    got.pop("ckpt-000000000005.rrs")  # the first leg's final checkpoint
    assert got == want


def test_failed_run_closes_its_files_and_saves_no_final_checkpoint(system, tmp_path):
    with pytest.raises(RuntimeError, match="died mid-run"):
        leg(system, tmp_path, 6, fail=True)
    assert CheckpointStore(tmp_path / "ck").steps() == [4]
    with TrajectoryReader(tmp_path / "t.rrs") as r:
        assert r.verify().ok and list(r.steps) == [2, 4, 6]


def test_resume_needs_a_checkpoint_in_every_lane(system, tmp_path):
    with pytest.raises(CheckpointError, match="no valid checkpoint"):
        RunSession([CheckpointStore(tmp_path / "ck")], resume=True)


def test_wrong_system_is_rejected_before_any_file_is_cut(system, tmp_path):
    leg(system, tmp_path, 4)
    before = files(tmp_path)
    other = Simulation(build_water_box(n_molecules=9, seed=3), PARAMS, dt=1.0)
    session = RunSession([CheckpointStore(tmp_path / "ck")], resume=True)
    with pytest.raises(FingerprintMismatch):
        session.open(other.engine, [tmp_path / "t.rrs"], [tmp_path / "e.jsonl"])
    assert files(tmp_path) == before
