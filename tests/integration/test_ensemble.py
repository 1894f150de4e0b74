"""Integration: batched ensembles are R solo runs, down to the bytes.

Covers the parts of the ensemble contract the per-step property test
cannot: detaching a replica into a live solo :class:`Simulation`
mid-run, resuming a solo run from a replica's on-disk checkpoint and
— the inverse — restoring solo-schema checkpoints into a fresh
ensemble, virtual-site (TIP4P/Ew) systems, byte-identical artifacts
across kernel tiers, and profile attribution of the ``ensemble_*``
phases.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import BerendsenThermostat, MDParams, Simulation, minimize_energy
from repro.ensemble import EnsembleSimulation, derive_replica_seeds, tile_system
from repro.forcefield import TIP4PEW
from repro.io import (
    EnergyLogWriter,
    FingerprintMismatch,
    replica_checkpoint_store,
    replica_trajectory_path,
)
from repro.io.serialize import pack_state
from repro.kernels import available
from repro.systems import build_water_box

needs_compiler = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)

TEMPERATURE = 300.0


def prepared_water(n_molecules=32, model=None, seed=5):
    kwargs = {"model": model} if model is not None else {}
    base = build_water_box(n_molecules=n_molecules, seed=seed, **kwargs)
    params = MDParams(
        cutoff=min(5.5, base.box.max_cutoff() * 0.9),
        mesh=(16, 16, 16),
        long_range_every=2,
    )
    minimize_energy(base, params, max_steps=30)
    return base, params


def solo_sim(base, params, seed):
    ss = base.copy()
    ss.initialize_velocities(TEMPERATURE, seed=seed)
    return Simulation(
        ss, params, dt=1.0,
        thermostat=BerendsenThermostat(TEMPERATURE), constraints=True,
    )


def make_ensemble(base, params, seeds, tier=None):
    return EnsembleSimulation(
        base, params, dt=1.0, seeds=list(seeds), temperature=TEMPERATURE,
        thermostat=BerendsenThermostat(TEMPERATURE), constraints=True,
        kernel_tier=tier,
    )


class TestEnergyRecords:
    def test_records_equal_the_two_call_form(self):
        """One kinetic energy per lane, its temperature derived from it:
        every record is bitwise what ``kinetic_energy(v)`` and
        ``temperature(v)`` called separately give."""
        base, params = prepared_water(n_molecules=16)
        ens = make_ensemble(base, params, [11, 12, 13])
        ens.run(4)
        recs = ens.record_energy()
        solo, v = ens.solo_system, ens.integrator.velocities
        for r, rec in enumerate(recs):
            vr = v[ens.replica_slice(r)]
            assert rec.kinetic == solo.kinetic_energy(vr)
            assert rec.temperature == solo.temperature(vr)
            assert rec.temperature > 0.0


class TestTiling:
    def test_tile_system_layout(self):
        base, _ = prepared_water(n_molecules=8)
        tiled = tile_system(base, 3)
        n = base.n_atoms
        assert tiled.n_atoms == 3 * n
        for r in range(3):
            sl = slice(r * n, (r + 1) * n)
            np.testing.assert_array_equal(tiled.positions[sl], base.positions)
            np.testing.assert_array_equal(tiled.charges[sl], base.charges)
        assert len(tiled.exclusions.excluded) == 3 * len(base.exclusions.excluded)
        assert tiled.topology.n_bond_terms == 3 * base.topology.n_bond_terms
        assert tiled.topology.n_constraints == 3 * base.topology.n_constraints
        assert tiled.meta["ensemble_replicas"] == 3
        assert tiled.meta["ensemble_n_solo"] == n


class TestDetachResume:
    def test_detach_mid_run_continues_solo_bits(self):
        """Extract a replica at step 6; both continuations agree at 12."""
        base, params = prepared_water()
        seeds = derive_replica_seeds(21, 3)
        ens = make_ensemble(base, params, seeds)
        ens.run(6)
        solo = ens.detach(1)
        assert solo.integrator.step_count == 6
        solo.run(6)
        ens.run(6)
        ex, ev = ens.state_codes(1)
        np.testing.assert_array_equal(ex, solo.integrator.X)
        np.testing.assert_array_equal(ev, solo.integrator.V)

    def test_solo_resume_from_replica_checkpoint_store(self, tmp_path):
        """A stock solo run restores a replica's on-disk checkpoint."""
        base, params = prepared_water()
        seeds = derive_replica_seeds(22, 2)
        ens = make_ensemble(base, params, seeds)
        stores = [
            replica_checkpoint_store(tmp_path / "ck", r, retain=4)
            for r in range(2)
        ]
        ens.run(8, checkpoint_stores=stores, checkpoint_every=4)
        ens.run(4)  # ensemble continues past the last checkpoint

        for r in range(2):
            loaded = stores[r].load_latest()
            sim = solo_sim(base, params, seeds[r])
            sim.restore(loaded.state)
            assert sim.integrator.step_count == 8
            sim.run(4)
            ex, ev = ens.state_codes(r)
            np.testing.assert_array_equal(ex, sim.integrator.X)
            np.testing.assert_array_equal(ev, sim.integrator.V)


def run_with_artifacts(engine, n, out, resume=False):
    """run(n) writing per-replica trajectory + energy log under ``out``.

    Works for a solo Simulation too (one "replica").  Returns the
    packed checkpoint(s) at the end.
    """
    solo = isinstance(engine, Simulation)
    R = 1 if solo else engine.replicas
    paths = [out / f"r{r}.rrs" for r in range(R)]
    if solo:
        trajs = [engine.append_trajectory(paths[0]) if resume
                 else engine.open_trajectory(paths[0])]
    else:
        trajs = [engine.append_replica_trajectory(p) if resume
                 else engine.open_replica_trajectory(p) for p in paths]
    logs = [EnergyLogWriter(out / f"r{r}.jsonl", append=resume) for r in range(R)]
    try:
        if solo:
            engine.run(n, record_every=1, energy_writer=logs[0],
                       trajectory=trajs[0], trajectory_every=2)
            return [pack_state(engine.checkpoint())]
        engine.run(n, record_every=1, energy_writers=logs,
                   trajectories=trajs, trajectory_every=2)
        return [pack_state(engine.replica_checkpoint(r)) for r in range(R)]
    finally:
        for w in (*trajs, *logs):
            w.close()


def artifact_bytes(out, r):
    return (out / f"r{r}.rrs").read_bytes(), (out / f"r{r}.jsonl").read_bytes()


class TestRestore:
    """restore() is the inverse of detach(): R solo checkpoints in."""

    @pytest.mark.parametrize(
        "tier", ["numpy", pytest.param("compiled", marks=needs_compiler)]
    )
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("replicas", [1, 3])
    def test_restored_run_writes_the_uninterrupted_bytes(
        self, tmp_path, replicas, k, tier
    ):
        base, params = prepared_water()
        params = replace(params, long_range_every=k)
        seeds = derive_replica_seeds(51, replicas)
        for name in ("whole", "split", *(f"solo{r}" for r in range(replicas))):
            (tmp_path / name).mkdir()

        whole = make_ensemble(base, params, seeds, tier=tier)
        whole_ck = run_with_artifacts(whole, 6, tmp_path / "whole")

        # Interrupt after 3 steps: with k=2 the evaluation restore()
        # replays is a short-range-only one, so the rewound MTS counter
        # decides the bits.
        first = make_ensemble(base, params, seeds, tier=tier)
        run_with_artifacts(first, 3, tmp_path / "split")
        states = [first.replica_checkpoint(r) for r in range(replicas)]
        assert k == 1 or (states[0]["provider_calls"] - 1) % k != 0

        # A fresh engine, deliberately drawn from other seeds: restore
        # must replace the whole dynamic state.
        resumed = make_ensemble(
            base, params, derive_replica_seeds(99, replicas), tier=tier
        )
        resumed.restore(states)
        assert resumed.integrator.step_count == 3
        split_ck = run_with_artifacts(resumed, 3, tmp_path / "split", resume=True)

        assert split_ck == whole_ck
        for r in range(replicas):
            assert artifact_bytes(tmp_path / "split", r) == artifact_bytes(
                tmp_path / "whole", r
            )
            solo = solo_sim(base, params, seeds[r])
            solo_ck = run_with_artifacts(solo, 6, tmp_path / f"solo{r}")
            assert solo_ck == [whole_ck[r]]
            assert artifact_bytes(tmp_path / f"solo{r}", 0) == artifact_bytes(
                tmp_path / "whole", r
            )

    def test_solo_checkpoint_restores_into_r1(self):
        base, params = prepared_water()
        solo = solo_sim(base, params, seed=7)
        solo.run(3)
        ens = make_ensemble(base, params, [123])
        ens.restore([solo.checkpoint()])
        solo.run(3)
        ens.run(3)
        assert pack_state(ens.replica_checkpoint(0)) == pack_state(solo.checkpoint())

    def test_mismatched_states_rejected_and_engine_stays_usable(self):
        base, params = prepared_water()
        seeds = derive_replica_seeds(61, 2)
        ens = make_ensemble(base, params, seeds)
        twin = make_ensemble(base, params, seeds)
        ens.run(2)
        twin.run(2)
        good = [ens.replica_checkpoint(r) for r in range(2)]
        ahead = make_ensemble(base, params, seeds)
        ahead.run(3)
        small, small_params = prepared_water(n_molecules=8)
        foreign = replace(params, long_range_every=params.long_range_every + 1)
        bad_sets = {
            "step counts differ": [good[0], ahead.replica_checkpoint(1)],
            "wrong replica count": good[:1],
            "wrong atom count": [
                good[0], make_ensemble(small, small_params, [1]).replica_checkpoint(0)
            ],
            "foreign fingerprint": [
                good[0], make_ensemble(base, foreign, [1]).replica_checkpoint(0)
            ],
        }
        for why, states in bad_sets.items():
            with pytest.raises(FingerprintMismatch):
                ens.restore(states)
            for r in range(2):  # nothing was touched
                for a, b in zip(ens.state_codes(r), twin.state_codes(r)):
                    np.testing.assert_array_equal(a, b, err_msg=why)
        ens.run(2)
        twin.run(2)
        for r in range(2):
            for a, b in zip(ens.state_codes(r), twin.state_codes(r)):
                np.testing.assert_array_equal(a, b)


class TestVirtualSites:
    def test_tip4pew_ensemble_matches_solo(self):
        """Virtual-site force spreading survives the replica batch axis."""
        base, params = prepared_water(n_molecules=24, model=TIP4PEW, seed=9)
        seeds = derive_replica_seeds(31, 2)
        ens = make_ensemble(base, params, seeds)
        ens.run(6)
        for r in range(2):
            sim = solo_sim(base, params, seeds[r])
            sim.run(6)
            ex, ev = ens.state_codes(r)
            np.testing.assert_array_equal(ex, sim.integrator.X)
            np.testing.assert_array_equal(ev, sim.integrator.V)


class TestCrossTierArtifacts:
    @needs_compiler
    def test_trajectories_and_checkpoints_byte_identical(self, tmp_path):
        """Both tiers write the same per-replica files, byte for byte."""
        base, params = prepared_water()
        seeds = derive_replica_seeds(41, 3)
        out = {}
        for tier in ("numpy", "compiled"):
            ens = make_ensemble(base, params, seeds, tier=tier)
            assert ens.kernels.tier == tier
            paths = [
                replica_trajectory_path(tmp_path / f"{tier}.rrs", r)
                for r in range(3)
            ]
            writers = [ens.open_replica_trajectory(p) for p in paths]
            try:
                ens.run(6, trajectories=writers, trajectory_every=2)
            finally:
                for w in writers:
                    w.close()
            out[tier] = (
                [p.read_bytes() for p in paths],
                [pack_state(ens.replica_checkpoint(r)) for r in range(3)],
            )
        assert out["numpy"][0] == out["compiled"][0]
        assert out["numpy"][1] == out["compiled"][1]


class TestProfileAttribution:
    @pytest.mark.parametrize(
        "tier", ["numpy", pytest.param("compiled", marks=needs_compiler)]
    )
    def test_ensemble_phases_cover_step(self, tier):
        """Named ensemble_* leaves account for >=90% of step wall time.

        Same bar as the machine profile gate; needs a realistically
        sized batch so fixed Python glue is a small fraction of a step.
        """
        base = build_water_box(n_molecules=250, seed=7)
        params = MDParams(
            cutoff=min(9.0, base.box.max_cutoff() * 0.9),
            mesh=(16, 16, 16),
            long_range_every=2,
        )
        minimize_energy(base, params, max_steps=30)
        ens = EnsembleSimulation(
            base, params, dt=1.0, seeds=derive_replica_seeds(7, 4),
            temperature=TEMPERATURE, constraints=True, kernel_tier=tier,
        )
        ens.run(22)
        prof = ens.profile()
        assert prof["leaf_coverage"] >= 0.90
        assert prof["coverage"] >= 0.95

        def names(node):
            for key, entry in node.items():
                yield key
                yield from names(entry["children"])

        phase_names = set(names(prof["phases"]))
        assert any(name.startswith("ensemble_") for name in phase_names)
        assert "mesh_fft" in phase_names
