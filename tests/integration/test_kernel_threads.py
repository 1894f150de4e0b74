"""Integration: kernel_threads is invisible in every artifact.

The thread-count knob is the width of one farm — Python worker threads
over the lanes of a stacked mesh pass — and nothing else.  These tests
pin the full contract at the machine and ensemble level: state codes,
trajectory files, checkpoint files, and fault-replay healing are
byte-identical for every thread count, on both tiers, the knob resolves
through one resolver (:func:`repro.kernels.get_suite`), and the farm
survives a fork.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.core import BerendsenThermostat, MDParams, minimize_energy
from repro.ensemble import EnsembleSimulation, derive_replica_seeds
from repro.io import CheckpointStore
from repro.io.serialize import pack_state
from repro.kernels import NUMPY_SUITE, available, get_suite
from repro.machine import AntonMachine
from repro.systems import build_water_box
from tests.mesh_stencil import encode

MACHINE_PARAMS = MDParams(
    cutoff=4.0,
    mesh=(16, 16, 16),
    long_range_every=2,
)

needs_compiler = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)


@pytest.fixture(scope="module")
def base_system():
    system = build_water_box(n_molecules=24, seed=11)
    minimize_energy(system, MACHINE_PARAMS, max_steps=30)
    system.initialize_velocities(300.0, seed=12)
    return system


def make_machine(base_system, tier, threads, **kwargs):
    return AntonMachine(
        base_system.copy(), MACHINE_PARAMS, n_nodes=8, dt=1.0,
        backend="vectorized", kernel_tier=tier, kernel_threads=threads,
        **kwargs,
    )


class TestMachineThreadSweep:
    @needs_compiler
    def test_state_bytes_identical_across_thread_counts_and_tiers(self, base_system):
        """{numpy} x compiled T in {1,2,8}: one packed state, byte-equal."""
        packed = {}
        for tier, threads in (("numpy", 1), ("compiled", 1), ("compiled", 2), ("compiled", 8)):
            machine = make_machine(base_system, tier, threads)
            try:
                machine.run(6)
                packed[(tier, threads)] = pack_state(machine.checkpoint())
            finally:
                machine.close()
        want = packed[("numpy", 1)]
        for key, got in packed.items():
            assert got == want, f"state bytes diverged for {key}"

    @needs_compiler
    def test_artifacts_byte_identical_across_thread_counts(self, base_system, tmp_path):
        """Trajectory and checkpoint FILES match between T=1 and T=8."""
        paths = {}
        for threads in (1, 8):
            machine = make_machine(base_system, "compiled", threads)
            traj_path = tmp_path / f"t{threads}.traj"
            store = CheckpointStore(tmp_path / f"ck_t{threads}")
            try:
                with machine.open_trajectory(traj_path) as traj:
                    machine.run(
                        6, trajectory=traj, trajectory_every=2,
                        checkpoint_store=store, checkpoint_every=3,
                    )
                assert machine.backend.kernels.threads == threads
                paths[threads] = (traj_path, [store.path_for(s) for s in store.steps()])
            finally:
                machine.close()
        traj1, cks1 = paths[1]
        traj8, cks8 = paths[8]
        assert traj1.read_bytes() == traj8.read_bytes()
        assert len(cks1) == len(cks8) == 2
        for a, b in zip(cks1, cks8):
            assert a.read_bytes() == b.read_bytes()

    @needs_compiler
    def test_faulted_threaded_run_heals_to_clean_serial_bits(self, base_system):
        """A faulted run at T=8 lands on the clean T=1 run's bytes."""
        clean = make_machine(base_system, "compiled", 1)
        try:
            clean.run(8)
            want = pack_state(clean.checkpoint())
        finally:
            clean.close()

        chaos = make_machine(
            base_system, "compiled", 8,
            faults={"drop": 2, "corrupt": 1}, fault_seed=3,
        )
        try:
            chaos.run(8)
            report = chaos.fault_report()
            assert report["injected"] > 0
            assert pack_state(chaos.checkpoint()) == want
        finally:
            chaos.close()

    @needs_compiler
    def test_profile_reports_tier_and_threads(self, base_system):
        machine = make_machine(base_system, "compiled", 2)
        try:
            machine.run(2)
            prof = machine.profile()
        finally:
            machine.close()
        assert prof["kernel_tier"] == "compiled"
        assert prof["kernel_threads"] == 2


class TestEnsembleThreadSweep:
    @needs_compiler
    def test_ensemble_state_codes_identical_across_thread_counts(self):
        """R=3 replica ensemble: T=8 state codes == T=1, per replica."""
        base = build_water_box(n_molecules=24, seed=5)
        params = MDParams(
            cutoff=min(5.5, base.box.max_cutoff() * 0.9), mesh=(16, 16, 16),
            long_range_every=2,
        )
        minimize_energy(base, params, max_steps=30)
        seeds = derive_replica_seeds(7, 3)
        codes = {}
        for threads in (1, 8):
            ens = EnsembleSimulation(
                base, params, dt=1.0, seeds=seeds, temperature=300.0,
                thermostat=BerendsenThermostat(300.0), constraints=True,
                kernel_tier="compiled", kernel_threads=threads,
            )
            ens.run(10)
            codes[threads] = [ens.state_codes(r) for r in range(3)]
        for got, want in zip(codes[8], codes[1]):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)


def _no_compiler(monkeypatch):
    """A host where the extension cannot build, with fresh warn-once state."""
    from repro.kernels import build, suite

    def broken_load():
        raise build.KernelBuildError("no working C compiler (simulated)")

    monkeypatch.setattr(suite, "available", lambda: False)
    monkeypatch.setattr(suite, "load", broken_load)
    monkeypatch.setattr(suite, "_COMPILED_SUITES", {})
    monkeypatch.setattr(suite, "_warned", False)


def _stand_in_compiler(monkeypatch):
    """A host where the extension loads (a stand-in library: resolution
    never calls into it), with a fresh per-thread-count cache."""
    from repro.kernels import suite

    monkeypatch.setattr(suite, "available", lambda: True)
    monkeypatch.setattr(suite, "load", object)
    monkeypatch.setattr(suite, "_COMPILED_SUITES", {})


def _worker_online_event(tier, threads) -> dict:
    """Boot a serve worker in this process, stop it, return its ``online`` event."""
    import os
    import queue

    from repro.serve import worker_main

    cmd_q, evt_q = queue.Queue(), queue.Queue()
    cmd_q.put({"cmd": "stop"})
    worker_main(0, cmd_q, evt_q, tier, threads, parent_pid=os.getppid())
    (event,) = [evt_q.get_nowait() for _ in range(evt_q.qsize())]
    assert event["evt"] == "online"
    return event


#: ``get_suite`` precedence: argument, then environment, then default.
#: Each row: the call's arguments, the environment (every other
#: ``REPRO_KERNEL_*`` variable unset), the resolved ``(tier, threads)``.
PRECEDENCE = [
    pytest.param((None, None), {"REPRO_KERNEL_TIER": "compiled", "REPRO_KERNEL_THREADS": "6"},
                 ("compiled", 6), id="env-over-default"),
    pytest.param((None, None), {"REPRO_KERNEL_TIER": "numpy"}, ("numpy", 1),
                 id="env-numpy-over-default"),
    pytest.param(("compiled", 2), {"REPRO_KERNEL_TIER": "numpy", "REPRO_KERNEL_THREADS": "6"},
                 ("compiled", 2), id="arg-over-env"),
    pytest.param((None, 3), {"REPRO_KERNEL_THREADS": "6"}, ("compiled", 3),
                 id="threads-arg-over-env"),
    pytest.param(("numpy", 4), {}, ("numpy", 1), id="numpy-runs-one-thread"),
]


class TestConfigResolution:
    @pytest.mark.parametrize("args, env, resolved", PRECEDENCE)
    def test_precedence(self, monkeypatch, args, env, resolved):
        _stand_in_compiler(monkeypatch)
        for name in ("REPRO_KERNEL_TIER", "REPRO_KERNEL_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        kernels = get_suite(*args)
        assert (kernels.tier, kernels.threads) == resolved
        assert (kernels is NUMPY_SUITE) == (resolved[0] == "numpy")
        assert get_suite(*args) is kernels  # one cached suite per resolution

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
        monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)
        kernels = get_suite()
        assert (kernels.tier, kernels.threads) == ("compiled" if available() else "numpy", 1)

    def test_default_tier_is_compiled_where_it_builds(self, monkeypatch):
        _stand_in_compiler(monkeypatch)
        monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
        monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)
        kernels = get_suite()
        assert (kernels.tier, kernels.threads) == ("compiled", 1)
        assert kernels is not NUMPY_SUITE
        assert get_suite() is kernels  # one cached suite per resolution

    def test_default_tier_without_a_compiler_is_numpy_and_silent(
        self, base_system, monkeypatch
    ):
        """Nobody asked for the compiled tier: no warning, and every
        driver reports the tier actually in use."""
        import warnings

        _no_compiler(monkeypatch)
        monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
        monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_suite() is NUMPY_SUITE
            event = _worker_online_event(None, None)
            machine = AntonMachine(base_system.copy(), MACHINE_PARAMS, n_nodes=8, dt=1.0)
            machine.close()
        assert (event["kernel"], event["warnings"]) == ({"tier": "numpy", "threads": 1}, [])
        assert machine.backend.kernels.tier == "numpy"

    def test_requested_compiled_without_a_compiler_warns_once(self, monkeypatch):
        """The worker's one resolution warns; the worker forwards exactly
        that note and reports the tier it runs on; nothing warns again."""
        import warnings

        _no_compiler(monkeypatch)
        event = _worker_online_event("compiled", None)
        assert event["kernel"]["tier"] == "numpy"
        (note,) = event["warnings"]
        assert "falling back to the numpy tier" in note
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_suite("compiled") is NUMPY_SUITE
            assert _worker_online_event("compiled", None)["warnings"] == []
        # This process has warned (as the CLI's flag check does in a
        # server); a worker forked from it still forwards its own note.
        ctx = mp.get_context("fork")
        notes = ctx.Queue()
        child = ctx.Process(
            target=lambda: notes.put(_worker_online_event("compiled", None)["warnings"]))
        child.start()
        try:
            assert len(notes.get(timeout=60)) == 1
        finally:
            child.join(timeout=60)

    def test_numpy_opt_out_never_asks_for_a_compiler(self, monkeypatch):
        from repro.kernels import suite

        def asked():
            raise AssertionError("an explicit numpy tier probed for a compiler")

        monkeypatch.setattr(suite, "available", asked)
        monkeypatch.setattr(suite, "load", asked)
        assert get_suite("numpy") is NUMPY_SUITE
        assert get_suite("numpy", 4) is NUMPY_SUITE
        monkeypatch.setenv("REPRO_KERNEL_TIER", "numpy")
        assert get_suite() is NUMPY_SUITE

    def test_float_mode_never_loads_the_c_library(self, base_system, monkeypatch):
        from repro.core import Simulation
        from repro.kernels import build, suite

        def loaded():
            raise AssertionError("mode='float' reached for the compiled tier")

        monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
        for module in (build, suite):
            monkeypatch.setattr(module, "load", loaded)
        sim = Simulation(base_system.copy(), MACHINE_PARAMS, dt=1.0, mode="float")
        sim.run(2)
        assert sim.engine.mode == "float" and sim.calc.kernels is get_suite("numpy")

    @pytest.mark.parametrize("bad", [0, -1, 129, 10**6])
    def test_thread_count_out_of_range(self, bad):
        """Range-checked on the NumPy tier too, though it runs one thread."""
        with pytest.raises(ValueError) as err:
            get_suite("numpy", bad)
        assert str(err.value) == f"kernel_threads must be in [1, 128], got {bad}"

    def test_non_integer_env_is_a_clear_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "many")
        with pytest.raises(ValueError) as err:
            get_suite("numpy")
        assert str(err.value) == "REPRO_KERNEL_THREADS='many' is not an integer"

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError) as err:
            get_suite("fortran", 1)
        assert str(err.value) == (
            "unknown kernel_tier 'fortran'; expected one of ('numpy', 'compiled')")

    @needs_compiler
    def test_env_threads_reach_the_machine(self, base_system, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_TIER", "compiled")
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")
        machine = AntonMachine(
            base_system.copy(), MACHINE_PARAMS, n_nodes=8, dt=1.0,
            backend="vectorized",
        )
        try:
            assert machine.backend.kernels.tier == "compiled"
            assert machine.backend.kernels.threads == 2
        finally:
            machine.close()


def _farmed_pass() -> bytes:
    """One farmed three-lane mesh pass at T=2; the result's bytes."""
    from repro.ewald import GaussianSplitEwald, GSEParams
    from repro.geometry import Box

    box = Box(np.array([17.0, 17.0, 17.0]))
    gse = GaussianSplitEwald(box, GSEParams.choose(box, 4.0, (32, 32, 32)))
    rng = np.random.default_rng(3)
    positions = rng.uniform(0.0, 17.0, (3 * 40, 3))
    charges = rng.normal(0.0, 1.0, 40)
    energies, forces = gse.mesh_pass(
        encode(gse, positions), charges, lanes=3, kernels=get_suite("compiled", 2)
    )
    return energies.tobytes() + forces.tobytes()


class TestFarmSurvivesFork:
    @needs_compiler
    def test_forked_child_runs_a_farmed_pass(self):
        """``repro serve`` forks its workers from a process that may have
        farmed already: the child must rebuild its pool (``_reset_pools``)
        rather than queue work for threads that exist only in the parent."""
        want = _farmed_pass()
        assert get_suite("compiled", 2)._pool is not None  # the parent did farm
        ctx = mp.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send_bytes(_farmed_pass()))
        child.start()
        send.close()
        try:
            assert recv.poll(60), "forked child hung in its farmed mesh pass"
            assert recv.recv_bytes() == want
        finally:
            child.kill()
            child.join(10)
        assert not child.is_alive()
