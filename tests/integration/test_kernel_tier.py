"""Integration: the compiled kernel tier is invisible in the artifacts.

``kernel_tier="compiled"`` swaps the hot loops (neighbor rebuild, the
pair walk's filter and tabulated force evaluation, deposits, mesh
stencil) for C kernels.  The contract is byte-level: a full machine run
on the compiled tier must produce the *same files* — trajectory and
checkpoint — as the NumPy tier, heal identically through injected
faults, and degrade gracefully to NumPy when no compiler exists.
"""

import warnings

import numpy as np
import pytest

from repro.core import MDParams, minimize_energy
from repro.io import CheckpointStore
from repro.io.serialize import pack_state
from repro.kernels import available, get_suite
from repro.machine import AntonMachine
from repro.systems import build_water_box
from tests.serial_backend import machine_backend

MACHINE_PARAMS = MDParams(
    cutoff=4.0,
    mesh=(16, 16, 16),
    kernel_mode="table",
    long_range_every=2,
    quantize_mesh_bits=40,
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


def make_machine(base_system, tier, **kwargs):
    return AntonMachine(
        base_system.copy(), MACHINE_PARAMS, n_nodes=8, dt=1.0,
        backend=machine_backend(kwargs.pop("backend", "vectorized")), kernel_tier=tier,
        **kwargs,
    )


class TestCompiledTierArtifacts:
    @needs_compiler
    def test_trajectory_and_checkpoints_byte_identical(self, base_system, tmp_path):
        """Files on disk, not just in-memory state, match across tiers."""
        paths = {}
        for tier in ("numpy", "compiled"):
            machine = make_machine(base_system, tier)
            traj_path = tmp_path / f"{tier}.traj"
            store = CheckpointStore(tmp_path / f"ck_{tier}")
            try:
                with machine.open_trajectory(traj_path) as traj:
                    machine.run(
                        6, trajectory=traj, trajectory_every=2,
                        checkpoint_store=store, checkpoint_every=3,
                    )
                assert machine.backend.kernels.tier == tier
                paths[tier] = (traj_path, [store.path_for(s) for s in store.steps()],
                               machine.state_codes())
            finally:
                machine.close()

        traj_n, cks_n, codes_n = paths["numpy"]
        traj_c, cks_c, codes_c = paths["compiled"]
        assert traj_n.read_bytes() == traj_c.read_bytes()
        assert len(cks_n) == len(cks_c) == 2
        for a, b in zip(cks_n, cks_c):
            assert a.read_bytes() == b.read_bytes()
        for a, b in zip(codes_n, codes_c):
            np.testing.assert_array_equal(a, b)

    @needs_compiler
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_state_codes_identical_per_backend(self, base_system, backend):
        out = {}
        for tier in ("numpy", "compiled"):
            machine = make_machine(base_system, tier, backend=backend)
            try:
                machine.run(4)
                out[tier] = pack_state(machine.checkpoint())
            finally:
                machine.close()
        assert out["numpy"] == out["compiled"]

    @needs_compiler
    def test_fault_recovery_heals_to_numpy_bits(self, base_system):
        """A faulted compiled-tier run replays back to the clean NumPy bits.

        Fault replay re-executes steps through the same compiled kernels;
        if any kernel were stateful or order-sensitive the healed bits
        would drift.  Exact-count schedules only fire under ``run()``.
        """
        clean = make_machine(base_system, "numpy")
        try:
            clean.run(8)
            want = pack_state(clean.checkpoint())
        finally:
            clean.close()

        chaos = make_machine(
            base_system, "compiled",
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
    def test_profile_attribution_covers_step(self):
        """Named leaf phases account for >=90% of machine_step wall time.

        Needs a realistically sized system: on a toy box the fixed
        Python glue (~0.3 ms/step of timer entry and dispatch) is a
        visible fraction of a ~2 ms step and attribution drops below
        the bar that holds at benchmark scale.
        """
        params = MDParams(
            cutoff=4.0, mesh=(32, 32, 32), kernel_mode="table",
            long_range_every=2, quantize_mesh_bits=40,
        )
        system = build_water_box(n_molecules=150, seed=11)
        minimize_energy(system, params, max_steps=15)
        system.initialize_velocities(300.0, seed=12)
        machine = AntonMachine(
            system, params, n_nodes=8, dt=1.0,
            backend="vectorized", kernel_tier="compiled",
        )
        try:
            # Enough steps to amortize first-step lazy builds (plan
            # allocation, table spec) that profile() cannot exclude.
            machine.run(16)
            prof = machine.profile()
        finally:
            machine.close()
        assert prof["leaf_coverage"] >= 0.90
        assert prof["coverage"] >= 0.95


class TestNumpyFallback:
    def test_no_compiler_falls_back_with_warning(self, base_system, monkeypatch):
        """kernel_tier='compiled' without a compiler: warn once, run NumPy."""
        from repro.kernels import build, suite

        def broken_load():
            raise build.KernelBuildError("no working C compiler (simulated)")

        monkeypatch.setattr(suite, "load", broken_load)
        monkeypatch.setattr(suite, "_COMPILED_SUITES", {})
        monkeypatch.setattr(suite, "_warned", False)

        with pytest.warns(RuntimeWarning, match="falling back to the numpy tier"):
            fallback = get_suite("compiled")
        assert fallback.tier == "numpy"

        machine = make_machine(base_system, "compiled")
        try:
            assert machine.backend.kernels.tier == "numpy"
            machine.run(2)
            packed = pack_state(machine.checkpoint())
        finally:
            machine.close()

        reference = make_machine(base_system, "numpy")
        try:
            reference.run(2)
            assert pack_state(reference.checkpoint()) == packed
        finally:
            reference.close()


class TestSingleThreadedBuild:
    @pytest.fixture
    def dynamic_symbols(self):
        """Every name ``nm -D`` lists for the ``.so`` this process loaded,
        built on one of the two rungs."""
        import shutil
        import subprocess

        from repro.kernels import build

        if shutil.which("nm") is None:
            pytest.skip("no nm on PATH")
        build.load()
        record = build.build_record()
        assert record["rung"] in ("host-isa", "baseline")
        nm = subprocess.run(
            ["nm", "-D", record["so"]], capture_output=True, text=True, check=True
        )
        return [line.split()[-1] for line in nm.stdout.splitlines() if line.split()]

    @needs_compiler
    def test_shared_object_has_no_thread_symbols(self, dynamic_symbols):
        """The extension is single-threaded C: it imports nothing from
        pthread and exports no threaded twin."""
        exported = [s for s in dynamic_symbols if s.startswith("rk_")]
        assert "rk_pair_walk" in exported  # nm listed the real table
        assert not [s for s in dynamic_symbols if "pthread" in s]
        assert not [s for s in exported if s.endswith("_mt") or s == "rk_threads_available"]

    @needs_compiler
    def test_exported_symbols_are_exactly_the_declared_and_called_ones(self, dynamic_symbols):
        """The ``rk_*`` symbols of the ``.so`` are exactly those
        ``build._declare`` types, and the suite calls every one of them:
        the C surface the sanitizer and fuzzing gates cover carries no
        kernel that nothing runs."""
        import re
        from pathlib import Path
        from types import SimpleNamespace

        from repro.kernels import build, suite

        class Recorder:
            def __init__(self):
                self.names = set()

            def __getattr__(self, name):
                self.names.add(name)
                return SimpleNamespace()

        declared = Recorder()
        build._declare(declared)
        exported = {s for s in dynamic_symbols if s.startswith("rk_")}
        called = set(re.findall(r"_lib\.(rk_\w+)", Path(suite.__file__).read_text()))
        assert exported == declared.names
        assert called == declared.names
        assert not exported & {"rk_pair_filter", "rk_shake", "rk_rattle"}


class TestBuildFlagsHook:
    """``REPRO_KERNEL_CFLAGS`` and the build ladder, with the compiler faked."""

    IDENT = "cc (test) 1.0"

    @pytest.fixture
    def fake_cc(self, monkeypatch, tmp_path):
        """One compiler, ``cc``, whose runs are recorded; a run whose command
        holds any flag in ``fake_cc.reject`` fails, every other one
        "builds" an empty file.  The host-ISA probe answers ``fake_cc.isa``."""
        import subprocess
        from types import SimpleNamespace

        from repro.kernels import build

        cc = SimpleNamespace(commands=[], reject=set(), isa="avx512f-00000000")

        def fake_run(cmd, **_kwargs):
            cc.commands.append(cmd)
            if cc.reject & set(cmd):
                return subprocess.CompletedProcess(cmd, 1, "", "error: rejected")
            open(cmd[cmd.index("-o") + 1], "wb").close()
            return subprocess.CompletedProcess(cmd, 0, "", "")

        monkeypatch.delenv("REPRO_KERNEL_CFLAGS", raising=False)
        monkeypatch.setattr(build, "_COMPILERS", ("cc",))
        monkeypatch.setattr(build, "_build_dir", lambda: tmp_path)
        monkeypatch.setattr(build, "_compiler_ident", lambda _cc: self.IDENT)
        monkeypatch.setattr(build, "_host_isa", lambda _cc: cc.isa)
        monkeypatch.setattr(build.subprocess, "run", fake_run)
        monkeypatch.setattr(build, "_record", None)
        return cc

    def test_flags_are_appended_and_keyed(self, monkeypatch, fake_cc, tmp_path):
        """The variable's flags reach the compiler after the fixed ones
        (which it cannot drop) and select their own cached ``.so``."""
        from repro.kernels import build

        plain = build._source_key(build._VARIANTS[0], self.IDENT)
        monkeypatch.setenv("REPRO_KERNEL_CFLAGS", "-g  -fsanitize=undefined")
        assert build._extra_cflags() == ("-g", "-fsanitize=undefined")
        assert build._source_key(build._VARIANTS[0], self.IDENT) != plain

        out = build.build()
        (cmd,) = fake_cc.commands
        assert out.parent == tmp_path
        flags = cmd[1:cmd.index(str(build._SRC))]
        assert flags[: len(build.CFLAGS)] == list(build.CFLAGS)
        assert flags[len(build.CFLAGS)] == build.HOST_ISA_FLAG  # before the extras: last wins
        assert flags[-2:] == ["-g", "-fsanitize=undefined"]
        assert build.build_record()["flags"] == " ".join(flags)

    def test_host_isa_token_is_part_of_the_key(self, fake_cc):
        """A ``_build/`` shared by two hosts: the second host's token finds
        no object of the first's, and compiles its own."""
        from repro.kernels import build

        native = build._VARIANTS[0]
        assert build.HOST_ISA_FLAG in native
        assert build._source_key(native, self.IDENT, "avx512f-00000000") != build._source_key(
            native, self.IDENT, "avx2-11111111"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = build.build()
            assert build.build() == first and len(fake_cc.commands) == 1  # cached
            fake_cc.isa = "avx2-11111111"
            second = build.build()
        assert second != first and len(fake_cc.commands) == 2
        assert build.build_record()["isa"] == "avx2-11111111"
        assert build.build_record()["rung"] == "host-isa"

    def test_compiler_without_the_host_isa_flag_builds_the_baseline_rung(self, fake_cc):
        """Silently: same bits, slower, visible in the record."""
        from repro.kernels import build

        fake_cc.isa = None  # the probe: flag rejected
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = build.build()
        (cmd,) = fake_cc.commands  # the host-ISA rung was never compiled
        assert build.HOST_ISA_FLAG not in cmd
        record = build.build_record()
        assert record["rung"] == "baseline" and record["isa"] == "baseline"
        assert record["so"] == str(out)

    def test_failed_host_isa_compile_takes_baseline(self, fake_cc):
        """The probe accepted the flag but the compile did not: the next
        rung builds, silently, and no rung asks for a thread library."""
        from repro.kernels import build

        fake_cc.reject = {build.HOST_ISA_FLAG}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build.build()
        assert build.build_record()["rung"] == "baseline"
        assert [(build.HOST_ISA_FLAG in c) for c in fake_cc.commands] == [True, False]
        assert not any("-pthread" in c for c in fake_cc.commands)

    def test_bad_extra_flag_does_not_blame_pthread(self, monkeypatch, fake_cc):
        """Every rung fails alike on a bad ``REPRO_KERNEL_CFLAGS``: one
        fallback warning carrying the compiler's words, nothing about
        threads."""
        from repro.kernels import build, suite

        monkeypatch.setenv("REPRO_KERNEL_CFLAGS", "-fbogus-flag")
        fake_cc.reject = {"-fbogus-flag"}
        monkeypatch.setattr(build, "_lib", None)
        monkeypatch.setattr(build, "_lib_error", None)
        monkeypatch.setattr(suite, "_COMPILED_SUITES", {})
        monkeypatch.setattr(suite, "_warned", False)
        with pytest.warns(RuntimeWarning) as caught:
            assert get_suite("compiled").tier == "numpy"
        (warning,) = caught
        text = str(warning.message)
        assert "falling back to the numpy tier" in text and "error: rejected" in text
        assert "pthread probe" not in text and "thread support" not in text
        assert len(fake_cc.commands) == len(build._VARIANTS)
        with pytest.raises(build.KernelBuildError):
            build.build()
