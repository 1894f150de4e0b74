"""Smoke tests for the command-line interface."""

import io
import os

import pytest

from repro.cli import main


class PipeHungUpAfterFirstLine(io.TextIOBase):
    """A stdout that is a real pipe whose reader, like ``head -n 1``,
    closes its end once the first line has arrived: every later write
    fails with ``EPIPE`` (``BrokenPipeError``).  ``first`` is what the
    reader got."""

    def __init__(self):
        self._r, self._w = os.pipe()
        self.first = b""

    def write(self, s: str) -> int:
        os.write(self._w, s.encode())
        if "\n" in s and self._r is not None:
            self.first = os.read(self._r, 1 << 16)
            os.close(self._r)
            self._r = None
        return len(s)

    def fileno(self) -> int:
        return self._w

    def now_devnull(self) -> bool:
        """Whether the write end has been pointed at ``os.devnull``."""
        return os.path.samestat(os.fstat(self._w), os.stat(os.devnull))

    def close(self) -> None:
        for fd in (self._r, self._w):
            if fd is not None:
                os.close(fd)
        self._r = self._w = None
        super().close()


def run_into_closed_pipe(monkeypatch, capsys, argv) -> PipeHungUpAfterFirstLine:
    """``main(argv)`` with stdout a pipe its reader leaves after one line:
    no traceback, stdout sent to devnull, exit status 1 (Python's own
    status on EPIPE)."""
    pipe = PipeHungUpAfterFirstLine()
    monkeypatch.setattr("sys.stdout", pipe)
    try:
        assert main(argv) == 1
        assert pipe.now_devnull()
        assert "Traceback" not in capsys.readouterr().err
        return pipe
    finally:
        monkeypatch.undo()
        pipe.close()


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "SC 2009" in out
        assert "Table 3" in out

    def test_closed_pipe_ends_quietly(self, monkeypatch, capsys):
        """``repro info | head -n 1``: the reader got its line, and the
        rest of the output goes nowhere instead of into a traceback."""
        pipe = run_into_closed_pipe(monkeypatch, capsys, ["info"])
        assert pipe.first.count(b"\n") >= 1

    @pytest.mark.parametrize("tier", ["numpy", "compiled"])
    def test_info_names_the_kernel_build(self, capsys, monkeypatch, tier):
        """One ``kernel:`` line: tier and threads, and for the compiled
        tier which build — compiler, flags, host ISA, ladder rung, file."""
        from repro.kernels import available, build

        if tier == "compiled" and not available():
            pytest.skip("no C compiler: compiled kernel tier unavailable")
        monkeypatch.setenv("REPRO_KERNEL_TIER", tier)
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "1")
        assert main(["info"]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("kernel:")]
        assert line.startswith(f"kernel: {tier} (threads: 1)")
        if tier == "numpy":
            assert line == "kernel: numpy (threads: 1)"
            return
        record = build.build_record()
        assert record["rung"] in ("host-isa", "baseline")
        for field in ("compiler", "flags", "isa", "rung", "so"):
            assert record[field] in line
        assert "-ffp-contract=off" in record["flags"] and record["so"].endswith(".so")

    def test_perf_default(self, capsys):
        assert main(["perf"]) == 0
        out = capsys.readouterr().out
        assert "DHFR" in out
        assert "us/day" in out

    def test_perf_profile(self, capsys):
        assert main(["perf", "--system", "gpW", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Range-limited forces" in out

    def test_perf_unknown_system(self):
        with pytest.raises(KeyError):
            main(["perf", "--system", "nosuch"])

    def test_simulate_small_water(self, capsys):
        assert main(["simulate", "--system", "water", "--waters", "8",
                     "--steps", "4", "--record-every", "2"]) == 0
        out = capsys.readouterr().out
        assert "minimized potential energy" in out
        assert "E_total" in out
        assert "kernel tier: " in out

    def test_simulate_kernel_tier_flag_beats_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_TIER", "compiled")
        assert main(["simulate", "--system", "water", "--waters", "8", "--steps", "2",
                     "--kernel-tier", "numpy", "--kernel-threads", "2"]) == 0
        assert "kernel tier: numpy (threads: 1)" in capsys.readouterr().out

    def test_simulate_float_mode_has_no_kernel_tier(self, capsys):
        assert main(["simulate", "--system", "water", "--waters", "8", "--steps", "2",
                     "--mode", "float"]) == 0
        assert "kernel tier" not in capsys.readouterr().out

    def test_machine_with_invariance(self, capsys):
        assert main(["machine", "--nodes", "8", "--waters", "16", "--steps", "2",
                     "--check-invariance"]) == 0
        out = capsys.readouterr().out
        assert "bitwise identical to the 1-node machine: True" in out

    def test_machine_profile_emits_phase_json(self, capsys):
        import json

        assert main(["machine", "--nodes", "8", "--waters", "16", "--steps", "2",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        prof = json.loads(out[out.index("{"):])
        assert prof["steps"] == 2
        assert prof["coverage"] >= 0.9
        assert "step" in prof["phases"]

    def test_ensemble_with_detach_and_artifacts(self, capsys, tmp_path):
        assert main(["ensemble", "--replicas", "2", "--waters", "24",
                     "--steps", "8", "--record-every", "4", "--detach", "1",
                     "--trajectory", str(tmp_path / "t.rrs"),
                     "--checkpoint-dir", str(tmp_path / "ck"),
                     "--checkpoint-every", "4"]) == 0
        out = capsys.readouterr().out
        assert "replica seeds:" in out
        assert "state codes bitwise identical: True" in out
        assert (tmp_path / "t.r000.rrs").exists()
        assert (tmp_path / "t.r001.rrs").exists()
        assert (tmp_path / "ck" / "replica-000").is_dir()
        assert (tmp_path / "ck" / "replica-001").is_dir()

    def test_ensemble_explicit_seed_list(self, capsys):
        assert main(["ensemble", "--replicas", "2", "--waters", "24",
                     "--steps", "2", "--seeds", "11,12"]) == 0
        out = capsys.readouterr().out
        assert "replica seeds: 11, 12" in out

    def test_ensemble_seed_list_length_mismatch(self):
        with pytest.raises(SystemExit, match="2 seeds"):
            main(["ensemble", "--replicas", "3", "--waters", "24",
                  "--steps", "2", "--seeds", "11,12"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv, message", [
        (["ensemble", "--replicas", "2", "--detach", "5"], r"--detach: replica 5 out of range"),
        (["ensemble", "--replicas", "2", "--detach", "-1"], r"--detach: replica -1 out of range"),
        (["machine", "--nodes", "6"], r"--nodes: node count must be a power of two, got 6"),
        (["network", "--nodes", "6"], r"--nodes: node count must be a power of two, got 6"),
        (["network", "--predict", "--node-counts", "512,abc"],
         r"--node-counts: expected comma-separated integers, got '512,abc'"),
        (["network", "--predict", "--node-counts", "512,6"],
         r"--node-counts: node count must be a power of two, got 6"),
    ], ids=["detach-past-R", "detach-negative", "machine-nodes", "network-nodes",
            "node-counts-text", "node-counts-size"])
    def test_bad_argument_is_a_one_line_exit_before_any_work(self, capsys, argv, message):
        with pytest.raises(SystemExit, match=message) as exc:
            main(argv)
        assert "\n" not in str(exc.value)
        captured = capsys.readouterr()
        # Rejected before a system is built: nothing was printed at all.
        assert captured.out == "" and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, env, message", [
        (["ensemble", "--kernel-threads", "0"], {},
         r"kernel_threads must be in \[1, 128\], got 0"),
        (["info"], {"REPRO_KERNEL_THREADS": "abc"},
         r"REPRO_KERNEL_THREADS='abc' is not an integer"),
        (["machine"], {"REPRO_KERNEL_TIER": "fortran"}, r"unknown kernel_tier 'fortran'"),
    ], ids=["threads-flag", "threads-env", "tier-env"])
    def test_bad_kernel_configuration_is_a_one_line_exit_before_any_work(
        self, capsys, monkeypatch, argv, env, message
    ):
        """Resolved once, in ``main``: not a traceback out of the engine
        after the system was built and minimised."""
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit, match=message) as exc:
            main(argv)
        assert "\n" not in str(exc.value) and exc.value.code not in (0, None)
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err


class TestMeshFollowsTheBox:
    """The water commands size their GSE mesh from box and cutoff
    (``GSEParams.smallest_mesh``): boxes past ~64 waters, which the old
    fixed 16^3 refused with a traceback, run; boxes 16^3 fits keep it,
    and with it every byte of output."""

    @pytest.mark.parametrize("waters", [100, 250])
    def test_simulate_beyond_64_waters(self, capsys, waters):
        assert main(["simulate", "--waters", str(waters), "--steps", "2",
                     "--record-every", "2"]) == 0
        assert "E_total" in capsys.readouterr().out

    @pytest.mark.parametrize("waters", [100, 250])
    def test_machine_beyond_its_16_cubed_limit(self, capsys, waters):
        assert main(["machine", "--nodes", "8", "--waters", str(waters), "--steps", "1"]) == 0
        assert "messages/node/step" in capsys.readouterr().out

    def test_network_beyond_its_16_cubed_limit(self, capsys):
        assert main(["network", "--nodes", "8", "--waters", "200", "--steps", "2"]) == 0
        assert "comm critical path" in capsys.readouterr().out

    def test_ensemble_beyond_64_waters(self, capsys):
        assert main(["ensemble", "--waters", "100", "--replicas", "2", "--steps", "2",
                     "--record-every", "2"]) == 0
        assert "final T (K)" in capsys.readouterr().out

    def test_table4_systems_size_their_mesh_from_the_box(self, capsys, monkeypatch):
        """``simulate --system <Table 4 name>`` sizes its mesh as the water
        runs do.  A fixed 32^3 was too coarse for full-scale BPTI (64^3;
        ``GSEParams.choose`` refused it) and twice too fine per axis for
        the default scale's boxes, which 16^3 resolves."""
        import repro
        from repro.ewald import GSEParams

        seen = []

        def minimize_energy(system, params, max_steps):
            seen.append((system.box, params))
            return 0.0

        monkeypatch.setattr(repro, "minimize_energy", minimize_energy)
        assert main(["simulate", "--system", "gpW", "--steps", "2", "--record-every", "2"]) == 0
        assert "E_total" in capsys.readouterr().out
        ((box, params),) = seen
        assert params.mesh == GSEParams.smallest_mesh(box, params.cutoff) == (16, 16, 16)

    # sha256 of standard output (less its "kernel tier:" line, which
    # names the tier under test) and of the trajectory file.  First
    # recorded from commit 7b33060 (PR 19), whose CLI hard-coded mesh
    # 16^3; re-recorded once when the CLI's pair kernels became the
    # tiered tables (they were the analytic oracle) and the mesh gather's
    # sums moved into the order of DESIGN.md's gather-order lemma.
    # The trajectory hashes moved once more when ``lj_mode`` left
    # ``MDParams``: the header's ``params_hash`` is the only changed
    # field, and every frame byte is the same.  Both moved again when
    # every fixed-point run began to spread its mesh through the 40-bit
    # codec and every minimisation float (``simulate`` had spread float,
    # ``machine``'s minimiser 40-bit): their frames are byte-equal to
    # commit 2560655's with ``quantize_mesh_bits=40`` on the dynamics and
    # ``None`` on the minimiser, and the header differs in ``params_hash``.
    # The trajectory hashes moved again when rigid water began to be
    # constrained by SETTLE instead of SHAKE / RATTLE sweeps; the printed
    # tables (stdout) kept their bytes.  The machine's trajectory hash
    # moved once more when the mesh solve became the repository's own
    # radix-2 FFT (kernels/fft.py) instead of NumPy's pocketfft; the
    # simulate entry and both printed tables kept their bytes.  Both
    # trajectory hashes moved once more when the geometry began to read
    # the position codes (DESIGN.md, integer geometry: pair and mesh
    # displacements rounded once); the printed tables kept their bytes.
    # Checked equal on the NumPy tier, the compiled tier at one and four
    # threads, and the -march=x86-64 build.
    SAME_BYTES = {
        "simulate": (
            ["simulate", "--waters", "40", "--steps", "12", "--seed", "7", "--record-every", "4"],
            "f19a3fe77f8f92be",
            "192626f847b9ec812e53f27f1a2b325603005d39b5d10f644b64cbf50da61cba",
        ),
        "machine": (
            ["machine", "--waters", "32", "--nodes", "8", "--steps", "4",
             "--trajectory-every", "2"],
            "e4365f07352d8265",
            "dda8e55bf700f0aad9e2ee7e98dbdf35c285bb4411e97a22e9d0243bd578b6e1",
        ),
    }

    @pytest.mark.parametrize("command", SAME_BYTES)
    def test_small_boxes_keep_their_bytes(self, capsys, tmp_path, command):
        import hashlib

        argv, stdout_sha, trajectory_sha = self.SAME_BYTES[command]
        traj = tmp_path / "t.rrs"
        assert main(argv + ["--trajectory", str(traj)]) == 0
        out = "".join(line for line in capsys.readouterr().out.splitlines(True)
                      if not line.startswith("kernel tier:"))
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == stdout_sha
        assert hashlib.sha256(traj.read_bytes()).hexdigest() == trajectory_sha


class TestRunStoreCLI:
    WATER = ["simulate", "--system", "water", "--waters", "24",
             "--record-every", "4"]

    def test_simulate_with_store_then_resume(self, capsys, tmp_path):
        flags = self.WATER + [
            "--checkpoint-dir", str(tmp_path / "ck"),
            "--checkpoint-every", "4",
            "--trajectory", str(tmp_path / "t.rrs"),
            "--trajectory-every", "2",
            "--energy-log", str(tmp_path / "e.jsonl"),
        ]
        assert main(flags + ["--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "final checkpoint" in out

        assert main(flags + ["--steps", "8", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out and "at step 4" in out

        from repro.io import TrajectoryReader, read_energy_log

        with TrajectoryReader(tmp_path / "t.rrs") as r:
            assert list(r.steps) == [2, 4, 6, 8]
            assert r.verify().ok
        assert [rec.step for rec in read_energy_log(tmp_path / "e.jsonl")] == [4, 8]

    def _store_flags(self, root, checkpoint_every):
        return self.WATER + [
            "--checkpoint-dir", str(root / "ck"),
            "--checkpoint-every", str(checkpoint_every),
            "--trajectory", str(root / "t.rrs"), "--trajectory-every", "2",
            "--energy-log", str(root / "e.jsonl"),
        ]

    def test_resume_energy_log_is_byte_identical(self, capsys, tmp_path):
        """Every artifact of a resumed run, the energy log included, is
        byte for byte the uninterrupted run's — with --checkpoint-every
        (6) *not* a multiple of --record-every (4), so the records only
        line up because their cadence is keyed to the global step, and
        with a record logged past the last checkpoint, which only goes
        away because --resume truncates the log before appending."""
        import json

        dirs = {name: tmp_path / name for name in ("ref", "aligned", "overshoot")}
        for d in dirs.values():
            d.mkdir()
        assert main(self._store_flags(dirs["ref"], 6) + ["--steps", "12"]) == 0

        # Stopped exactly on a checkpoint that is off the record cadence.
        flags = self._store_flags(dirs["aligned"], 6)
        assert main(flags + ["--steps", "6"]) == 0
        assert main(flags + ["--steps", "12", "--resume"]) == 0

        # Killed after logging step 8, newest surviving checkpoint 6.
        flags = self._store_flags(dirs["overshoot"], 6)
        assert main(flags + ["--steps", "8"]) == 0
        (dirs["overshoot"] / "ck" / f"ckpt-{8:012d}.rrs").unlink()
        assert main(flags + ["--steps", "12", "--resume"]) == 0
        assert "at step 6 (6 steps remain)" in capsys.readouterr().out

        final = f"ck/ckpt-{12:012d}.rrs"
        ref = dirs["ref"]
        assert [json.loads(line)["step"]
                for line in (ref / "e.jsonl").read_text().splitlines()] == [4, 8, 12]
        for name in ("aligned", "overshoot"):
            for artifact in ("e.jsonl", "t.rrs", final):
                assert (dirs[name] / artifact).read_bytes() == (ref / artifact).read_bytes(), (
                    name, artifact)

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="--resume requires"):
            main(self.WATER + ["--steps", "4", "--resume"])

    def test_resume_empty_store_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="no valid checkpoint"):
            main(self.WATER + ["--steps", "4", "--resume",
                               "--checkpoint-dir", str(tmp_path / "ck")])

    def test_machine_store_resume(self, capsys, tmp_path):
        # --check-invariance on both legs: the 1-node reference must
        # start where the machine starts (fresh: the prepared system;
        # resumed: the loaded checkpoint) and run the remaining steps.
        flags = ["machine", "--nodes", "4", "--waters", "16",
                 "--checkpoint-dir", str(tmp_path / "ck"),
                 "--checkpoint-every", "2", "--check-invariance"]
        same = "bitwise identical to the 1-node machine: True"
        assert main(flags + ["--steps", "2"]) == 0
        assert same in capsys.readouterr().out
        assert main(flags + ["--steps", "4", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out and "at step 2" in out
        assert same in out

    def test_resumed_machine_reports_the_steps_it_ran(self, capsys, tmp_path):
        """A resumed run's per-step reports cover its own span: steps
        4..6 of a resumed process read exactly as steps 4..6 of an
        uninterrupted machine, traffic table and divisor alike."""
        from repro import AntonMachine
        from repro.systems import prepare_water_box

        flags = ["machine", "--nodes", "4", "--waters", "16", "--routed",
                 "--checkpoint-dir", str(tmp_path / "ck"), "--checkpoint-every", "4"]
        assert main(flags + ["--steps", "4"]) == 0
        capsys.readouterr()
        assert main(flags + ["--steps", "6", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "4-node machine, 2 steps" in out
        assert "routed fabric:" in out and "directed links, 2 steps (" in out

        base, params, _ = prepare_water_box(
            16, 7, cutoff_cap=4.5, long_range_every=1, minimize_steps=40
        )
        base.initialize_velocities(300.0, seed=8)
        machine = AntonMachine(base, params, n_nodes=4, dt=1.0)
        try:
            machine.step(4)
            messages = machine.network.stats.messages
            by_tag = dict(machine.traffic_summary())
            machine.step(2)
            span = machine.network.stats.messages - messages
            assert f"messages/node/step: {span / (2 * 4):.1f}\n" in out
            for tag, (msgs, nbytes) in machine.traffic_summary().items():
                m0, b0 = by_tag.get(tag, (0, 0))
                if msgs == m0:
                    continue  # nothing of this class in the span
                assert f"  {tag:<20} {msgs - m0:>8} msgs {nbytes - b0:>12} bytes\n" in out
            # An in-process rollback-style restore keeps the window open.
            machine.restore(machine.checkpoint())
            assert machine._steps_reported() == 6
        finally:
            machine.close()

    def test_traj_info_dump_verify(self, capsys, tmp_path):
        traj = tmp_path / "t.rrs"
        assert main(self.WATER + ["--steps", "4", "--trajectory", str(traj),
                                  "--trajectory-every", "2"]) == 0
        capsys.readouterr()

        assert main(["traj", "info", str(traj)]) == 0
        out = capsys.readouterr().out
        assert "2 frames" in out and "clean index" in out

        assert main(["traj", "dump", str(traj), "--frame", "-1", "--atoms", "2"]) == 0
        out = capsys.readouterr().out
        assert "step 4" in out and "atom 1" in out

        assert main(["traj", "verify", str(traj)]) == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out

    def test_traj_verify_flags_torn_file(self, capsys, tmp_path):
        traj = tmp_path / "t.rrs"
        assert main(self.WATER + ["--steps", "4", "--trajectory", str(traj),
                                  "--trajectory-every", "2"]) == 0
        capsys.readouterr()
        traj.write_bytes(traj.read_bytes()[:-30])
        assert main(["traj", "verify", str(traj)]) == 1
        out = capsys.readouterr().out
        assert "verify: FAIL" in out

    def test_traj_missing_file(self, capsys, tmp_path):
        assert main(["traj", "info", str(tmp_path / "nope.rrs")]) == 1
        assert "no such file" in capsys.readouterr().err


class TestNetworkCLI:
    def test_network_functional_report(self, capsys):
        assert main(["network", "--waters", "12", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "routed fabric: 2x2x2 torus, 48 directed links" in out
        assert "position_import" in out
        assert "comm critical path" in out

    def test_network_functional_json_conserves(self, capsys):
        import json

        assert main(["network", "--waters", "12", "--steps", "2", "--json"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["links"] == 48
        assert report["steps"] == 2
        assert report["link_bytes_total"] > 0
        assert set(report["phases"]) >= {"position_import", "force_export"}

    def test_network_unicast_mode_saves_nothing(self, capsys):
        import json

        assert main(["network", "--waters", "12", "--steps", "2",
                     "--multicast", "unicast", "--json"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["multicast_saved_link_bytes"] == 0
        assert report["multicast_mode"] == "unicast"
        # The comparison totals are still recorded for reporting.
        assert report["multicast"]["saved_link_bytes"] >= 0

    def test_network_predict_sweep(self, capsys):
        assert main(["network", "--predict", "--node-counts", "512",
                     "--bandwidth-scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "predicted scaling" in out
        assert "us/day routed" in out
        assert " 512 " in out

    def test_machine_routed_flag_prints_report(self, capsys):
        assert main(["machine", "--nodes", "8", "--waters", "16", "--steps", "2",
                     "--routed"]) == 0
        out = capsys.readouterr().out
        assert "routed fabric: 2x2x2 torus" in out
        assert "comm critical path" in out
