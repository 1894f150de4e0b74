"""``solo_io`` — the NumPy solo path with the run store, both directions.

Solo ``Simulation`` exactly as ``repro simulate`` builds it (NumPy
forces, analytic kernels, Berendsen thermostat, constraints): 250
waters, cutoff 9.0 A, mesh 16^3.

* phase A — fresh run 0 -> N with ``trajectory_every=2``,
  ``checkpoint_every=20``, ``retain=8``, energy log every 2;
* phase B — a *new* ``Simulation`` restored from the step-N/2 snapshot
  (``CheckpointStore.load``, ``append_trajectory``) run N/2 -> N;
* phase C — ``TrajectoryReader.verify()``, decode every frame,
  ``read_energy_log``.

The only workload where ``core`` does most of the work and the compiled
tier none — a "solo is the R=1 ensemble" refactor must show here and
nowhere else — and the only one that uses ``io`` to write, restore,
append and read back.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import engine
import probe as hostprobe
from common import (
    OUT,
    REPO,
    STEPS_PER_CYCLE,
    Phases,
    Result,
    Window,
    median,
    state_digest,
)

NAME = "solo_io"
TRAJECTORY_EVERY = 2
RECORD_EVERY = 2
CHECKPOINT_EVERY = 20
RETAIN = 8


@dataclass(frozen=True)
class Sizing:
    waters: int
    cutoff: float
    minimize_steps: int
    #: Phase-A cycles per requested ``--seconds``; rounded to a multiple
    #: of ``CHECKPOINT_EVERY`` steps so the half-way snapshot exists.
    cycles_per_second: float
    min_cycles: int
    key: str


FULL = Sizing(250, 9.0, 30, 3.0, 40, "full")
QUICK = Sizing(32, 4.4, 10, 2.0, 20, "quick")


def n_cycles(sz: Sizing, seconds: float) -> int:
    """Phase-A cycles: a multiple of 20 so N/2 lands on a checkpoint."""
    block = 2 * CHECKPOINT_EVERY // STEPS_PER_CYCLE
    return max(sz.min_cycles, block * round(seconds * sz.cycles_per_second / block))


def _simulation(system, params):
    from repro.core.simulation import Simulation
    from repro.core.thermostat import BerendsenThermostat

    return Simulation(system.copy(), params, dt=1.0, mode="fixed",
                      thermostat=BerendsenThermostat(300.0), constraints=True)


class _Artifacts:
    """One run directory: trajectory, rolling checkpoints, energy log."""

    def __init__(self, root: Path):
        self.root = root
        self.trajectory = root / "traj.rrs"
        self.checkpoints = root / "ck"
        self.energy = root / "energy.jsonl"
        root.mkdir(parents=True)

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.root.rglob("*") if p.is_file())


class _Run:
    """A ``Simulation`` wired to one run directory, as ``cmd_simulate`` does it.

    ``resume_step=None`` starts a fresh run; otherwise the simulation is
    restored from that step's snapshot and the trajectory and energy log
    are reopened for appending (the ``--resume`` path).
    """

    def __init__(self, res: Result, system, params, art: _Artifacts,
                 resume_step: int | None = None):
        from repro.io import CheckpointStore, EnergyLogWriter, truncate_energy_log

        self.res = res
        self.art = art
        self.sim = _simulation(system, params)
        self.store = CheckpointStore(art.checkpoints, retain=RETAIN)
        if resume_step is None:
            self.trajectory = self.sim.open_trajectory(art.trajectory)
            self.writer = EnergyLogWriter(art.energy)
        else:
            state, _header = self.store.load(self.store.path_for(resume_step))
            self.sim.restore(state)
            self.trajectory = self.sim.append_trajectory(art.trajectory)
            truncate_energy_log(art.energy, resume_step)
            self.writer = EnergyLogWriter(art.energy, append=True)

    def cycle(self, _c) -> None:
        self.sim.run(STEPS_PER_CYCLE, record_every=RECORD_EVERY, energy_writer=self.writer,
                     trajectory=self.trajectory, trajectory_every=TRAJECTORY_EVERY,
                     checkpoint_store=self.store, checkpoint_every=CHECKPOINT_EVERY)

    def between(self, _c) -> None:
        engine.check_temperature(self.res, self.sim.integrator, STEPS_PER_CYCLE)

    def finish(self) -> None:
        self.trajectory.close()
        self.writer.close()
        self.store.save(self.sim.checkpoint(), self.sim.integrator.step_count)


def run(seed: int, seconds: float, quick: bool = False, tracer=None) -> Result:
    from repro.core import MDParams
    from repro.io import TrajectoryReader, read_energy_log

    sz = QUICK if quick else FULL
    res = Result(NAME, seed, quick)
    cycles_a = n_cycles(sz, seconds)
    steps_a = cycles_a * STEPS_PER_CYCLE
    resume_step = steps_a // 2
    cycles_b = (steps_a - resume_step) // STEPS_PER_CYCLE
    steps = steps_a + (steps_a - resume_step)
    params = MDParams(cutoff=sz.cutoff, mesh=(16, 16, 16), long_range_every=STEPS_PER_CYCLE)
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    root = OUT / f"solo_io_s{seed}_{sz.key}"

    setup = Phases()
    system = engine.prepare_system(setup, tracer, sz.waters, seed, params, sz.minimize_steps)
    system.initialize_velocities(300.0, seed=8 + seed)
    with setup.phase("warmup"):
        # Phase A is a fresh run from step 0, so the warm-up steps run on
        # a throwaway twin (which also grows the heap; see run.BENCH_ENV).
        twin = _simulation(system, params)
        engine.warm_up(twin.run, twin.calc.neighbor_list, lambda: twin.positions)
        del twin

    # -- phase A: fresh run ------------------------------------------------
    def fresh(charge: Phases):
        shutil.rmtree(root, ignore_errors=True)
        with charge.phase("construct"):
            run_a = _Run(res, system, params, _Artifacts(root / "a"))
        return run_a, run_a.cycle, run_a.between

    run_a, window, reruns = engine.measure_window(res, setup, fresh, cycles_a, tracer)
    art_a = run_a.art
    extras = Phases()
    if tracer is not None:
        tracer.phase = "window"
    with extras.phase("close_a"):
        run_a.finish()

    # -- phase B: restore from the half-way snapshot and run it out --------
    art_b = _Artifacts(root / "b")
    shutil.copy(art_a.trajectory, art_b.trajectory)
    shutil.copy(art_a.energy, art_b.energy)
    art_b.checkpoints.mkdir()
    for path in sorted(art_a.checkpoints.iterdir()):
        # What a run killed just after step N/2 leaves behind.
        if int(path.stem.split("-")[1]) <= resume_step:
            shutil.copy(path, art_b.checkpoints / path.name)
    with extras.phase("restore_b"):
        run_b = _Run(res, system, params, art_b, resume_step=resume_step)
    window_b = engine.timed_window(run_b.cycle, run_b.between, cycles_b, tracer)
    if tracer is not None:
        tracer.phase = "window"
    with extras.phase("close_b"):
        run_b.finish()

    # -- phase C: read everything back -------------------------------------
    with extras.phase("read_c"), span("io.read_back"):
        with TrajectoryReader(art_b.trajectory) as reader:
            report = reader.verify()
            finite = all(
                np.isfinite(reader.positions(f)).all() and np.isfinite(reader.velocities(f)).all()
                for f in reader
            )
        records = read_energy_log(art_b.energy)
    if tracer is not None:
        tracer.phase = "after"

    both = Window(window.raw + window_b.raw, window.probes + window_b.probes)
    engine.end_to_end(res, setup, both, steps, extra_norm_s=extras.norm_s)

    # -- output checks -----------------------------------------------------
    n_frames = steps_a // TRAJECTORY_EVERY
    res.check(report.ok, f"trajectory verify failed: {report.errors}", weight=n_frames)
    res.check(report.n_frames == n_frames, f"{report.n_frames} frames, expected {n_frames}")
    res.check(finite, "a decoded frame holds non-finite values")
    res.check(len(records) == steps_a // RECORD_EVERY,
              f"{len(records)} energy records, expected {steps_a // RECORD_EVERY}")
    res.check(art_a.trajectory.read_bytes() == art_b.trajectory.read_bytes(),
              "resumed trajectory bytes differ from the uninterrupted run's")
    final = f"ckpt-{steps_a:012d}.rrs"
    res.check((art_a.checkpoints / final).read_bytes() == (art_b.checkpoints / final).read_bytes(),
              "resumed final checkpoint bytes differ from the uninterrupted run's")
    res.check(art_a.energy.read_bytes() == art_b.energy.read_bytes(),
              "resumed energy log differs from the uninterrupted run's")
    X, V = run_b.sim.integrator.state_codes()
    res.digest = state_digest(X, V)
    res.check_digest(f"{sz.key}_c{cycles_a}")
    res.counts.update({
        "steps": steps,
        "frames": report.n_frames,
        "artifact_bytes_a": art_a.total_bytes(),
        "neighbor_builds_a": run_a.sim.calc.neighbor_list.n_builds,
    })

    if tracer is not None:
        _layers(res, tracer, setup, both, extras, steps, steps_a, reruns,
                run_a.sim, art_a, art_b, seed)
    shutil.rmtree(root, ignore_errors=True)
    return res


def _layers(res, tracer, setup, window, extras, steps, steps_a, reruns,
            sim_a, art_a, art_b, seed) -> None:
    L = res.layers
    k = engine.common_layers(res, tracer, setup, window, steps, reruns,
                             0.0, sim_a.calc.neighbor_list)
    del L["kernels.build_s"]  # this workload never touches the compiled tier

    def p50_ms(name):
        d = tracer.durations(name)
        return k * median(d) if d else 0.0

    def mean_ms(name):
        d = tracer.durations(name)
        return k * sum(d) / len(d) if d else 0.0

    L["io.write_frame_ms_p50"] = p50_ms("io.write_frame")
    L["io.traj_close_ms"] = mean_ms("io.traj_close")
    L["io.checkpoint_save_ms_p50"] = p50_ms("io.checkpoint_save")
    L["io.checkpoint_load_ms"] = mean_ms("io.checkpoint_load")
    L["io.append_open_ms"] = mean_ms("io.append_open")
    verify_s = tracer.total("io.verify")
    L["io.verify_mb_per_s"] = art_b.trajectory.stat().st_size / 1e6 / verify_s * (1e3 / k)
    reads = tracer.durations("io.read_frame")
    L["io.read_frames_per_s"] = len(reads) / sum(reads) * (1e3 / k)
    L["io.bytes_per_step"] = art_a.total_bytes() / steps_a
    io_s = sum(tracer.total(name) for name in (
        "io.write_frame", "io.traj_close", "io.append_open", "io.checkpoint_save",
        "io.checkpoint_load", "io.energy_write", "io.read_back"))
    L["io.share"] = io_s / (window.raw_s + extras.raw_s)

    L["trace.overhead_ratio"] = engine.overhead_ratio(
        tracer, lambda _k: sim_a.run(STEPS_PER_CYCLE), sim_a.calc.neighbor_list)
    L.update(_cold_cli(seed))


def _cold_cli(seed: int) -> dict[str, float]:
    """Wall time of real CLI invocations, start to exit (import, build,
    prepare, step, print) — what a user at a shell waits for."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    runs = {
        "cli.import_s": ["-c", "import repro"],
        "cli.simulate_cold_s": ["-m", "repro", "simulate", "--waters", "16",
                                "--steps", "4", "--seed", str(seed)],
        "cli.machine_cold_s": ["-m", "repro", "machine", "--waters", "24",
                               "--nodes", "8", "--steps", "3"],
    }
    out = {}
    for name, argv in runs.items():
        before = hostprobe.probe_block()
        t0 = perf_counter()
        subprocess.run([sys.executable, *argv], env=env, cwd=OUT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        raw = perf_counter() - t0
        after = hostprobe.probe_block()
        out[name] = hostprobe.normalise(raw, before + after)
    return out
