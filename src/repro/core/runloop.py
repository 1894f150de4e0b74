"""The one MD run loop.

``Simulation.run``, ``EnsembleSimulation.run`` and ``AntonMachine.run``
are each one call into :func:`run_loop`, which alone advances an engine
step by step, decides when an energy record, a trajectory frame or a
checkpoint is due, and fixes the order in which they reach disk.

An engine is anything with this per-lane surface (a *lane* is one
independent system: R for the batched engine, one for the machine and
for the float reference engine): ``replicas``, ``integrator.step_count``,
``timers`` and ``io_phase`` (where frame/checkpoint I/O time is
charged), ``advance(energies)`` (``energies`` is true on exactly the
steps whose energies the loop records: every other step's force
evaluation may leave them to be computed on first read),
``record_energy()`` (one record per lane),
``write_replica_frame(writer, r)`` and ``replica_checkpoint(r)``.
:class:`~repro.io.session.RunSession` additionally uses
``restore_replicas(states)`` and ``open_replica_trajectory(path)`` /
``append_replica_trajectory(path)``.  :class:`LaneEngine` is the half
of that surface all three engines share.
"""

from __future__ import annotations

from repro.io import TrajectoryWriter, trajectory_decode

__all__ = ["LaneEngine", "run_loop"]


class LaneEngine:
    """What the per-lane surface derives from an engine's ``calc``,
    ``integrator``, ``provider``, ``solo_system``, ``fixed_config``
    (``None``: float storage), ``replica_fingerprint()`` and
    ``lane_state(r)`` — lane r's exact state arrays by name."""

    replicas = 1
    fixed_config = None

    @property
    def timers(self):
        return self.calc.timers

    def advance(self, energies: bool) -> None:
        """One time step of every lane."""
        self.integrator.step(energies)

    def replica_checkpoint(self, r: int = 0) -> dict:
        """Lane r's state in the solo checkpoint schema."""
        return {
            "mode": self.mode,
            "dt": self.dt,
            "step_count": self.integrator.step_count,
            "provider_calls": self.provider.calls,
            "fingerprint": self.replica_fingerprint(),
            **self.lane_state(r),
        }

    def open_replica_trajectory(self, path) -> TrajectoryWriter:
        """A solo-format trajectory writer for one lane's frames.

        The header carries the fingerprint plus the decode parameters
        (datapath widths, box) a reader needs to reconstruct physical
        positions/velocities bit-exactly without the system objects.
        """
        return TrajectoryWriter(
            path, fingerprint=self.replica_fingerprint(),
            decode=trajectory_decode(self.solo_system, self.fixed_config),
        )

    def append_replica_trajectory(self, path) -> TrajectoryWriter:
        """Reopen one lane's trajectory for resumed writing: frames past
        the current step and any torn tail are truncated."""
        return TrajectoryWriter.append(
            path, fingerprint=self.replica_fingerprint(),
            resume_step=self.integrator.step_count,
        )

    def write_replica_frame(self, writer: TrajectoryWriter, r: int = 0) -> None:
        """Append lane r's current exact state as one frame."""
        step = self.integrator.step_count
        writer.write_frame(step, step * self.dt, self.lane_state(r))


def _lanes(sinks, every: int) -> list:
    """``(lane, sink)`` for the lanes that have one, if the cadence is on."""
    if not every or sinks is None:
        return []
    return [(r, sink) for r, sink in enumerate(sinks) if sink is not None]


def run_loop(
    engine,
    n_steps: int,
    record_every: int = 0,
    energy_writers=None,
    trajectories=None,
    trajectory_every: int = 0,
    checkpoint_stores=None,
    checkpoint_every: int = 0,
    sample_every: int = 0,
    sample=None,
    bracket=None,
) -> list[list]:
    """Advance ``engine`` ``n_steps``; returns the energy records taken,
    one list per lane.

    ``energy_writers`` / ``trajectories`` / ``checkpoint_stores`` are
    per-lane sequences (``None``, or ``None`` entries, skip lanes); a
    cadence of 0 disables its output, and ``sample(step)`` is called
    every ``sample_every`` steps.  Every cadence is keyed to the
    *global* step count, so a run resumed from a checkpoint emits at
    exactly the steps the uninterrupted run would have, however the
    cadences align with each other or with the resume step.

    ``bracket`` is a fault-tolerant engine's step bracket
    (:class:`~repro.fault.FaultController`): ``begin_step`` arms the
    step; ``end_step`` audits it and returns True when its output must
    not be emitted — it was rolled back, or replays a step whose output
    exists; ``after_io`` runs once the output is out.
    """
    integ = engine.integrator
    records: list[list] = [[] for _ in range(engine.replicas)]
    writers = _lanes(energy_writers, record_every)
    frames = _lanes(trajectories, trajectory_every)
    saves = _lanes(checkpoint_stores, checkpoint_every)
    target = integ.step_count + n_steps
    while integ.step_count < target:
        step = integ.step_count + 1
        if bracket is not None:
            bracket.begin_step(engine, step)
        record_due = bool(record_every) and step % record_every == 0
        engine.advance(record_due)
        if bracket is not None and bracket.end_step(engine, step):
            continue
        if record_due:
            recs = engine.record_energy()
            for lane, rec in zip(records, recs):
                lane.append(rec)
            for r, writer in writers:
                writer.write(recs[r])
        if sample_every and step % sample_every == 0:
            sample(step)
        frame_due = frames and step % trajectory_every == 0
        save_due = saves and step % checkpoint_every == 0
        if frame_due or save_due:
            with engine.timers.time(engine.io_phase):
                if frame_due:
                    for r, writer in frames:
                        engine.write_replica_frame(writer, r)
                if save_due:
                    # The durability rule, for every driver: flush every
                    # trajectory, then save (fsync) the checkpoints — a
                    # kill can never leave a checkpoint newer than the
                    # frames on disk, which a resume from it could not
                    # regenerate.  Energy lines flush per record.
                    for _, writer in frames:
                        writer.flush()
                    for r, store in saves:
                        store.save(engine.replica_checkpoint(r), step)
        if bracket is not None:
            bracket.after_io(engine, step)
    return records
