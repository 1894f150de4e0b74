"""One durable run: resume, artifacts, final checkpoint, close.

Every entry point that persists a run — ``repro simulate``, ``repro
ensemble``, ``repro machine``, the service's workers — holds its
artifacts through a :class:`RunSession`, so the resume protocol exists
once: load each lane's newest valid snapshot, restore the engine,
reopen each trajectory and energy log cut back to the restored step
(or open them fresh), hand the writers and stores to the engine's
``run`` (whose loop, :mod:`repro.core.runloop`, flushes frames before
every checkpoint), write the final checkpoints on a clean exit, close
everything on any exit.  The resumed engine reproduces the interrupted
run's bits and every cadence is keyed to the global step, so the
finished trajectory, checkpoint and energy log are **byte-identical**
to an uninterrupted run's, wherever the kill fell.
"""

from __future__ import annotations

import os

from repro.io.energylog import EnergyLogWriter, truncate_energy_log
from repro.io.trajectory import TrajectoryWriter

__all__ = ["RunSession"]


class RunSession:
    """The durable artifacts of one run, one entry per lane.

    ``stores`` holds each lane's :class:`~repro.io.CheckpointStore`
    (``None``: that lane keeps no checkpoints).  With ``resume``, every
    lane's newest valid snapshot is loaded here
    (:class:`~repro.io.CheckpointError` if a lane has none) — before
    any engine exists, so callers can skip system preparation.
    """

    def __init__(self, stores, resume: bool = False):
        self.stores = list(stores)
        self.loaded = [store.load_latest() for store in self.stores] if resume else None
        self.engine = None
        self.trajectories: list[TrajectoryWriter | None] = []
        self.energy_writers: list[EnergyLogWriter | None] = []
        #: Paths of the final checkpoints, set on a clean exit.
        self.final_checkpoints: list = []

    def open(self, engine, trajectory_paths=(), energy_log_paths=()) -> int:
        """Bind the run's files to ``engine`` (the per-lane surface of
        :mod:`repro.core.runloop`); returns its step count.

        A resumed session restores the engine first — a fingerprint
        mismatch raises before any file is touched — then cuts every
        existing trajectory and energy log back to the restored step
        and appends.  ``None`` paths skip a lane.
        """
        self.engine = engine
        resumed = self.loaded is not None
        if resumed:
            engine.restore_replicas([loaded.state for loaded in self.loaded])
        step = engine.integrator.step_count
        try:
            for path in trajectory_paths:
                if path is None:
                    writer = None
                elif resumed and os.path.exists(path):
                    writer = engine.append_replica_trajectory(path)
                else:
                    writer = engine.open_replica_trajectory(path)
                self.trajectories.append(writer)
            for path in energy_log_paths:
                if path is not None and resumed:
                    truncate_energy_log(path, step)
                self.energy_writers.append(
                    None if path is None else EnergyLogWriter(path, append=resumed)
                )
        except BaseException:
            self.close()
            raise
        return step

    def close(self) -> None:
        for f in (*self.trajectories, *self.energy_writers):
            if f is not None:
                f.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        # Closing a trajectory flushes and fsyncs it, so the final
        # checkpoints obey the loop's flush-then-checkpoint rule.
        self.close()
        if exc_type is None:
            step = self.engine.integrator.step_count
            for r, store in enumerate(self.stores):
                if store is None:
                    continue
                # A run that ends on the checkpoint cadence (every serve
                # slice does) has this very snapshot from the loop already.
                if store.saved_step != step:
                    store.save(self.engine.replica_checkpoint(r), step)
                self.final_checkpoints.append(store.path_for(step))
