"""Durable run store: bit-exact checkpoint/trajectory I/O.

The paper's headline results are multi-month simulations that survive
interruption and restart *bit-for-bit* (Section 4's determinism makes
that meaningful; Table 1's runs make it necessary).  This package is
the storage layer that realizes it in the reproduction:

* :mod:`~repro.io.records` — CRC-protected binary record framing.
* :mod:`~repro.io.serialize` — deterministic state serialization and
  the system fingerprint validated on every restore.
* :mod:`~repro.io.trajectory` — compact, random-access trajectory
  files storing raw fixed-point state codes.
* :mod:`~repro.io.checkpoint` — atomic checkpoint store with rolling
  retention and corruption fallback.
* :mod:`~repro.io.energylog` — streaming JSONL energy observables.
* :mod:`~repro.io.replicas` — per-replica artifact naming for
  batched ensemble runs (solo formats, indexed paths).
* :mod:`~repro.io.session` — the one durable-run session every entry
  point resumes, writes and closes its artifacts through.
"""

from repro.io.checkpoint import CheckpointError, CheckpointStore, LoadedCheckpoint
from repro.io.energylog import (
    EnergyLogWriter,
    EnergyRecord,
    read_energy_log,
    truncate_energy_log,
)
from repro.io.records import CorruptRecord
from repro.io.replicas import (
    indexed_artifact_path,
    job_checkpoint_dir,
    job_energy_log_path,
    job_trajectory_path,
    replica_checkpoint_dir,
    replica_checkpoint_store,
    replica_trajectory_path,
    sanitize_artifact_name,
    unique_artifact_dir,
)
from repro.io.serialize import (
    FingerprintMismatch,
    check_fingerprint,
    pack_state,
    system_fingerprint,
    trajectory_decode,
    unpack_state,
)
from repro.io.session import RunSession
from repro.io.trajectory import Frame, TrajectoryReader, TrajectoryWriter, VerifyReport

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "LoadedCheckpoint",
    "EnergyLogWriter",
    "EnergyRecord",
    "read_energy_log",
    "CorruptRecord",
    "FingerprintMismatch",
    "check_fingerprint",
    "pack_state",
    "system_fingerprint",
    "trajectory_decode",
    "unpack_state",
    "Frame",
    "TrajectoryReader",
    "TrajectoryWriter",
    "VerifyReport",
    "RunSession",
    "replica_checkpoint_dir",
    "replica_checkpoint_store",
    "replica_trajectory_path",
    "indexed_artifact_path",
    "job_checkpoint_dir",
    "job_energy_log_path",
    "job_trajectory_path",
    "sanitize_artifact_name",
    "truncate_energy_log",
    "unique_artifact_dir",
]
