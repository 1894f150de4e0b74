"""Artifact naming shared by ensemble replicas and the job store.

Two consumers persist *solo-format* artifact sets under derived names:

* **Batched ensembles** (one file set per replica) — the whole point of
  the bitwise contract is that replica r's files are byte-identical to
  a solo run's, so the store layer needs nothing new beyond a naming
  convention:

  - trajectories:  ``traj.rrs`` -> ``traj.r000.rrs``, ``traj.r001.rrs``…
  - checkpoints:   ``ckpt/``    -> ``ckpt/replica-000/``, …

* **The simulation service** (one directory per job) — every job owns
  ``jobs/<id>/traj.rrs``, ``jobs/<id>/ck/``, ``jobs/<id>/energy.jsonl``
  under the service's state directory, with user-supplied job names
  sanitized to filesystem-safe slugs and collisions resolved
  deterministically.

Both go through the same helpers: :func:`replica_trajectory_path` is the
suffix-preserving index insertion, :func:`sanitize_artifact_name` /
:func:`unique_artifact_dir` the slug and collision logic.  Each
per-replica / per-job checkpoint directory is an ordinary
:class:`~repro.io.checkpoint.CheckpointStore` (atomic writes, retention
pruning, corrupt-skip recovery all inherited).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.io.checkpoint import CheckpointStore

__all__ = [
    "replica_trajectory_path",
    "replica_checkpoint_dir",
    "replica_checkpoint_store",
    "sanitize_artifact_name",
    "unique_artifact_dir",
    "job_trajectory_path",
    "job_checkpoint_dir",
    "job_energy_log_path",
]

_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")


def replica_trajectory_path(base, r: int) -> Path:
    """Insert a replica tag before the suffix: ``traj.rrs`` -> ``traj.r003.rrs``.

    A base without a suffix gets ``.rrs`` appended, so ``traj`` and
    ``traj.rrs`` derive the same family of names.
    """
    p = Path(base)
    suffix = p.suffix or ".rrs"
    stem = p.stem if p.suffix else p.name
    return p.with_name(f"{stem}.r{int(r):03d}{suffix}")


def replica_checkpoint_dir(base, r: int) -> Path:
    """``ckpt/`` -> ``ckpt/replica-003`` subdirectory."""
    return Path(base) / f"replica-{int(r):03d}"


def replica_checkpoint_store(base, r: int, retain: int = 4) -> CheckpointStore:
    """A standard :class:`CheckpointStore` rooted at the replica's dir."""
    return CheckpointStore(replica_checkpoint_dir(base, r), retain=retain)


# -- job-store naming --------------------------------------------------------


def sanitize_artifact_name(name: str, fallback: str = "job") -> str:
    """Collapse ``name`` to a filesystem-safe slug.

    Runs of unsafe characters become one ``-``; leading dots are
    stripped (no hidden directories, no ``..`` traversal); an empty
    result falls back to ``fallback``.
    """
    slug = _UNSAFE.sub("-", str(name))
    slug = re.sub(r"\.{2,}", "-", slug)  # no ".." components anywhere
    slug = re.sub(r"-{2,}", "-", slug).strip("-").lstrip(".")
    return slug or fallback


def unique_artifact_dir(root, name: str) -> Path:
    """Create and return a fresh ``root/<slug>`` directory.

    Collisions (two names sanitizing to the same slug, or a resubmitted
    name) are resolved deterministically by appending ``-2``, ``-3``, …
    — the first free suffix wins, so the mapping depends only on which
    directories already exist.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    slug = sanitize_artifact_name(name)
    candidate = root / slug
    n = 1
    while True:
        try:
            candidate.mkdir()
            return candidate
        except FileExistsError:
            n += 1
            candidate = root / f"{slug}-{n}"


def job_trajectory_path(job_dir) -> Path:
    return Path(job_dir) / "traj.rrs"


def job_checkpoint_dir(job_dir) -> Path:
    return Path(job_dir) / "ck"


def job_energy_log_path(job_dir) -> Path:
    return Path(job_dir) / "energy.jsonl"
