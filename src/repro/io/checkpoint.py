"""Durable checkpoint store: atomic snapshots with rolling retention.

A store is a directory of ``ckpt-<step>.rrs`` files, each holding a
header record (kind, version, step, fingerprint) and a state record
(the serialized checkpoint dict), both CRC-protected.  Writes are
atomic — temp file in the same directory, flush, fsync, rename, then
directory fsync — so a crash at any instant leaves either the previous
set of snapshots or the previous set plus one complete new snapshot,
never a half-written one under the final name.

:meth:`CheckpointStore.load_latest` walks snapshots newest-first and
falls back past any that fail their CRC or structure checks (recording
what it skipped), which is the recovery contract the paper's
multi-month runs rely on: an interrupted run resumes from the newest
snapshot that actually made it to disk intact.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.io.records import (
    REC_HEADER,
    REC_STATE,
    CorruptRecord,
    read_record,
    write_record,
)
from repro.io.serialize import pack_state, unpack_state

__all__ = ["CheckpointStore", "CheckpointError", "LoadedCheckpoint"]

_NAME = re.compile(r"^ckpt-(\d{12})\.rrs$")


class CheckpointError(Exception):
    """No valid snapshot could be loaded from the store."""


@dataclass
class LoadedCheckpoint:
    """A successfully loaded snapshot plus the recovery trail."""

    state: dict
    header: dict
    path: Path
    #: Newer snapshots that were skipped as corrupt: (path, reason).
    skipped: list = field(default_factory=list)

    @property
    def step(self) -> int:
        return int(self.header.get("step", self.state.get("step_count", 0)))


class CheckpointStore:
    """Rolling store of the last ``retain`` snapshots of one run."""

    def __init__(self, directory, retain: int = 4):
        if retain < 1:
            raise ValueError("retain must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.retain = int(retain)
        #: Step of the last snapshot this object wrote, if any.
        self.saved_step: int | None = None

    # -- paths ---------------------------------------------------------------

    def path_for(self, step: int) -> Path:
        return self.directory / f"ckpt-{int(step):012d}.rrs"

    def snapshots(self) -> list[Path]:
        """Snapshot files, oldest first."""
        found = []
        for p in self.directory.iterdir():
            m = _NAME.match(p.name)
            if m:
                found.append((int(m.group(1)), p))
        return [p for _step, p in sorted(found)]

    def steps(self) -> list[int]:
        return [int(_NAME.match(p.name).group(1)) for p in self.snapshots()]

    # -- writing -------------------------------------------------------------

    def save(self, state: dict, step: int) -> Path:
        """Atomically persist one snapshot; prunes beyond ``retain``.

        The header carries ``state["fingerprint"]`` when the state dict
        has one (as :meth:`Simulation.checkpoint` and
        :meth:`AntonMachine.checkpoint` do), else ``{}``.
        """
        header = {
            "kind": "checkpoint",
            "version": 1,
            "step": int(step),
            "fingerprint": state.get("fingerprint", {}),
        }
        final = self.path_for(step)
        tmp = self.directory / f".tmp-{os.getpid()}-{int(step):012d}"
        with open(tmp, "wb") as f:
            write_record(f, REC_HEADER, pack_state(header))
            write_record(f, REC_STATE, pack_state(state))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, final)
        self._fsync_dir()
        self._prune()
        self.saved_step = int(step)
        return final

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _prune(self) -> None:
        snaps = self.snapshots()
        for p in snaps[: max(0, len(snaps) - self.retain)]:
            p.unlink(missing_ok=True)
        # Leftover temp files from a crashed writer are garbage.
        for p in self.directory.glob(".tmp-*"):
            p.unlink(missing_ok=True)

    # -- reading -------------------------------------------------------------

    def load(self, path) -> tuple[dict, dict]:
        """Load one snapshot file; raises :class:`CorruptRecord` on damage."""
        with open(path, "rb") as f:
            try:
                rtype, payload = read_record(f)
            except EOFError as exc:
                raise CorruptRecord(f"{path}: empty snapshot file") from exc
            if rtype != REC_HEADER:
                raise CorruptRecord(f"{path}: first record is not a header")
            header = unpack_state(payload)
            if header.get("kind") != "checkpoint":
                raise CorruptRecord(f"{path}: not a checkpoint file")
            try:
                rtype, payload = read_record(f)
            except EOFError as exc:
                raise CorruptRecord(f"{path}: missing state record") from exc
            if rtype != REC_STATE:
                raise CorruptRecord(f"{path}: second record is not a state record")
            state = unpack_state(payload)
        if not isinstance(state, dict):
            raise CorruptRecord(f"{path}: state record is not a dict")
        return state, header

    def load_latest(self) -> LoadedCheckpoint:
        """Newest snapshot that passes integrity checks.

        Corrupt/truncated snapshots are skipped (recorded in
        ``skipped``).  Whether the snapshot belongs to the system being
        resumed is the engine's ``restore`` to decide: a fingerprint
        mismatch there is a hard error, never a reason to walk on to an
        older snapshot.
        """
        skipped = []
        for path in reversed(self.snapshots()):
            try:
                state, header = self.load(path)
            except (CorruptRecord, ValueError) as exc:
                skipped.append((path, str(exc)))
                continue
            return LoadedCheckpoint(state=state, header=header, path=path, skipped=skipped)
        detail = "".join(f"\n  {p}: {why}" for p, why in skipped)
        raise CheckpointError(
            f"no valid checkpoint in {self.directory}"
            + (f" ({len(skipped)} corrupt snapshot(s) skipped):{detail}" if skipped else "")
        )
