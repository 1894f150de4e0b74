"""Streaming JSONL energy logs.

Long runs should emit observables incrementally instead of holding
them in memory: each :class:`EnergyRecord` is
one JSON line, flushed as written, so a SIGKILL loses at most the
record being written.  ``json.dumps`` serializes floats via ``repr``,
which round-trips float64 exactly — the log is as bit-faithful as the
binary formats.

A killed run may have logged records past its last durable checkpoint.
Every resume (:class:`~repro.io.session.RunSession`) first cuts the log
back to the restored step with :func:`truncate_energy_log` and then
appends, so the finished log is byte-identical to an uninterrupted
run's.  :func:`read_energy_log` additionally tolerates a log that was
never healed: a torn final line is dropped and overlapping step ranges
collapse to one record per step (the resumed trajectory is bitwise the
original, so duplicates are identical).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

__all__ = ["EnergyRecord", "EnergyLogWriter", "read_energy_log", "truncate_energy_log"]

_FIELDS = ("step", "time_fs", "kinetic", "potential", "temperature")


@dataclass(frozen=True)
class EnergyRecord:
    """One row of the energy log."""

    step: int
    time_fs: float
    kinetic: float
    potential: float
    temperature: float

    @property
    def total(self) -> float:
        return self.kinetic + self.potential


class EnergyLogWriter:
    """Appends energy records to a JSONL file, flushing each line."""

    def __init__(self, path, append: bool = False):
        self.path = os.fspath(path)
        self._f = open(self.path, "a" if append else "w")

    def write(self, record) -> None:
        row = {name: getattr(record, name) for name in _FIELDS}
        self._f.write(json.dumps(row) + "\n")
        self._f.flush()

    def close(self) -> None:
        if not self._f.closed:
            self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def truncate_energy_log(path, resume_step: int) -> int:
    """Drop records past ``resume_step`` (and any torn tail) in place.

    A run resuming from a checkpoint at ``resume_step`` will re-log
    every later record with identical bits, so cutting the file at the
    first line whose step exceeds ``resume_step`` — or at the first
    unparseable (torn) line — makes the finished log **byte-identical**
    to an uninterrupted run's, not merely record-identical after the
    read-back dedupe.  Returns the number of records kept.  A missing
    file is fine (nothing was logged yet): returns 0.
    """
    try:
        f = open(path, "r+b")
    except FileNotFoundError:
        return 0
    with f:
        keep_end = 0
        kept = 0
        for line in f:
            try:
                row = json.loads(line)
                step = int(row["step"])
            except (json.JSONDecodeError, KeyError, ValueError, TypeError):
                break  # torn tail from a crash mid-write
            if not line.endswith(b"\n") or step > int(resume_step):
                break
            keep_end += len(line)
            kept += 1
        f.seek(keep_end)
        f.truncate(keep_end)
    return kept


def read_energy_log(path) -> list:
    """Load a JSONL energy log as :class:`EnergyRecord` objects.

    Tolerates a torn final line (crash mid-write); overlapping step
    ranges from interrupted-then-resumed runs collapse to one record
    per step (last occurrence wins).
    """
    by_step: dict[int, EnergyRecord] = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a crash mid-write
            rec = EnergyRecord(
                step=int(row["step"]),
                time_fs=float(row["time_fs"]),
                kinetic=float(row["kinetic"]),
                potential=float(row["potential"]),
                temperature=float(row["temperature"]),
            )
            by_step[rec.step] = rec
    return [by_step[s] for s in sorted(by_step)]
