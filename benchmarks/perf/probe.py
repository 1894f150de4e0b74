"""Host-drift probe: a tiny fixed piece of work timed next to every cycle.

On a shared 2-vCPU host the speed of *everything* drifts by roughly
+-10 % as a common mode over tens of seconds (neighbour load, frequency
steps, steal time).  A benchmark that reports raw wall time therefore
cannot tell a 5 % regression from the weather.  The remedy used here is
the one a lab uses for a drifting instrument: measure a reference
standard alongside every sample and report the ratio.

:func:`probe` is that standard — a pure-Python integer loop, a NumPy
expression over arrays that stay resident in L2, and one streaming
NumPy pass over 16 MB — and it is **frozen**: its constants must never change, because every normalised
number ever reported by this benchmark is expressed in "seconds on the
reference host", i.e. raw seconds x ``PROBE_REF_S`` / measured probe
seconds.  Changing the probe silently rescales every metric.

The probe runs in the same thread as the work it normalises,
immediately before each cycle, so both see the same host conditions.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

import numpy as np

__all__ = [
    "PROBE_REF_S",
    "NOISY_CV",
    "probe",
    "probe_block",
    "host_factor",
    "normalise",
    "probe_cv",
    "llc_bytes",
    "memcpy_gb_per_s",
]

#: Probe duration on the reference host: the rounded median of the
#: probes taken *inside* full-size windows (caches cold after a cycle;
#: run back to back the same probe takes 3.4 ms) on the 2-vCPU Xeon @
#: 2.10 GHz sizing host, CPython 3.11, NumPy 2.4.  A committed constant,
#: not a measurement: it only fixes the unit.
PROBE_REF_S = 0.005000

#: A window whose probe coefficient of variation exceeds this is
#: re-measured once and, if still above, flagged ``noisy_host``.
NOISY_CV = 0.30

# -- frozen probe constants (do not edit; see module docstring) -------------
_LOOP_ITERS = 12_000
_VEC_LEN = 16_384  # 128 KiB of float64 per array: L2-resident
_VEC_REPS = 48
_STREAM_LEN = 2_000_000  # 16 MB per array: streams through the caches
_A = np.linspace(0.5, 1.5, _VEC_LEN)
_B = np.empty_like(_A)
_S = np.linspace(0.5, 1.5, _STREAM_LEN)
_T = np.empty_like(_S)


def probe() -> float:
    """Run the frozen reference work once; returns its wall seconds.

    Three parts, because the program's time is split the same three
    ways: interpreter dispatch, cache-resident NumPy arithmetic, and
    NumPy passes over arrays far larger than L2.  (Sized from a sweep on
    the 2-vCPU host: across twelve 20-cycle windows of ``machine64`` the
    streaming part alone tracked the median cycle with r = 0.78, the
    L2 part with 0.72, the Python loop with 0.56; normalising by the sum
    cut the spread of the median cycle from 5.5 % to 3.5 %.)
    """
    t0 = perf_counter()
    x = 0
    for i in range(_LOOP_ITERS):
        x = (x * 31 + i) & 0xFFFF
    a, b = _A, _B
    for _ in range(_VEC_REPS):
        np.multiply(a, 1.0000001, out=b)
        np.add(b, a, out=b)
        np.sqrt(b, out=b)
    np.multiply(_S, 1.0000001, out=_T)
    return perf_counter() - t0


def probe_block(n: int = 5) -> list[float]:
    """``n`` consecutive probes (brackets a one-off phase)."""
    return [probe() for _ in range(n)]


# -- normalisation arithmetic -------------------------------------------------


def host_factor(probes) -> float:
    """Host slowness relative to the reference host (1.0 = reference).

    The *median* probe, not the sum: a scheduler stall that lands on one
    3 ms probe can inflate it twentyfold, which would move a summed
    estimate by tens of percent, while the same stall inside seconds of
    measured work is noise.  The median ignores it.
    """
    probes = list(probes)
    if not probes or min(probes) <= 0.0:
        raise ValueError("need at least one positive probe timing")
    return statistics.median(probes) / PROBE_REF_S


def normalise(raw_s: float, probes) -> float:
    """Raw seconds -> reference-host seconds for an interval.

    ``probes`` are the probe timings taken alongside the interval.
    """
    return raw_s / host_factor(probes)


def probe_cv(probes) -> float:
    """Robust relative spread of a window's probes (host steadiness).

    Interquartile range scaled to a standard deviation (IQR / 1.349)
    over the median — equal to the coefficient of variation for normal
    data, but blind to the isolated stalls described above.
    """
    probes = list(probes)
    if len(probes) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(probes, n=4)
    return (q3 - q1) / 1.349 / statistics.median(probes)


# -- host description ---------------------------------------------------------


def llc_bytes() -> int:
    """Size of the last-level cache as the kernel reports it (0: unknown)."""
    best_level, best = -1, 0
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = os.listdir(base)
    except OSError:
        return 0
    for entry in entries:
        try:
            with open(f"{base}/{entry}/level") as f:
                level = int(f.read())
            with open(f"{base}/{entry}/size") as f:
                text = f.read().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text[:-1] if text[-1:] in "KMG" else text
        if level > best_level and digits.isdigit():
            best_level, best = level, int(digits) * mult
    return best


def _mem_available_bytes() -> int:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return 0


def memcpy_gb_per_s(reps: int = 3) -> tuple[float, int, int]:
    """Measured copy bandwidth: ``(GB/s, array_bytes, llc_bytes)``.

    Each of the two arrays is four times the last-level cache, as a
    bandwidth measurement requires, unless that would take more than a
    fifth of available memory — then the largest size that fits is used
    and the caller sees both sizes.  Bytes moved per copy are counted as
    read + write (2 x array size); the best of ``reps`` is reported
    because a roofline is a ceiling.
    """
    llc = llc_bytes()
    want = 4 * llc if llc else 256 << 20
    avail = _mem_available_bytes()
    if avail:
        want = min(want, avail // 10)
    n = max(want // 8, 1 << 20)
    src = np.ones(n, dtype=np.float64)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    best = float("inf")
    for _ in range(reps):
        t0 = perf_counter()
        np.copyto(dst, src)
        best = min(best, perf_counter() - t0)
    nbytes = int(src.nbytes)
    del src, dst
    return 2.0 * nbytes / best / 1e9, nbytes, llc
