"""Radix-2 FFTs on the one line transform of :mod:`repro.kernels.fft`.

Anton computes its 32³ FFT with hardware butterflies on the geometry
cores; the engines' mesh solve runs the same per-axis line transforms
(:func:`repro.kernels.fft.dif` / :func:`~repro.kernels.fft.dit`, one
exact twiddle table).  These are those lines in NumPy's conventions:
natural order in and out, forward ``e^{-2 pi i jk/n}``, inverse scaled
by ``1/n`` (a power of two, so the scaling is exact and each output is
the unnormalized line's value times ``1/n``).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.fft import bit_reverse_permutation, dif, dit, irfft_last, rfft_last, stage_table

__all__ = ["fft1d", "ifft1d", "rfft1d", "irfft1d", "bit_reverse_permutation"]


def _planes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x)
    return np.array(x.real, dtype=np.float64), np.array(x.imag, dtype=np.float64)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def fft1d(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Forward FFT along ``axis`` (power-of-two length)."""
    re, im = _planes(x)
    n = re.shape[axis]
    dif(re, im, axis, stage_table(max(n, 2)))
    rev = bit_reverse_permutation(n)
    return _complex(np.take(re, rev, axis=axis), np.take(im, rev, axis=axis))


def ifft1d(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse FFT along ``axis`` (includes the 1/n factor)."""
    x = np.asarray(x)
    n = x.shape[axis]
    re, im = _planes(np.take(x, bit_reverse_permutation(n), axis=axis))
    dit(re, im, axis, stage_table(max(n, 2)))
    return _complex(re * (1.0 / n), im * (1.0 / n))


def rfft1d(x: np.ndarray) -> np.ndarray:
    """Half spectrum (``n/2 + 1`` points) of real lines along the last axis."""
    x = np.asarray(x, dtype=np.float64)
    return _complex(*rfft_last(x, stage_table(x.shape[-1])))


def irfft1d(x: np.ndarray) -> np.ndarray:
    """Real lines of ``2 (m - 1)`` points from their ``m``-point half spectrum
    along the last axis (includes the 1/n factor)."""
    re, im = _planes(x)
    n = 2 * (re.shape[-1] - 1)
    return irfft_last(re, im, stage_table(n)) * (1.0 / n)
