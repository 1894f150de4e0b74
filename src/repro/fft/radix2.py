"""Radix-2 complex FFT, implemented from scratch.

Anton computes its 32³ FFT with hardware butterflies on the geometry
cores; we reproduce the algorithm (iterative Cooley–Tukey with bit
reversal) as the kernel of the simulated distributed FFT.  Matches
NumPy's conventions: forward uses ``e^{-2 pi i jk/n}``, inverse scales
by ``1/n``.

The butterflies are vectorized over all batch axes, so transforming a
whole mesh plane is a handful of NumPy ops per stage.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fft1d", "ifft1d", "fft3d", "bit_reverse_permutation"]


def bit_reverse_permutation(n: int) -> np.ndarray:
    """Bit-reversal index permutation for a power-of-two length n."""
    if n & (n - 1) or n == 0:
        raise ValueError(f"length must be a power of two, got {n}")
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def _fft_last_axis(x: np.ndarray, inverse: bool) -> np.ndarray:
    n = x.shape[-1]
    out = np.ascontiguousarray(x, dtype=np.complex128)[..., bit_reverse_permutation(n)].copy()
    sign = 1.0 if inverse else -1.0
    size = 2
    while size <= n:
        half = size // 2
        tw = np.exp(sign * 2j * np.pi * np.arange(half) / size)
        # View as (..., n/size, size) blocks and butterfly in place.
        blocks = out.reshape(*out.shape[:-1], n // size, size)
        even = blocks[..., :half]
        odd = blocks[..., half:] * tw
        blocks[..., :half], blocks[..., half:] = even + odd, even - odd
        size *= 2
    if inverse:
        out /= n
    return out


def fft1d(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Forward FFT along ``axis`` (power-of-two length)."""
    x = np.moveaxis(np.asarray(x), axis, -1)
    return np.moveaxis(_fft_last_axis(x, inverse=False), -1, axis)


def ifft1d(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse FFT along ``axis`` (includes the 1/n factor)."""
    x = np.moveaxis(np.asarray(x), axis, -1)
    return np.moveaxis(_fft_last_axis(x, inverse=True), -1, axis)


def fft3d(x: np.ndarray) -> np.ndarray:
    """Forward 3-D FFT via three passes of 1-D transforms.

    This is exactly Anton's decomposition: "a straightforward
    decomposition into sets of one-dimensional FFTs oriented along each
    of the three axes" (Section 3.2.2).
    """
    out = np.asarray(x, dtype=np.complex128)
    for axis in (2, 1, 0):
        out = fft1d(out, axis=axis)
    return out
