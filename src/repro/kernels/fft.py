"""One FFT: the radix-2 line transforms every mesh solve runs.

The mesh solve of every engine (``GaussianSplitEwald.solve`` /
``solve_stack``), the simulated distributed transform
(:class:`~repro.fft.DistributedFFT3D`) and the public 1-D transforms
(:mod:`repro.fft.radix2`) are built from the two line transforms here,
their real-input forms and one table of twiddle factors.  This module is
the NumPy form; ``rk_mesh_solve`` in ``_kernels.c`` is its C twin, the
same element-wise IEEE ``+ - *`` in the same order, so the two tiers
agree bit for bit (DESIGN.md, "One FFT").

The contract, per line of ``n`` points (a power of two):

* **Forward** (:func:`dif`): decimation in frequency, natural order in,
  bit-reversed order out, unnormalized.  Stages run ``h = n/2 .. 1``;
  the butterfly of ``(a, c)`` at index ``j`` of a block is
  ``a <- a + c``, ``c <- (a - c) * w`` with ``w = W_{2h}[j]``, written
  out as ``(dr*wr - di*wi, dr*wi + di*wr)`` and skipped at ``j = 0``.
* **Inverse** (:func:`dit`): decimation in time with conjugate
  twiddles, bit-reversed in, natural out, unnormalized (a round trip
  scales by ``n``).  Stages run ``h = 1 .. n/2``; ``c <- c * conj(w)``
  (``(cr*wr + ci*wi, ci*wr - cr*wi)``, skipped at ``j = 0``), then
  ``a <- a + c``, ``c <- a - c``.
* **Twiddles** (:func:`stage_table`): ``W_{2h}[j] = exp(-2 pi i j / 2h)``
  is the double nearest the exact value, found in decimal arithmetic
  from octant-reduced angles, so its bits depend neither on libm nor on
  NumPy.  Stage ``h``'s ``h`` twiddles sit at ``[h - 1, 2h - 1)`` of one
  table, the same entries for every line length.

A real line of ``N`` points is transformed as the half-length complex
line ``z[k] = x[2k] + i x[2k+1]`` (:func:`rfft_last` / :func:`irfft_last`),
giving the ``N/2 + 1`` points of the half spectrum.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

__all__ = [
    "bit_reverse_permutation",
    "dif",
    "dit",
    "irfft_last",
    "mesh_energy",
    "mesh_solve",
    "rfft_last",
    "stage_table",
]

#: Decimal digits the twiddles are evaluated to before rounding to double.
_DIGITS = 50


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


def _decimal_pi() -> Decimal:
    """pi to the context precision (the ``decimal`` documentation's recipe)."""
    three = Decimal(3)
    lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    return +s


def _cos_sin(num: int, den: int) -> tuple[float, float]:
    """``(cos, sin)`` of ``2 pi num / den`` for ``0 <= num / den <= 1/8``,
    each the double nearest the exact value."""
    if num == 0:
        return 1.0, 0.0
    with localcontext() as ctx:
        ctx.prec = _DIGITS + 10
        x = 2 * _decimal_pi() * num / den
        x2, tiny = x * x, Decimal(10) ** -(_DIGITS + 5)
        cos = sin = Decimal(0)
        term_c, term_s, k = Decimal(1), x, 0
        while abs(term_c) > tiny or abs(term_s) > tiny:
            cos, sin = cos + term_c, sin + term_s
            k += 2
            term_c = -term_c * x2 / (k * (k - 1))
            term_s = -term_s * x2 / (k * (k + 1))
        # float(Decimal) rounds the decimal string correctly.
        return float(cos), float(sin)


@lru_cache(maxsize=None)
def _exact_row(n: int) -> tuple[tuple[float, float], ...]:
    """``(cos, sin)`` of ``2 pi j / n`` for ``j < n/2``.

    Octant-reduced with exact integer arithmetic, so only angles ``phi``
    in ``[0, pi/4]`` are evaluated, and ``cos``/``sin`` at multiples of
    ``pi/2`` are exactly 1 and +0.0.
    """
    out = []
    for j in range(n // 2):
        octant = 8 * j // n  # theta in [octant, octant + 1) * pi/4
        if octant == 0:  # phi = theta
            c, s = _cos_sin(j, n)
        elif octant == 1:  # phi = pi/2 - theta
            s, c = _cos_sin(n // 4 - j, n)
        elif octant == 2:  # phi = theta - pi/2
            s, c = _cos_sin(j - n // 4, n)
            c = -c if c else 0.0
        else:  # phi = pi - theta
            c, s = _cos_sin(n // 2 - j, n)
            c = -c
        out.append((c, s))
    return tuple(out)


@lru_cache(maxsize=None)
def stage_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(wr, wi)``, each ``n - 1`` doubles: stage ``h``'s twiddles
    ``exp(-2 pi i j / 2h)``, ``j < h``, at ``[h - 1, 2h - 1)`` for every
    stage ``h = 1, 2, .. n/2`` of a length-``n`` line.

    Entry ``h - 1 + j`` is the same double for every ``n`` that has stage
    ``h``, so the largest axis's table serves all three.  Built once per
    size per process (read-only arrays).
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"length must be a power of two >= 2, got {n}")
    row = _exact_row(n)
    wr, wi = np.empty(n - 1), np.empty(n - 1)
    h = 1
    while h < n:
        for j in range(h):
            c, s = row[j * (n // (2 * h))]
            wr[h - 1 + j] = c
            wi[h - 1 + j] = -s if s else 0.0
        h *= 2
    wr.flags.writeable = wi.flags.writeable = False
    return wr, wi


def _lines(a: np.ndarray, axis: int) -> np.ndarray:
    """A C-contiguous array as ``(batch, n, lines)``: point p of line l at ``[:, p, l]``."""
    axis %= a.ndim
    s = a.shape
    return a.reshape(math.prod(s[:axis]), s[axis], math.prod(s[axis + 1:]))


def dif(re: np.ndarray, im: np.ndarray, axis: int, tw) -> None:
    """Forward line transform along ``axis``, in place, bit-reversed out.

    ``re`` / ``im`` are C-contiguous float64 planes of one complex array;
    ``tw`` is a :func:`stage_table` at least as long as the axis.
    """
    wr, wi = tw
    xr, xi = _lines(re, axis), _lines(im, axis)
    b, n, L = xr.shape
    h = n // 2
    while h >= 1:
        vr = xr.reshape(b, n // (2 * h), 2, h, L)
        vi = xi.reshape(b, n // (2 * h), 2, h, L)
        ar, cr, ai, ci = vr[:, :, 0], vr[:, :, 1], vi[:, :, 0], vi[:, :, 1]
        dr, di = ar - cr, ai - ci
        ar += cr
        ai += ci
        cr[:, :, 0] = dr[:, :, 0]
        ci[:, :, 0] = di[:, :, 0]
        if h > 1:
            c, s = wr[h : 2 * h - 1, None], wi[h : 2 * h - 1, None]
            d1r, d1i = dr[:, :, 1:], di[:, :, 1:]
            cr[:, :, 1:] = d1r * c - d1i * s
            ci[:, :, 1:] = d1r * s + d1i * c
        h //= 2


def dit(re: np.ndarray, im: np.ndarray, axis: int, tw) -> None:
    """Inverse line transform along ``axis``, in place: bit-reversed in,
    natural out, unnormalized."""
    wr, wi = tw
    xr, xi = _lines(re, axis), _lines(im, axis)
    b, n, L = xr.shape
    h = 1
    while h < n:
        vr = xr.reshape(b, n // (2 * h), 2, h, L)
        vi = xi.reshape(b, n // (2 * h), 2, h, L)
        ar, cr, ai, ci = vr[:, :, 0], vr[:, :, 1], vi[:, :, 0], vi[:, :, 1]
        if h > 1:
            c, s = wr[h : 2 * h - 1, None], wi[h : 2 * h - 1, None]
            c1r, c1i = cr[:, :, 1:], ci[:, :, 1:]
            tr = c1r * c + c1i * s
            c1i[...] = c1i * c - c1r * s
            c1r[...] = tr
        tr, ti = ar - cr, ai - ci
        ar += cr
        ai += ci
        cr[...] = tr
        ci[...] = ti
        h *= 2


def rfft_last(q: np.ndarray, tw) -> tuple[np.ndarray, np.ndarray]:
    """Half spectrum ``(re, im)`` of real lines along the last axis.

    ``N`` points give ``N/2 + 1`` (natural order).  The half-length line
    ``z[k] = q[2k] + i q[2k+1]`` is transformed by :func:`dif`; then, with
    ``A = Z[k]``, ``B = Z[m - k]``, ``m = N/2`` and ``w = W_N[k]``,
    ``X[k] = 0.5 * (E + w*O)`` for ``E = (Ar + Br, Ai - Bi)``,
    ``O = (Ai + Bi, Br - Ar)``; ``X[0] = Z0r + Z0i`` and
    ``X[m] = Z0r - Z0i`` (imaginary parts ``+0.0``).
    """
    n = q.shape[-1]
    m = n // 2
    zr, zi = np.ascontiguousarray(q[..., 0::2]), np.ascontiguousarray(q[..., 1::2])
    dif(zr, zi, -1, tw)
    rev = bit_reverse_permutation(m)
    hr = np.empty(q.shape[:-1] + (m + 1,))
    hi = np.empty_like(hr)
    hr[..., 0] = zr[..., 0] + zi[..., 0]
    hr[..., m] = zr[..., 0] - zi[..., 0]
    hi[..., 0] = hi[..., m] = 0.0
    if m > 1:
        a, b = rev[1:m], rev[m - 1 : 0 : -1]
        ar, ai, br, bi = zr[..., a], zi[..., a], zr[..., b], zi[..., b]
        er, ei, or_, oi = ar + br, ai - bi, ai + bi, br - ar
        c, s = tw[0][m : 2 * m - 1], tw[1][m : 2 * m - 1]
        hr[..., 1:m] = 0.5 * (er + (c * or_ - s * oi))
        hi[..., 1:m] = 0.5 * (ei + (c * oi + s * or_))
    return hr, hi


def irfft_last(hr: np.ndarray, hi: np.ndarray, tw) -> np.ndarray:
    """Real lines from their half spectrum along the last axis, unnormalized.

    The inverse of :func:`rfft_last` times ``N``: with ``A = X[k]``,
    ``B = X[m - k]``, ``D = (Ar - Br, Ai + Bi)``,
    ``O = D * conj(W_N[k])`` and ``E = (Ar + Br, Ai - Bi)``,
    ``Z[k] = (Er - Oi, Ei + Or)``; ``Z[0] = (X0r + Xmr, X0r - Xmr)`` (the
    imaginary parts of ``X[0]`` and ``X[m]`` are not read).  Then
    :func:`dit` of ``Z`` and ``out[2j] = Re z[j]``, ``out[2j+1] = Im z[j]``.
    """
    m = hr.shape[-1] - 1
    rev = bit_reverse_permutation(m)
    zr = np.empty(hr.shape[:-1] + (m,))
    zi = np.empty_like(zr)
    zr[..., 0] = hr[..., 0] + hr[..., m]
    zi[..., 0] = hr[..., 0] - hr[..., m]
    if m > 1:
        ar, ai = hr[..., 1:m], hi[..., 1:m]
        br, bi = hr[..., m - 1 : 0 : -1], hi[..., m - 1 : 0 : -1]
        er, ei, dr, di = ar + br, ai - bi, ar - br, ai + bi
        c, s = tw[0][m : 2 * m - 1], tw[1][m : 2 * m - 1]
        or_ = dr * c + di * s
        oi = di * c - dr * s
        zr[..., rev[1:m]] = er - oi
        zi[..., rev[1:m]] = ei + or_
    dit(zr, zi, -1, tw)
    out = np.empty(hr.shape[:-1] + (2 * m,))
    out[..., 0::2] = zr
    out[..., 1::2] = zi
    return out


def mesh_energy(q: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``0.5 * sum(q * phi)`` per lane of ``(lanes, ...)`` meshes, in one order.

    Eight sequential sums ``a[j] = q[j]*phi[j] + q[8+j]*phi[8+j] + ...``
    (a cumulative sum, so each is strictly left to right), then
    ``((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))``: what
    ``rk_mesh_energy`` adds, whatever NumPy's own ``sum`` would do.
    """
    a = np.cumsum((q * phi).reshape(len(q), -1, 8), axis=1)[:, -1]
    a = [a[:, j] for j in range(8)]
    return 0.5 * (((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7])))


def mesh_solve(phi: np.ndarray, energy: np.ndarray, q: np.ndarray, green: np.ndarray, tw) -> None:
    """``phi <- F⁻¹(green · F q)`` for real ``(lanes, mx, my, mz)`` meshes,
    and each lane's ``energy`` (:func:`mesh_energy`).

    Forward: :func:`rfft_last` along z, then :func:`dif` along y and x,
    leaving x and y bit-reversed; ``green`` is the real ``(mx, my, mz/2+1)``
    Green's function in that order.  Inverse: :func:`dit` along x and y,
    :func:`irfft_last` along z.  Unnormalized: ``phi`` is the convolution
    itself.  Every lane is independent, so a lane's bits do not depend on
    how many lanes share the call.
    """
    hr, hi = rfft_last(q, tw)
    dif(hr, hi, -2, tw)
    dif(hr, hi, -3, tw)
    hr *= green
    hi *= green
    dit(hr, hi, -3, tw)
    dit(hr, hi, -2, tw)
    phi[...] = irfft_last(hr, hi, tw)
    energy[...] = mesh_energy(q, phi)
