"""Remez exchange algorithm for minimax polynomial approximation.

The paper (Section 4): "the Remez exchange algorithm is used to compute
the minimax polynomial on each segment, after which the coefficients are
adjusted to make the function continuous across segment boundaries."

This module implements the classic single-exchange Remez iteration,
returning coefficients in a *normalized* local variable ``t`` in [0, 1]
(the form the table hardware evaluates, since the segment index supplies
the offset).  :func:`remez_fit_rows` runs one exchange over many
intervals at once — every table segment is a row of one array — and
:func:`remez_fit` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["MinimaxFit", "MinimaxFits", "remez_fit", "remez_fit_rows", "polyval_ascending"]


def polyval_ascending(coeffs: np.ndarray, t: np.ndarray | float) -> np.ndarray:
    """Evaluate a polynomial with ascending-order coefficients by Horner.

    ``coeffs[..., k]`` multiplies ``t**k`` — the layout used by the table
    hardware (constant term first, as it is the widest datapath in
    Figure 4a).  Leading axes of ``coeffs`` broadcast against ``t``, so
    a ``(n, 1, degree+1)`` stack evaluates n polynomials on one grid.
    """
    t = np.asarray(t, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    shape = np.broadcast_shapes(coeffs.shape[:-1], t.shape)
    out = np.broadcast_to(coeffs[..., -1], shape).copy()
    for k in range(coeffs.shape[-1] - 2, -1, -1):
        out = out * t + coeffs[..., k]
    return out


@dataclass(frozen=True)
class MinimaxFit:
    """Result of a minimax fit on [a, b] in normalized t = (x-a)/(b-a)."""

    coeffs: np.ndarray  # ascending order, in t
    a: float
    b: float
    max_error: float
    iterations: int
    converged: bool

    def __call__(self, x: np.ndarray | float) -> np.ndarray:
        t = (np.asarray(x, dtype=np.float64) - self.a) / (self.b - self.a)
        return polyval_ascending(self.coeffs, t)


@dataclass(frozen=True)
class MinimaxFits:
    """Row-wise results of :func:`remez_fit_rows`, one row per interval."""

    coeffs: np.ndarray  # (n, degree+1), ascending order, in t
    max_error: np.ndarray  # (n,)
    iterations: np.ndarray  # (n,) int
    converged: np.ndarray  # (n,) bool


def _chebyshev_reference(k: int, grid: int) -> np.ndarray:
    """k distinct grid indices nearest the Chebyshev extrema on [0, 1].

    Rounding can merge neighbours on small grids; the missing points are
    filled from the unused indices, those above the last point first.
    """
    ref_t = 0.5 * (1.0 - np.cos(np.pi * np.arange(k) / (k - 1)))
    ref_idx = np.unique(np.clip((ref_t * (grid - 1)).round().astype(int), 0, grid - 1))
    if len(ref_idx) < k:
        unused = np.setdiff1d(np.arange(grid), ref_idx)
        fill = np.concatenate((unused[unused > ref_idx[-1]], unused[unused < ref_idx[-1]]))
        ref_idx = np.sort(np.concatenate((ref_idx, fill[: k - len(ref_idx)])))
    return ref_idx


def _solve_rows(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``a[i] @ x[i] = y[i]`` for every row; flag the singular ones.

    One stacked solve (one LAPACK ``gesv`` per matrix).  A singular
    matrix makes NumPy reject the whole stack, so only then are the rows
    solved one by one to find which failed; a failed row's solution is
    left zero and its flag False.
    """
    try:
        return np.linalg.solve(a, y[..., None])[..., 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.zeros_like(y)
        ok = np.ones(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i : i + 1], y[i : i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                ok[i] = False
        return x, ok


def _alternating_extrema(err: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pick k alternating-sign extremum indices from each row of ``err``.

    Maximal runs of constant sign alternate by construction; within each
    run we take the largest |err| (its first occurrence, as ``argmax``).
    If a row has more than k runs we keep the first contiguous window of
    k runs whose smallest extremum is largest (preserving alternation).
    Returns the ``(m, k)`` picks and a mask of the rows that have at
    least k runs (the others have degenerated; their picks are junk).
    """
    m, g = err.shape
    signs = np.sign(err)
    signs[signs == 0] = 1
    # Every row starts a run; a sign change starts another.
    new_run = np.ones((m, g), dtype=bool)
    new_run[:, 1:] = signs[:, 1:] != signs[:, :-1]
    flat_new = new_run.ravel()
    starts = np.flatnonzero(flat_new)
    run_row = starts // g
    n_runs = np.bincount(run_row, minlength=m)
    width = int(n_runs.max(initial=0))
    if width < k:
        return np.zeros((m, k), dtype=np.int64), np.zeros(m, dtype=bool)

    mag = np.abs(err).ravel()
    run_max = np.maximum.reduceat(mag, starts)
    # First element equal to its run's maximum (a NaN run: its first NaN).
    hit = (mag == run_max[np.cumsum(flat_new) - 1]) | np.isnan(mag)
    peaks = np.minimum.reduceat(np.where(hit, np.arange(m * g), m * g), starts)

    # Lay each row's peaks out left-aligned in an (m, width) array.
    pos = np.arange(len(starts)) - (np.cumsum(n_runs) - n_runs)[run_row]
    peak_idx = np.zeros((m, width), dtype=np.int64)
    peak_idx[run_row, pos] = peaks - run_row * g
    peak_mag = np.full((m, width), -np.inf)
    # A window holding a NaN never wins; padding never beats a real window.
    peak_mag[run_row, pos] = np.where(np.isnan(mag[peaks]), -np.inf, mag[peaks])
    window_min = sliding_window_view(peak_mag, k, axis=1).min(axis=-1)
    lo = np.argmax(window_min, axis=1)
    picks = np.take_along_axis(peak_idx, lo[:, None] + np.arange(k), axis=1)
    return picks, n_runs >= k


def remez_fit_rows(
    f: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    degree: int = 3,
    grid: int = 4000,
    max_iter: int = 40,
    rel_tol: float = 1e-10,
) -> MinimaxFits:
    """Minimax polynomial approximation of ``f`` on every ``[a[i], b[i]]``.

    Parameters
    ----------
    f:
        Vectorized, elementwise function of the original variable ``x``;
        it is called once, on the 1-D concatenation of every row's grid.
    a, b:
        1-D arrays of interval endpoints, ``a < b`` elementwise.
    degree:
        Polynomial degree (Anton tables use cubics).
    grid:
        Dense evaluation grid size for the exchange step; at least
        ``degree + 2``.
    max_iter:
        Exchange iteration cap; smooth kernels converge in a handful.
    rel_tol:
        Stop a row when its observed max error and levelled error E
        agree to this relative tolerance (equioscillation achieved).

    Every row iterates on its own: it stops when it converges, when its
    exchange degenerates or repeats its reference, or when its linear
    solve is singular (it then keeps its previous coefficients), and its
    ``iterations`` counts the exchanges it ran.  Each row's result is
    bit for bit the one-row call's on the same interval.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"a and b must be 1-D of one length, got {a.shape} and {b.shape}")
    if not np.all(b > a):
        bad = int(np.argmin(b > a))
        raise ValueError(f"need b > a, got [{a[bad]}, {b[bad]}]")
    k = degree + 2
    if grid < k:
        raise ValueError(f"grid of {grid} points cannot hold the {k} reference points of degree {degree}")
    n = len(a)
    ts = np.linspace(0.0, 1.0, grid)
    x = a[:, None] + ts * (b - a)[:, None]
    fx = np.asarray(f(x.ravel()), dtype=np.float64).reshape(n, grid)
    if not np.all(np.isfinite(fx)):
        raise ValueError("function not finite on the fit interval")

    # Chebyshev extrema as the initial reference (mapped to [0, 1]).
    ref_idx = np.tile(_chebyshev_reference(k, grid), (n, 1))
    alternation = (-1.0) ** np.arange(k)
    coeffs = np.zeros((n, degree + 1))
    iterations = np.full(n, max_iter)
    converged = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for it in range(1, max_iter + 1):
        if not len(active):
            break
        # Solve p(tr_i) + (-1)^i E = f(tr_i) for coeffs and E, per row.
        ref = ref_idx[active]
        tr = ts[ref]
        system = np.empty((len(active), k, k))
        system[..., 0] = 1.0
        system[..., 1 : degree + 1] = tr[..., None]
        np.multiply.accumulate(system[..., 1 : degree + 1], axis=-1, out=system[..., 1 : degree + 1])
        system[..., -1] = alternation
        sol, solved = _solve_rows(system, fx[active[:, None], ref])
        iterations[active[~solved]] = it
        active, ref, sol = active[solved], ref[solved], sol[solved]

        coeffs[active] = sol[:, :-1]
        level = np.abs(sol[:, -1])
        err = polyval_ascending(sol[:, None, :-1], ts) - fx[active]
        max_err = np.max(np.abs(err), axis=1)
        done = (max_err <= level * (1.0 + rel_tol)) | (
            (max_err - level) <= rel_tol * np.maximum(max_err, 1e-300)
        )
        converged[active[done]] = True
        iterations[active[done]] = it
        active, ref = active[~done], ref[~done]
        # Exchange: a row whose pick degenerates or repeats its
        # reference stops here.
        picks, alternates = _alternating_extrema(err[~done], k)
        moved = alternates & ~np.all(picks == ref, axis=1)
        iterations[active[~moved]] = it
        active = active[moved]
        ref_idx[active] = picks[moved]

    max_error = np.max(np.abs(polyval_ascending(coeffs[:, None, :], ts) - fx), axis=1)
    return MinimaxFits(coeffs=coeffs, max_error=max_error, iterations=iterations, converged=converged)


def remez_fit(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    degree: int = 3,
    grid: int = 4000,
    max_iter: int = 40,
    rel_tol: float = 1e-10,
) -> MinimaxFit:
    """Minimax polynomial approximation of ``f`` on [a, b].

    The one-row case of :func:`remez_fit_rows` (same parameters).

    Returns
    -------
    MinimaxFit
        Coefficients in normalized ``t``; ``max_error`` is measured on
        the dense grid.
    """
    fits = remez_fit_rows(f, np.array([a]), np.array([b]), degree=degree, grid=grid,
                          max_iter=max_iter, rel_tol=rel_tol)
    return MinimaxFit(
        coeffs=fits.coeffs[0],
        a=float(a),
        b=float(b),
        max_error=float(fits.max_error[0]),
        iterations=int(fits.iterations[0]),
        converged=bool(fits.converged[0]),
    )
