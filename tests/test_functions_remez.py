"""Unit tests for the Remez exchange minimax fitter."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ewald import choose_sigma
from repro.ewald.kernels import real_space_force_kernel
from repro.forcefield.nonbonded import build_kernel_tables
from repro.functions import polyval_ascending, remez_fit_rows
from repro.functions.remez import _alternating_extrema
from repro.util import COULOMB

SRC = Path(__file__).resolve().parents[1] / "src"


class TestPolyvalAscending:
    def test_matches_manual_cubic(self):
        coeffs = np.array([1.0, -2.0, 0.5, 3.0])
        t = np.linspace(-1, 2, 7)
        expected = 1.0 - 2.0 * t + 0.5 * t**2 + 3.0 * t**3
        np.testing.assert_allclose(polyval_ascending(coeffs, t), expected)

    def test_scalar_input(self):
        assert polyval_ascending(np.array([2.0, 1.0]), 3.0) == 5.0

    def test_stacked_coefficients_broadcast_against_t(self):
        coeffs = np.array([[1.0, -2.0, 0.5], [0.25, 3.0, -1.0]])
        t = np.linspace(0, 1, 9)
        rows = polyval_ascending(coeffs[:, None, :], t)
        assert rows.shape == (2, 9)
        for c, row in zip(coeffs, rows):
            np.testing.assert_array_equal(row, polyval_ascending(c, t))


def fit_one(f, a, b, **kw):
    """One interval as a one-row batch: ``(coeffs, max_error, iterations, converged)``."""
    fits = remez_fit_rows(f, np.array([a]), np.array([b]), **kw)
    return fits.coeffs[0], fits.max_error[0], fits.iterations[0], fits.converged[0]


def fit_values(f, a, b, xs, **kw):
    """The one-row fit evaluated at ``xs`` (in the original variable)."""
    coeffs = fit_one(f, a, b, **kw)[0]
    return polyval_ascending(coeffs, (np.asarray(xs) - a) / (b - a))


class TestRemezFit:
    """One interval, fitted as a one-row batch."""

    def test_exact_for_polynomial_of_same_degree(self):
        xs = np.linspace(0, 2, 50)
        vals = fit_values(lambda x: 2 + 3 * x - x**2, 0.0, 2.0, xs, degree=2)
        np.testing.assert_allclose(vals, 2 + 3 * xs - xs**2, atol=1e-8)
        assert fit_one(lambda x: 2 + 3 * x - x**2, 0.0, 2.0, degree=2)[1] < 1e-8

    def test_exp_cubic_accuracy(self):
        _, max_error, _, converged = fit_one(np.exp, 0.0, 1.0, degree=3)
        # Minimax cubic for e^x on [0,1] has max error ~5.5e-4.
        assert max_error < 1e-3
        assert converged

    def test_minimax_beats_taylor(self):
        xs = np.linspace(0, 1, 500)
        taylor = 1 + xs + xs**2 / 2 + xs**3 / 6
        assert fit_one(np.exp, 0.0, 1.0, degree=3)[1] < np.max(np.abs(taylor - np.exp(xs)))

    def test_equioscillation(self):
        # The error curve should attain near-equal extrema of alternating
        # sign at degree+2 points.
        xs = np.linspace(0, 1.5, 3000)
        err = fit_values(np.sin, 0.0, 1.5, xs, degree=3) - np.sin(xs)
        assert np.max(err) == pytest.approx(-np.min(err), rel=0.05)

    def test_rapidly_varying_kernel(self):
        # r^-14-like kernel over a narrow tiered segment, as used by the
        # vdW tables (segment widths in u are ~1e-3 there).
        us = np.linspace(0.040, 0.042, 200)
        vals = fit_values(lambda u: u**-7.0, 0.040, 0.042, us, degree=3)
        rel = np.abs(vals - us**-7.0) / us**-7.0
        assert np.max(rel) < 1e-4

    def test_higher_degree_more_accurate(self):
        errs = [fit_one(np.exp, 0.0, 1.0, degree=d)[1] for d in (1, 2, 3, 4)]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            fit_one(np.exp, 1.0, 1.0)

    def test_nonfinite_function_rejected(self):
        def diverging(x):
            with np.errstate(divide="ignore"):
                return 1.0 / x

        with pytest.raises(ValueError):
            fit_one(diverging, 0.0, 1.0)

    def test_normalized_coefficients(self):
        # coeffs are in t = (x-a)/(b-a); constant term is f-ish at a.
        coeffs = fit_one(np.exp, 2.0, 3.0, degree=3)[0]
        assert coeffs[0] == pytest.approx(np.exp(2.0), rel=1e-3)


SMALL_GRID_CHILD = """
import numpy as np
from repro.functions import remez_fit_rows

def fit(degree, grid):
    return remez_fit_rows(np.exp, np.array([0.0]), np.array([1.0]), degree=degree, grid=grid)

for degree, grid in ((5, 7), (8, 12), (3, 6), (0, 2)):
    fits = fit(degree, grid)
    assert np.all(np.isfinite(fits.coeffs)) and fits.iterations[0] >= 1
    print("returned", degree, grid, flush=True)
# grid == degree + 2: every grid point is a reference point.
assert fit(5, 7).max_error[0] < 1e-6
for degree, grid in ((5, 6), (3, 4), (1, 2)):
    try:
        fit(degree, grid)
    except ValueError as e:
        assert "reference points" in str(e)
    else:
        raise AssertionError(f"no ValueError for degree={degree}, grid={grid}")
    print("rejected", degree, grid, flush=True)
"""


def test_small_grids_return_or_reject():
    """Rounded Chebyshev references with merged points on tiny grids.

    A grid too small for the reference is a ``ValueError``; any other
    grid returns a fit.  A bad refill of the reference loops forever,
    so the calls run in a child process: a regression fails instead of
    stalling the suite.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    with subprocess.Popen(
        [sys.executable, "-c", SMALL_GRID_CHILD], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            pytest.fail(f"a small-grid Remez fit did not return within 60 s; before it: {out!r}")
    assert proc.returncode == 0, err


def _kernel_rows():
    """The cutoff-9 electrostatic-force and r^-14 dispersion segments.

    Their fits stop after 1, 2 and 3 exchanges, so a batch of them has
    rows leaving the iteration at every step.
    """
    cutoff = 9.0
    sigma = choose_sigma(cutoff, 1e-5)
    tables = build_kernel_tables(cutoff, sigma)
    r2max, u_floor = cutoff**2, (1.0 / cutoff) ** 2

    def elec_f(u):
        return real_space_force_kernel(np.maximum(u, u_floor) * r2max, sigma) / COULOMB

    def lj12_f(u):
        return 12.0 / (np.maximum(u, u_floor) * r2max) ** 7

    for name, f in (("elec_f", elec_f), ("lj12_f", lj12_f)):
        table = tables.tables[name]
        yield f, table.seg_starts, table.seg_starts + table.seg_widths


def _assert_rows_match_one_row_calls(f, a, b, fits, **kw):
    for i in range(len(a)):
        coeffs, max_error, iterations, converged = fit_one(f, float(a[i]), float(b[i]), **kw)
        assert coeffs.tobytes() == fits.coeffs[i].tobytes(), i
        assert max_error == fits.max_error[i]
        assert iterations == fits.iterations[i]
        assert converged == fits.converged[i]


class TestBatchedRows:
    def test_rows_equal_one_row_calls_bit_for_bit(self):
        stops = set()
        for f, a, b in _kernel_rows():
            fits = remez_fit_rows(f, a, b, grid=257)
            _assert_rows_match_one_row_calls(f, a, b, fits, grid=257)
            stops |= set(fits.iterations.tolist())
        assert {1, 2, 3} <= stops

    def test_singular_row_keeps_its_previous_coefficients(self, monkeypatch):
        # No real reference matrix is exactly singular, so a stand-in
        # solve declares singular every system whose reference holds
        # grid node 127 — about a quarter of the electrostatic rows at
        # their second exchange, none at their first.
        f, a, b = next(_kernel_rows())
        clean = remez_fit_rows(f, a, b, grid=257)
        node = np.linspace(0.0, 1.0, 257)[127]
        real_solve = np.linalg.solve

        def solve(m, y):
            if np.any(m[..., 1] == node):
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(m, y)

        monkeypatch.setattr(np.linalg, "solve", solve)
        fits = remez_fit_rows(f, a, b, grid=257)
        _assert_rows_match_one_row_calls(f, a, b, fits, grid=257)
        unchanged = (
            np.all(fits.coeffs == clean.coeffs, axis=1)
            & (fits.iterations == clean.iterations)
            & (fits.converged == clean.converged)
        )
        assert 0 < unchanged.sum() < len(a)
        for i in np.flatnonzero(~unchanged):
            assert not fits.converged[i]
            coeffs, max_error, _, _ = fit_one(
                f, float(a[i]), float(b[i]), grid=257, max_iter=int(fits.iterations[i]) - 1
            )
            assert fits.coeffs[i].tobytes() == coeffs.tobytes()
            assert fits.max_error[i] == max_error

    def test_nonfinite_row_rejects_the_batch(self):
        def diverging(x):
            with np.errstate(divide="ignore"):
                return 1.0 / x

        with pytest.raises(ValueError, match="not finite"):
            remez_fit_rows(diverging, np.array([1.0, 0.0, 2.0]), np.array([2.0, 1.0, 3.0]))

    def test_empty_interval_in_batch_rejected(self):
        with pytest.raises(ValueError, match="b > a"):
            remez_fit_rows(np.exp, np.array([0.0, 1.0]), np.array([1.0, 1.0]))


def _loop_alternating_extrema(err, k):
    """The per-row reference: one row at a time, Python loops."""
    signs = np.sign(err)
    signs[signs == 0] = 1
    change = np.nonzero(np.diff(signs))[0] + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(err)]))
    if len(starts) < k:
        return None
    peaks = np.array([s + int(np.argmax(np.abs(err[s:e]))) for s, e in zip(starts, ends)])
    peak_mags = np.abs(err[peaks])
    best_lo, best_val = 0, -np.inf
    for lo in range(len(peaks) - k + 1):
        v = float(np.min(peak_mags[lo : lo + k]))
        if v > best_val:
            best_val, best_lo = v, lo
    return peaks[best_lo : best_lo + k]


class TestAlternatingExtrema:
    def test_rows_match_the_per_row_loop(self):
        # Coarse integer values make ties (within a run and between
        # windows), zeros and long sign runs common; some rows have
        # fewer than k runs, some exactly k, most more.
        rng = np.random.default_rng(11)
        k = 5
        err = rng.integers(-3, 4, size=(300, 40)).astype(np.float64)
        err[:20] = np.abs(err[:20])  # one run: degenerate
        err[20:40] = (np.abs(err[20:40]) + 1) * np.repeat([-1, 1, -1, 1, -1], 8)  # exactly k
        err[45, 7] = np.nan
        err[50, [3, 30]] = np.inf, -np.inf
        picks, ok = _alternating_extrema(err, k)
        assert not ok[:20].any() and ok[20:40].all()
        for row, p, good in zip(err, picks, ok):
            ref = _loop_alternating_extrema(row, k)
            assert good == (ref is not None)
            if good:
                np.testing.assert_array_equal(p, ref)

    def test_no_rows(self):
        picks, ok = _alternating_extrema(np.zeros((0, 9)), 5)
        assert picks.shape == (0, 5) and ok.shape == (0,)
