"""Property tests: the one FFT, the mesh solve of every engine.

``mesh_solve`` is one primitive with two forms: the NumPy line
transforms of :mod:`repro.kernels.fft` and ``rk_mesh_solve`` in C, the
same element-wise IEEE ``+ - *`` in the same order.  This file checks
that

* the two forms give the same bits, potentials and energies (compared
  as int64 bit patterns), for
  1, 3 and 8 lanes, cubic meshes 4³ to 64³ and a non-cubic (16, 32, 8),
  at one and two threads;
* ``GaussianSplitEwald.solve`` is bitwise lane r of ``solve_stack``;
* it is the discrete Fourier transform: the forward half spectrum and
  the solve are within 1e-13 (relative to the largest value) of
  ``np.fft``, the energy within 1e-13 of ``np.sum``'s, and Parseval
  holds;
* the twiddle table is the committed exact values (a hex table made
  with 300-bit ``mpmath.cospi`` / ``sinpi``, not with this code);
* ``DistributedFFT3D.forward`` / ``inverse`` give the same bits on 1, 8
  and 64 nodes, and the same values as the engines' solve;
* the accuracy check is not vacuous: a twiddle with its sign swapped
  and a half spectrum with its Nyquist row dropped each fail it.

The compiled suites join where the host has a C compiler.
"""

import numpy as np
import pytest

from repro.ewald import GaussianSplitEwald, GSEParams
from repro.fft import DistributedFFT3D
from repro.geometry import Box
from repro.kernels import NUMPY_SUITE, available, get_suite
from repro.kernels.fft import bit_reverse_permutation, dif, rfft_last, stage_table
from repro.parallel import TorusTopology

#: The suites compared against the NumPy form.
COMPILED = [get_suite("compiled", t) for t in (1, 2)] if available() else []
MESHES = [(4, 4, 4), (8, 8, 8), (16, 16, 16), (32, 32, 32), (64, 64, 64), (16, 32, 8)]

#: ``(cos, -sin)`` of ``pi j / 32``, ``j < 32``: stage 32 of the table
#: (entries ``[31, 63)``), every other stage a subsample of it.
EXACT_STAGE_32 = """
0x1.0000000000000p+0,0x0.0p+0 0x1.fd88da3d12526p-1,-0x1.917a6bc29b42cp-4
0x1.f6297cff75cb0p-1,-0x1.8f8b83c69a60bp-3 0x1.e9f4156c62ddap-1,-0x1.294062ed59f06p-2
0x1.d906bcf328d46p-1,-0x1.87de2a6aea963p-2 0x1.c38b2f180bdb1p-1,-0x1.e2b5d3806f63bp-2
0x1.a9b66290ea1a3p-1,-0x1.1c73b39ae68c8p-1 0x1.8bc806b151741p-1,-0x1.44cf325091dd6p-1
0x1.6a09e667f3bcdp-1,-0x1.6a09e667f3bcdp-1 0x1.44cf325091dd6p-1,-0x1.8bc806b151741p-1
0x1.1c73b39ae68c8p-1,-0x1.a9b66290ea1a3p-1 0x1.e2b5d3806f63bp-2,-0x1.c38b2f180bdb1p-1
0x1.87de2a6aea963p-2,-0x1.d906bcf328d46p-1 0x1.294062ed59f06p-2,-0x1.e9f4156c62ddap-1
0x1.8f8b83c69a60bp-3,-0x1.f6297cff75cb0p-1 0x1.917a6bc29b42cp-4,-0x1.fd88da3d12526p-1
0x0.0p+0,-0x1.0000000000000p+0 -0x1.917a6bc29b42cp-4,-0x1.fd88da3d12526p-1
-0x1.8f8b83c69a60bp-3,-0x1.f6297cff75cb0p-1 -0x1.294062ed59f06p-2,-0x1.e9f4156c62ddap-1
-0x1.87de2a6aea963p-2,-0x1.d906bcf328d46p-1 -0x1.e2b5d3806f63bp-2,-0x1.c38b2f180bdb1p-1
-0x1.1c73b39ae68c8p-1,-0x1.a9b66290ea1a3p-1 -0x1.44cf325091dd6p-1,-0x1.8bc806b151741p-1
-0x1.6a09e667f3bcdp-1,-0x1.6a09e667f3bcdp-1 -0x1.8bc806b151741p-1,-0x1.44cf325091dd6p-1
-0x1.a9b66290ea1a3p-1,-0x1.1c73b39ae68c8p-1 -0x1.c38b2f180bdb1p-1,-0x1.e2b5d3806f63bp-2
-0x1.d906bcf328d46p-1,-0x1.87de2a6aea963p-2 -0x1.e9f4156c62ddap-1,-0x1.294062ed59f06p-2
-0x1.f6297cff75cb0p-1,-0x1.8f8b83c69a60bp-3 -0x1.fd88da3d12526p-1,-0x1.917a6bc29b42cp-4
"""


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def random_case(mesh, lanes, seed=0):
    """``lanes`` random real meshes and a real half-spectrum Green's function."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(lanes, *mesh))
    green = rng.uniform(0.0, 1.0, (mesh[0], mesh[1], mesh[2] // 2 + 1))
    green[0, 0, 0] = 0.0
    return q, green, stage_table(max(mesh))


def natural_half(q, tw, drop_nyquist=False):
    """The forward half spectrum in natural order, as ``mesh_solve`` forms it."""
    hr, hi = rfft_last(q, tw)
    if drop_nyquist:
        hr[..., -1] = hi[..., -1] = 0.0
    dif(hr, hi, -2, tw)
    dif(hr, hi, -3, tw)
    rx, ry = (bit_reverse_permutation(m) for m in q.shape[-3:-1])
    h = hr + 1j * hi
    return h[..., rx, :, :][..., ry, :]


def spectrum_error(q, tw, drop_nyquist=False) -> float:
    want = np.fft.rfftn(q, axes=(-3, -2, -1))
    got = natural_half(q, tw, drop_nyquist)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# -- NumPy == C ---------------------------------------------------------------


@pytest.mark.skipif(not COMPILED, reason="no C compiler: compiled kernel tier unavailable")
@pytest.mark.parametrize("lanes", [1, 3, 8])
@pytest.mark.parametrize("mesh", MESHES, ids=lambda m: "x".join(map(str, m)))
def test_numpy_and_c_solve_give_the_same_bits(mesh, lanes):
    q, green, tw = random_case(mesh, lanes, seed=lanes)
    want, want_e = np.empty_like(q), np.empty(lanes)
    NUMPY_SUITE.mesh_solve(want, want_e, q, green, tw)
    assert np.all(np.isfinite(want))
    for suite in COMPILED:
        got, got_e = np.full_like(q, np.nan), np.full(lanes, np.nan)
        suite.mesh_solve(got, got_e, q, green, tw)
        np.testing.assert_array_equal(bits(got), bits(want), err_msg=f"T{suite.threads}")
        np.testing.assert_array_equal(bits(got_e), bits(want_e), err_msg=f"T{suite.threads}")


@pytest.mark.skipif(not COMPILED, reason="no C compiler: compiled kernel tier unavailable")
def test_a_layout_c_cannot_take_runs_the_numpy_form():
    q, green, tw = random_case((16, 16, 16), 2)
    want, want_e = np.empty_like(q), np.empty(2)
    NUMPY_SUITE.mesh_solve(want, want_e, q, green, tw)
    got, got_e = np.empty_like(q), np.empty(2)
    COMPILED[0].mesh_solve(got, got_e, q, np.asfortranarray(green), tw)
    np.testing.assert_array_equal(bits(got), bits(want))
    np.testing.assert_array_equal(bits(got_e), bits(want_e))


def water_gse() -> GaussianSplitEwald:
    box = Box(np.array([18.0, 22.0, 15.0]))
    return GaussianSplitEwald(box, GSEParams.choose(box, 5.0, (32, 64, 32)))


@pytest.mark.parametrize("suite", [NUMPY_SUITE, *COMPILED], ids=lambda k: f"{k.tier}-t{k.threads}")
def test_solve_is_lane_r_of_solve_stack(suite):
    gse = water_gse()
    qs = np.random.default_rng(3).normal(size=(3, *map(int, gse.mesh)))
    phi, energies = gse.solve_stack(qs, kernels=suite)
    for r in range(3):
        phi_r, e_r = gse.solve(qs[r], kernels=suite)
        np.testing.assert_array_equal(bits(phi_r), bits(phi[r]))
        assert e_r == energies[r]
    numpy_phi, numpy_energies = gse.solve_stack(qs)
    np.testing.assert_array_equal(bits(phi), bits(numpy_phi))
    np.testing.assert_array_equal(energies, numpy_energies)


# -- the transform is the DFT --------------------------------------------------


@pytest.mark.parametrize("mesh", MESHES, ids=lambda m: "x".join(map(str, m)))
def test_forward_half_spectrum_and_solve_match_numpy(mesh):
    q, green, tw = random_case(mesh, 2, seed=9)
    assert spectrum_error(q, tw) <= 1e-13
    phi, energy = np.empty_like(q), np.empty(2)
    NUMPY_SUITE.mesh_solve(phi, energy, q, green, tw)
    # The same convolution through pocketfft, unnormalized.
    rx, ry = (bit_reverse_permutation(m) for m in mesh[:2])
    natural = np.empty_like(green)
    natural[np.ix_(rx, ry, np.arange(green.shape[2]))] = green
    want = np.fft.irfftn(natural * np.fft.rfftn(q, axes=(1, 2, 3)), s=mesh, axes=(1, 2, 3))
    want *= np.prod(mesh)
    assert np.max(np.abs(phi - want)) <= 1e-13 * np.max(np.abs(want))
    for r in range(2):
        terms = q[r] * phi[r]
        assert abs(energy[r] - 0.5 * np.sum(terms)) <= 1e-13 * np.sum(np.abs(terms))


@pytest.mark.parametrize("mesh", [(8, 8, 8), (16, 32, 8)], ids=lambda m: "x".join(map(str, m)))
def test_parseval(mesh):
    q, _green, tw = random_case(mesh, 1, seed=4)
    half = natural_half(q[0], tw)
    power = np.abs(half) ** 2
    total = power[..., 0].sum() + power[..., -1].sum() + 2.0 * power[..., 1:-1].sum()
    assert total / np.prod(mesh) == pytest.approx(np.sum(q**2), rel=1e-12)


def test_twiddles_are_the_committed_exact_values():
    exact = [tuple(float.fromhex(v) for v in pair.split(","))
             for pair in EXACT_STAGE_32.split()]
    wr, wi = stage_table(64)
    got = list(zip(wr[31:].tolist(), wi[31:].tolist(), strict=True))
    assert [tuple(map(float.hex, p)) for p in got] == [tuple(map(float.hex, p)) for p in exact]
    # Stage h is stage 32 at stride 32/h, and every length shares the entries.
    h = 1
    while h < 32:
        np.testing.assert_array_equal(wr[h - 1 : 2 * h - 1], wr[31 :: 32 // h])
        np.testing.assert_array_equal(wi[h - 1 : 2 * h - 1], wi[31 :: 32 // h])
        h *= 2
    for n in (2, 4, 8, 16, 32):
        np.testing.assert_array_equal(stage_table(n)[0], wr[: n - 1])
        np.testing.assert_array_equal(stage_table(n)[1], wi[: n - 1])


def test_a_swapped_twiddle_sign_or_a_dropped_row_fails_the_accuracy_check():
    q, _green, tw = random_case((16, 16, 16), 1, seed=5)
    assert spectrum_error(q[0], tw) <= 1e-13
    wi = np.array(tw[1])
    wi[8] = -wi[8]  # stage 8, j = 1: the sign of sin(pi/8) swapped
    assert spectrum_error(q[0], (tw[0], wi)) > 1e-3
    assert spectrum_error(q[0], tw, drop_nyquist=True) > 1e-3


# -- the distributed transform --------------------------------------------------


def test_distributed_transform_is_the_same_bits_on_1_8_and_64_nodes():
    mesh = (16, 16, 16)
    q = np.random.default_rng(6).normal(size=mesh)
    spectra, reals = [], []
    for nodes in (1, 8, 64):
        dfft = DistributedFFT3D(mesh, TorusTopology.for_node_count(nodes))
        spectra.append(dfft.forward(q))
        reals.append(dfft.inverse(spectra[-1]))
    for s, r in zip(spectra[1:], reals[1:]):
        np.testing.assert_array_equal(bits(s.real), bits(spectra[0].real))
        np.testing.assert_array_equal(bits(s.imag), bits(spectra[0].imag))
        np.testing.assert_array_equal(bits(r), bits(reals[0]))
    np.testing.assert_allclose(reals[0], q, atol=1e-13)
    want = np.fft.fftn(q)
    assert np.max(np.abs(spectra[0] - want)) <= 1e-13 * np.max(np.abs(want))


def test_distributed_transform_computes_the_engines_solve():
    """The green-weighted spectrum, inverted by the distributed transform,
    is the solve's potential: the same values as ``mesh_solve``."""
    mesh = (16, 16, 8)
    q, green, tw = random_case(mesh, 1, seed=8)
    phi = np.empty_like(q)
    NUMPY_SUITE.mesh_solve(phi, np.empty(1), q, green, tw)
    dfft = DistributedFFT3D(mesh, TorusTopology.for_node_count(8))
    spectrum = dfft.forward(q[0])
    rx, ry = (bit_reverse_permutation(m) for m in mesh[:2])
    natural = np.zeros(mesh)
    natural[np.ix_(rx, ry, np.arange(green.shape[2]))] = green
    weighted = np.empty_like(spectrum)
    weighted.real, weighted.imag = spectrum.real * natural, spectrum.imag * natural
    np.testing.assert_array_equal(dfft.inverse(weighted) * np.prod(mesh), phi[0])
