"""Unit tests for the radix-2 and distributed FFTs."""

import numpy as np
import pytest

from repro.fft import (
    DistributedFFT3D,
    bit_reverse_permutation,
    fft1d,
    ifft1d,
)
from repro.parallel.comm import SimNetwork
from repro.parallel.topology import TorusTopology


class TestBitReverse:
    def test_length_8(self):
        np.testing.assert_array_equal(bit_reverse_permutation(8), [0, 4, 2, 6, 1, 5, 3, 7])

    def test_involution(self):
        perm = bit_reverse_permutation(32)
        np.testing.assert_array_equal(perm[perm], np.arange(32))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            bit_reverse_permutation(12)
        with pytest.raises(ValueError):
            bit_reverse_permutation(0)


def fft3d(x):
    """The serial 3-D transform: a one-node distributed FFT."""
    return DistributedFFT3D(x.shape, TorusTopology.cubic(1)).forward(x)


class TestRadix2:
    @pytest.mark.parametrize("n", [2, 4, 8, 32, 128])
    def test_matches_numpy_1d(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(fft1d(x), np.fft.fft(x), atol=1e-10)
        np.testing.assert_allclose(ifft1d(x), np.fft.ifft(x), atol=1e-10)

    def test_batched_axis(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 16, 3))
        np.testing.assert_allclose(fft1d(x, axis=1), np.fft.fft(x, axis=1), atol=1e-10)

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        np.testing.assert_allclose(ifft1d(fft1d(x)), x, atol=1e-10)

    @pytest.mark.parametrize("shape", [(8, 8, 8), (16, 8, 4), (32, 32, 32), (16, 8, 32), (2, 64, 4)])
    def test_matches_numpy_3d(self, shape):
        rng = np.random.default_rng(7)
        x = rng.normal(size=shape)
        np.testing.assert_allclose(fft3d(x), np.fft.fftn(x), atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 8, 8))
        xf = fft3d(x)
        assert np.sum(np.abs(xf) ** 2) / x.size == pytest.approx(np.sum(x**2))


class TestDistributedFFT:
    def test_functional_equals_serial_for_any_node_count(self):
        rng = np.random.default_rng(5)
        mesh = rng.normal(size=(32, 32, 32)).astype(np.complex128)
        reference = fft3d(mesh)
        for dims in [(1, 1, 1), (2, 2, 2), (4, 4, 4), (8, 8, 8), (4, 2, 2)]:
            topo = TorusTopology(dims)
            dfft = DistributedFFT3D((32, 32, 32), topo, network=SimNetwork(topo))
            out = dfft.forward(mesh)
            # Bitwise identical: the same kernel runs on whole lines
            # regardless of distribution.
            assert np.array_equal(out, reference)

    def test_roundtrip(self):
        topo = TorusTopology.cubic(2)
        dfft = DistributedFFT3D((16, 16, 16), topo)
        rng = np.random.default_rng(2)
        mesh = rng.normal(size=(16, 16, 16)).astype(np.complex128)
        np.testing.assert_allclose(dfft.inverse(dfft.forward(mesh)), mesh, atol=1e-10)

    def test_message_accounting(self):
        topo = TorusTopology.cubic(8)  # 512 nodes, the paper's machine
        net = SimNetwork(topo)
        dfft = DistributedFFT3D((32, 32, 32), topo, network=net)
        mesh = np.zeros((32, 32, 32), dtype=np.complex128)
        dfft.forward(mesh)
        # Each node: 3 phases x (8-1) peers x 4 batches = 84 messages;
        # forward+inverse = 168 -> "hundreds per node" as the paper says.
        per_node = net.stats.messages / topo.n_nodes
        assert per_node == 3 * (8 - 1) * 4
        assert 50 < per_node * 2 < 500

    def test_single_node_no_messages(self):
        topo = TorusTopology.cubic(1)
        net = SimNetwork(topo)
        dfft = DistributedFFT3D((8, 8, 8), topo, network=net)
        dfft.forward(np.zeros((8, 8, 8), dtype=np.complex128))
        assert net.stats.messages == 0

    def test_validation(self):
        topo = TorusTopology.cubic(4)
        with pytest.raises(ValueError):
            DistributedFFT3D((12, 12, 12), topo)  # not power of two
        with pytest.raises(ValueError):
            DistributedFFT3D((8, 8, 2), topo)  # not divisible by torus dim
        dfft = DistributedFFT3D((8, 8, 8), topo)
        with pytest.raises(ValueError):
            dfft.forward(np.zeros((4, 4, 4), dtype=np.complex128))
