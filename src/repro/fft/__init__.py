"""FFT substrate: radix-2 line transforms on the one FFT of
:mod:`repro.kernels.fft`, and the simulated distributed 3-D FFT with
message accounting (paper Section 3.2.2)."""

from repro.fft.distributed import DistributedFFT3D
from repro.fft.radix2 import bit_reverse_permutation, fft1d, ifft1d, irfft1d, rfft1d

__all__ = [
    "DistributedFFT3D",
    "bit_reverse_permutation",
    "fft1d",
    "ifft1d",
    "irfft1d",
    "rfft1d",
]
