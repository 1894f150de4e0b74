"""Shared utilities: units, constants, and deterministic RNG helpers."""

from repro.util.constants import (
    ACCEL_UNIT,
    BOLTZMANN,
    COULOMB,
    FS_PER_US,
    SECONDS_PER_DAY,
    SQRT_2PI,
    WATER_ATOM_DENSITY,
    WATER_MOLECULE_DENSITY,
)
from repro.util.rng import DEFAULT_SEED, make_rng

__all__ = [
    "ACCEL_UNIT",
    "BOLTZMANN",
    "COULOMB",
    "FS_PER_US",
    "SECONDS_PER_DAY",
    "SQRT_2PI",
    "WATER_ATOM_DENSITY",
    "WATER_MOLECULE_DENSITY",
    "DEFAULT_SEED",
    "make_rng",
]
