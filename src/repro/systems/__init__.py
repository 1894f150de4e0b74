"""Benchmark chemical systems: water boxes, synthetic solvated
proteins, the HP folding mini-protein, and the paper's Table 4 /
BPTI system specifications."""

from repro.systems.benchmarks import BPTI, TABLE4_SYSTEMS, BenchmarkSpec, benchmark_by_name
from repro.systems.builder import (
    build_hp_system,
    build_solvated_protein,
    build_water_box,
    prepare_water_box,
)
from repro.systems.peptide import ProteinFragment, hp_miniprotein, synthetic_protein
from repro.systems.types import (
    BEAD_HYDROPHOBIC,
    BEAD_POLAR,
    ION_CL,
    PROT_C,
    PROT_H,
    PROT_N,
    PROT_O,
    WATER_H,
    WATER_M,
    WATER_O,
    standard_lj_table,
)

__all__ = [
    "BPTI",
    "TABLE4_SYSTEMS",
    "BenchmarkSpec",
    "benchmark_by_name",
    "build_hp_system",
    "build_solvated_protein",
    "build_water_box",
    "prepare_water_box",
    "ProteinFragment",
    "hp_miniprotein",
    "synthetic_protein",
    "BEAD_HYDROPHOBIC",
    "BEAD_POLAR",
    "ION_CL",
    "PROT_C",
    "PROT_H",
    "PROT_N",
    "PROT_O",
    "WATER_H",
    "WATER_M",
    "WATER_O",
    "standard_lj_table",
]
