"""The simulated Anton machine: hardware constants, HTIS and
flexible-subsystem models, and the functional whole-machine simulator."""

from repro.machine.backends import MachineBackend, VectorizedBackend
from repro.machine.config import ANTON_2008, AntonHardware
from repro.machine.flexible import (
    BondTerm,
    BondTermAssignment,
    assign_bond_terms,
    correction_pairs_per_node,
)
from repro.machine.htis import HTISModel, HTISTiming
from repro.machine.machine import AntonMachine, MachineForceCalculator

__all__ = [
    "ANTON_2008",
    "AntonHardware",
    "BondTerm",
    "BondTermAssignment",
    "assign_bond_terms",
    "correction_pairs_per_node",
    "HTISModel",
    "HTISTiming",
    "AntonMachine",
    "MachineForceCalculator",
    "MachineBackend",
    "VectorizedBackend",
]
