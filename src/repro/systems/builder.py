"""System assembly: water boxes, solvated proteins, ions.

Builders return ready-to-run :class:`~repro.core.system.ChemicalSystem`
objects.  Water is placed on a lattice at ambient density with random
orientations; proteins are centered and overlapping waters carved out;
ions replace waters to neutralize or match a composition spec.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.forces import MDParams
from repro.core.simulation import minimize_energy
from repro.core.system import ChemicalSystem
from repro.ewald import GSEParams
from repro.forcefield import (
    TIP3P,
    Topology,
    WaterModel,
    add_water_to_topology,
    water_charges,
    water_masses,
    water_site_positions,
)
from repro.geometry import Box
from repro.systems.peptide import ProteinFragment, synthetic_protein
from repro.systems.types import ION_CL, WATER_H, WATER_M, WATER_O, standard_lj_table
from repro.util import WATER_MOLECULE_DENSITY, make_rng

__all__ = ["build_water_box", "prepare_water_box", "build_solvated_protein", "build_hp_system"]

#: Mass and charge of the chloride counter-ion (single LJ particle).
_CL_MASS = 35.453
_CL_CHARGE = -1.0


def _water_lattice(box: Box, n_molecules: int, rng: np.random.Generator) -> np.ndarray:
    """O-site positions: jittered lattice slots at roughly even spacing."""
    per_axis = np.ceil((n_molecules * box.lengths**3 / box.volume) ** (1 / 3)).astype(int)
    per_axis = np.maximum(per_axis, 1)
    while np.prod(per_axis) < n_molecules:
        per_axis[np.argmin(per_axis)] += 1
    spacing = box.lengths / per_axis
    grid = np.stack(
        np.meshgrid(*[np.arange(p) for p in per_axis], indexing="ij"), axis=-1
    ).reshape(-1, 3)
    slots = (grid + 0.5) * spacing
    order = rng.permutation(len(slots))[:n_molecules]
    return slots[order] + rng.normal(0.0, 0.05, (n_molecules, 3))


def _assemble(
    box: Box,
    fragments: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Topology | None]],
    water_model: WaterModel,
    meta: dict,
) -> ChemicalSystem:
    """Concatenate fragments into one system with merged topology."""
    n_total = sum(len(f[0]) for f in fragments)
    top = Topology(n_total)
    positions = np.empty((n_total, 3))
    charges = np.empty(n_total)
    masses = np.empty(n_total)
    type_ids = np.empty(n_total, dtype=np.int64)
    offset = 0
    for pos, q, m, t, frag_top in fragments:
        k = len(pos)
        positions[offset : offset + k] = pos
        charges[offset : offset + k] = q
        masses[offset : offset + k] = m
        type_ids[offset : offset + k] = t
        if frag_top is not None:
            top.merge(frag_top, offset)
        offset += k
    return ChemicalSystem(
        box=box,
        positions=box.wrap(positions),
        masses=masses,
        charges=charges,
        type_ids=type_ids,
        lj=standard_lj_table(water_model.sigma_o, water_model.eps_o),
        topology=top,
        meta=meta,
    )


def _water_fragment(
    o_positions: np.ndarray, model: WaterModel, rng: np.random.Generator
):
    """Water sites/charges/masses/types + per-molecule topology."""
    n = len(o_positions)
    spm = model.sites_per_molecule
    local = water_site_positions(model)
    q1 = water_charges(model)
    m1 = water_masses(model)
    types1 = [WATER_O, WATER_H, WATER_H] + ([WATER_M] if model.four_site else [])
    # One draw for every molecule's rotation (QR of a Gaussian matrix,
    # as peptide._random_rotation), stacked: the same draws, rotations
    # and site bits as one call per molecule (DESIGN.md, "Set-up").
    q, r = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    flip = np.linalg.det(q) < 0
    q[flip, :, 0] = -q[flip, :, 0]
    positions = (o_positions[:, None, :] + local @ q.transpose(0, 2, 1)).reshape(n * spm, 3)
    top = Topology(n * spm)
    add_water_to_topology(top, np.arange(n) * spm, model)
    return (
        positions,
        np.tile(q1, n),
        np.tile(m1, n),
        np.tile(np.array(types1, dtype=np.int64), n),
        top,
    )


def build_water_box(
    n_molecules: int | None = None,
    side: float | None = None,
    model: WaterModel = TIP3P,
    seed: int = 0,
) -> ChemicalSystem:
    """A pure-water box at ambient density.

    Give either ``n_molecules`` (side chosen for density) or ``side``
    (molecule count chosen for density), or both.
    """
    if n_molecules is None and side is None:
        raise ValueError("give n_molecules and/or side")
    if side is None:
        side = (n_molecules / WATER_MOLECULE_DENSITY) ** (1.0 / 3.0)
    if n_molecules is None:
        n_molecules = int(round(side**3 * WATER_MOLECULE_DENSITY))
    rng = make_rng(seed)
    box = Box.cubic(side)
    o_pos = _water_lattice(box, n_molecules, rng)
    frag = _water_fragment(o_pos, model, rng)
    meta = {
        "name": f"water{n_molecules}",
        "n_water_molecules": n_molecules,
        "n_protein_atoms": 0,
        "water_model": model.name,
    }
    return _assemble(box, [frag], model, meta)


def prepare_water_box(
    n_molecules: int,
    seed: int,
    cutoff: float | None = None,
    *,
    cutoff_cap: float = 5.5,
    skin: float | None = None,
    long_range_every: int = 2,
    minimize_steps: int = 80,
) -> tuple[ChemicalSystem, MDParams, float | None]:
    """The water runs' one preparation recipe: ``(system, params, energy)``.

    Build the box; take ``cutoff`` or the smaller of ``cutoff_cap`` and
    0.9 of what the box allows; size the mesh from both
    (:meth:`GSEParams.smallest_mesh`); minimize for ``minimize_steps``
    (0, a resumed run's, skips it: energy ``None``).  ``repro
    simulate``, ``ensemble``, ``machine`` and every serve job prepare
    through this function, so a job's artifacts are byte-comparable to
    the same-seed CLI run's.  Velocities are the caller's to draw.
    """
    system = build_water_box(n_molecules=n_molecules, seed=seed)
    cutoff = cutoff or min(cutoff_cap, system.box.max_cutoff() * 0.9)
    params = MDParams(
        cutoff=cutoff,
        mesh=GSEParams.smallest_mesh(system.box, cutoff),
        long_range_every=long_range_every,
    )
    if skin is not None:
        params = replace(params, skin=skin)
    energy = minimize_energy(system, params, max_steps=minimize_steps) if minimize_steps else None
    return system, params, energy


def build_solvated_protein(
    n_residues: int,
    side: float,
    model: WaterModel = TIP3P,
    n_ions: int = 0,
    seed: int = 0,
    name: str = "protein",
    clearance: float = 2.4,
) -> ChemicalSystem:
    """A synthetic protein centered in a water box, optionally with ions.

    Waters whose O site falls within ``clearance`` A of a protein atom
    are removed; ions replace the most distant waters.  Run
    :func:`repro.core.minimize_energy` before dynamics.
    """
    rng = make_rng(seed)
    box = Box.cubic(side)
    prot = synthetic_protein(n_residues, seed=seed)
    prot_pos = prot.positions - prot.positions.mean(axis=0) + box.lengths / 2.0

    target_waters = int(round(side**3 * WATER_MOLECULE_DENSITY))
    o_pos = _water_lattice(box, target_waters, rng)
    # Carve out waters overlapping the protein (minimum-image distances).
    keep = np.ones(len(o_pos), dtype=bool)
    for chunk in range(0, len(o_pos), 1024):
        sl = slice(chunk, min(chunk + 1024, len(o_pos)))
        d2 = np.min(
            np.sum(box.minimum_image(o_pos[sl, None, :] - prot_pos[None, :, :]) ** 2, axis=2),
            axis=1,
        )
        keep[sl] = d2 > clearance**2
    o_pos = o_pos[keep]

    if n_ions > len(o_pos):
        raise ValueError("more ions requested than available water sites")
    ion_pos = o_pos[:n_ions]
    o_pos = o_pos[n_ions:]

    fragments = [
        (prot_pos, prot.charges, prot.masses, prot.type_ids, prot.topology),
        _water_fragment(o_pos, model, rng),
    ]
    if n_ions:
        fragments.append(
            (
                ion_pos,
                np.full(n_ions, _CL_CHARGE),
                np.full(n_ions, _CL_MASS),
                np.full(n_ions, ION_CL, dtype=np.int64),
                None,
            )
        )
    meta = {
        "name": name,
        "n_water_molecules": len(o_pos),
        "n_protein_atoms": prot.n_atoms,
        "n_protein_residues": n_residues,
        "n_ions": n_ions,
        "water_model": model.name,
    }
    return _assemble(box, fragments, model, meta)


def build_hp_system(fragment: ProteinFragment, side: float | None = None) -> ChemicalSystem:
    """Wrap an HP bead chain in a (vacuum) periodic box.

    The folding model runs without solvent — its effective potentials
    already fold solvation in — so the box only provides boundary
    conditions.
    """
    extent = float(np.max(fragment.positions) - np.min(fragment.positions))
    if side is None:
        side = max(3.0 * extent, 60.0)
    box = Box.cubic(side)
    positions = fragment.positions - fragment.positions.mean(axis=0) + box.lengths / 2.0
    return ChemicalSystem(
        box=box,
        positions=box.wrap(positions),
        masses=fragment.masses,
        charges=fragment.charges,
        type_ids=fragment.type_ids,
        lj=standard_lj_table(),
        topology=fragment.topology,
        meta={"name": "hp_miniprotein", "n_protein_atoms": fragment.n_atoms},
    )
