"""Set-up's array forms give the bytes of the per-item loops they replaced.

Every builder, the term store, ``build_exclusions``, the constraint
groups and the rigid-water scan are checked with ``tobytes()`` against
``tests/setup_oracle.py``: builders run once as committed and once with
the oracle's loop forms patched in, on water boxes (TIP3P and the
4-site TIP4P-Ew), both protein builders, a protein in water and the
replica-stacked ensemble topology; Hypothesis graphs with rings, branch
points and isolated atoms go through both term stores directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.systems.builder as builder
import repro.systems.peptide as peptide
from repro.core import ConstraintSolver
from repro.core.constraints import _rigid_waters
from repro.ensemble.engine import tile_system
from repro.forcefield import TIP3P, TIP4PEW, Topology, build_exclusions
from repro.systems import (
    build_hp_system,
    build_solvated_protein,
    build_water_box,
    hp_miniprotein,
    synthetic_protein,
)
from repro.util import make_rng
from tests import setup_oracle as oracle


def same_bytes(a, b) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, (a.dtype, a.shape, b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def same_structures(top: Topology, loop_top, masses: np.ndarray) -> None:
    """Compiled arrays, exclusions, constraint groups and rigid waters."""
    top.compile()
    loop_top.compile()
    for name in oracle.COMPILED:
        same_bytes(getattr(top, name), getattr(loop_top, name))
    table = build_exclusions(top)
    excluded, pair14 = oracle.build_exclusions(loop_top)
    same_bytes(table.excluded, excluded)
    same_bytes(table.pair14, pair14)
    same_bytes(table._excluded_keys, excluded[:, 0] * top.n_atoms + excluded[:, 1])
    same_bytes(table._pair14_keys, pair14[:, 0] * top.n_atoms + pair14[:, 1])
    groups, loop_groups = top.constraint_groups(), oracle.constraint_groups(loop_top)
    assert len(groups) == len(loop_groups)
    for g, h in zip(groups, loop_groups):
        same_bytes(g, h)
        assert not g.flags.writeable
    member, leader = top.constraint_group_members()
    flat = np.concatenate(loop_groups) if loop_groups else np.empty(0, np.int64)
    same_bytes(member, flat)
    same_bytes(leader, np.repeat(np.array([g[0] for g in loop_groups], dtype=np.int64),
                                 [len(g) for g in loop_groups]))
    for got, want in zip(
        _rigid_waters(top.constraint_idx, top.constraint_dist, masses),
        oracle.rigid_waters(loop_top.constraint_idx, loop_top.constraint_dist, masses),
    ):
        same_bytes(got, want)


@pytest.fixture
def loops(monkeypatch):
    """Build under the loop forms: ``loops(build, *args, **kw)``."""

    def run(build, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(builder, "_water_fragment", oracle.water_fragment)
            m.setattr(builder, "Topology", oracle.LoopTopology)
            m.setattr(peptide, "Topology", oracle.LoopTopology)
            return build(*args, **kwargs)

    return run


def same_system(system, loop_system) -> None:
    for name in ("positions", "charges", "masses", "type_ids"):
        same_bytes(getattr(system, name), getattr(loop_system, name))
    same_bytes(system.exclusions.excluded, build_exclusions(system.topology).excluded)
    same_structures(system.topology, loop_system.topology, system.masses)


@pytest.mark.parametrize("model", [TIP3P, TIP4PEW], ids=["tip3p", "tip4pew"])
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_water_boxes(loops, model, seed):
    same_system(build_water_box(n_molecules=60, model=model, seed=seed),
                loops(build_water_box, n_molecules=60, model=model, seed=seed))


def test_machine64_box_and_its_solver():
    """The benchmark's 1,700-water build, and the solver's SETTLE rows."""
    system = build_water_box(n_molecules=1700, seed=7)
    rng = make_rng(7)
    o_pos = builder._water_lattice(system.box, 1700, rng)
    loop_rng = make_rng(7)
    builder._water_lattice(system.box, 1700, loop_rng)
    frag = builder._water_fragment(o_pos, TIP3P, rng)
    loop_frag = oracle.water_fragment(o_pos, TIP3P, loop_rng)
    assert rng.bit_generator.state == loop_rng.bit_generator.state
    for got, want in zip(frag[:4], loop_frag[:4]):
        same_bytes(got, want)
    same_bytes(system.positions, system.box.wrap(loop_frag[0]))
    same_structures(frag[4], loop_frag[4], frag[2])
    solver = ConstraintSolver(system.topology, system.masses, system.box)
    waters, _lengths, rest = oracle.rigid_waters(
        system.topology.constraint_idx, system.topology.constraint_dist, system.masses)
    same_bytes(solver.waters, waters)
    assert len(rest) == len(solver.shake_idx) == 0


@pytest.mark.parametrize("model", [TIP3P, TIP4PEW], ids=["tip3p", "tip4pew"])
def test_protein_in_water(loops, model):
    args = dict(n_residues=6, side=22.0, model=model, n_ions=2, seed=5)
    same_system(build_solvated_protein(**args), loops(build_solvated_protein, **args))


@pytest.mark.parametrize("n_residues", [1, 9])
def test_synthetic_protein(loops, n_residues):
    frag = synthetic_protein(n_residues, seed=3)
    loop_frag = loops(synthetic_protein, n_residues, seed=3)
    same_bytes(frag.positions, loop_frag.positions)
    same_structures(frag.topology, loop_frag.topology, frag.masses)


def test_hp_miniprotein(loops):
    same_system(build_hp_system(hp_miniprotein(seed=2)),
                loops(lambda: build_hp_system(hp_miniprotein(seed=2))))


@pytest.mark.parametrize("model", [TIP3P, TIP4PEW], ids=["tip3p", "tip4pew"])
def test_stacked_ensemble_topology(loops, model):
    solo = build_water_box(n_molecules=24, model=model, seed=4)
    loop_solo = loops(build_water_box, n_molecules=24, model=model, seed=4)
    stacked = tile_system(solo, 3)
    loop_top = oracle.LoopTopology(3 * solo.n_atoms)
    for r in range(3):
        loop_top.merge(loop_solo.topology, r * solo.n_atoms)
    same_structures(stacked.topology, loop_top, stacked.masses)
    excluded, pair14 = oracle.build_exclusions(loop_top)
    same_bytes(stacked.exclusions.excluded, excluded)
    same_bytes(stacked.exclusions.pair14, pair14)


# -- Hypothesis graphs ----------------------------------------------------------

#: Constraint lengths and masses drawn from a few values, so equal O-H
#: lengths, equal H masses and massless atoms all occur.
LENGTHS = [0.9572, 0.9572, 1.5139, 1.0, 2.5]
MASSES = [15.9994, 1.008, 1.008, 12.011, 0.0]


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 10))
    atom = st.integers(0, n - 1)
    pair = st.tuples(atom, atom).filter(lambda p: p[0] != p[1])
    quad = st.lists(atom, min_size=4, max_size=4, unique=True)
    return {
        "n": n,
        "bonds": draw(st.lists(pair, max_size=12)),
        "constraints": draw(st.lists(st.tuples(pair, st.sampled_from(LENGTHS)), max_size=10)),
        "vsites": draw(st.lists(quad, max_size=2)) if n >= 4 else [],
        "exclusions": draw(st.lists(pair, max_size=3)),
        "masses": np.array(draw(st.lists(st.sampled_from(MASSES), min_size=n, max_size=n))),
        # Where the term list splits into a single-term head and one block.
        "split": draw(st.floats(0.0, 1.0)),
    }


def _fill(top, g, blocks: bool) -> None:
    """``g``'s terms in order: the head one by one, the tail as blocks
    (``add_terms``) when ``blocks``, else one by one too (a loop topology
    always term by term)."""
    cut = round(g["split"] * len(g["constraints"]))
    for (i, j), d in g["constraints"][:cut]:
        top.add_constraint(i, j, d)
    tail = g["constraints"][cut:]
    if blocks and tail:
        top.add_terms("constraint", [p for p, _d in tail], [d for _p, d in tail])
    else:
        for (i, j), d in tail:
            top.add_constraint(i, j, d)
    for i, j in g["bonds"]:
        top.add_bond(i, j, 300.0, 1.1)
    if isinstance(top, Topology):  # sites and exclusions go in as blocks only
        for b in [g["vsites"]] if blocks else [[v] for v in g["vsites"]]:
            top.add_terms("vsite", b, [0.1] * len(b))
        top.add_terms("exclusion", g["exclusions"])
    else:
        for s, p, r1, r2 in g["vsites"]:
            top.add_virtual_site(s, p, r1, r2, 0.1)
        for i, j in g["exclusions"]:
            top.add_exclusion(i, j)


def same_graph(g, blocks: bool) -> None:
    top, loop_top = Topology(g["n"]), oracle.LoopTopology(g["n"])
    _fill(top, g, blocks)
    _fill(loop_top, g, False)
    same_structures(top, loop_top, g["masses"])


@settings(max_examples=300, deadline=None)
@given(graphs(), st.booleans())
def test_graphs(g, blocks):
    same_graph(g, blocks)


@settings(max_examples=100, deadline=None)
@given(graphs(), graphs(), st.booleans())
def test_merged_graphs(g, h, compiled_first):
    """A merge appends the other topology's terms, shifted, after the
    single terms before it and before those after it."""
    n = g["n"] + h["n"]
    parts, loop_parts = Topology(h["n"]), oracle.LoopTopology(h["n"])
    _fill(parts, h, True)
    _fill(loop_parts, h, False)
    if compiled_first:
        parts.compile()
    top, loop_top = Topology(n), oracle.LoopTopology(n)
    for t, p in ((top, parts), (loop_top, loop_parts)):
        t.add_bond(0, n - 1, 1.0, 2.0)
        t.merge(p, g["n"])
        if h["n"] > 1:
            t.add_angle(0, g["n"], n - 1, 1.0, 2.0)
        _fill(t, g, t is top)
    same_structures(top, loop_top, np.concatenate([g["masses"], h["masses"]]))


@st.composite
def triangles(draw):
    """A few three-atom constraint triangles in shuffled order, some
    atoms constrained once more: lengths and masses from two values
    each, so several atoms of one triangle can qualify as its O."""
    n_tri = draw(st.integers(1, 4))
    n = 3 * n_tri + 1
    cons = []
    for t in range(n_tri):
        a, b, c = draw(st.permutations([3 * t, 3 * t + 1, 3 * t + 2]))
        for p, q in ((a, b), (a, c), (b, c)):
            pair = (p, q) if draw(st.booleans()) else (q, p)
            cons.append((pair, draw(st.sampled_from([1.0, 1.0, 1.5]))))
    extra = draw(st.lists(st.integers(0, n - 2), max_size=2))
    cons += [((a, n - 1), 1.0) for a in extra]
    order = draw(st.permutations(range(len(cons))))
    masses = draw(st.lists(st.sampled_from([1.0, 1.0, 16.0, 0.0]), min_size=n, max_size=n))
    return {"n": n, "bonds": [], "constraints": [cons[k] for k in order], "vsites": [],
            "exclusions": [], "masses": np.array(masses), "split": 0.5}


@settings(max_examples=300, deadline=None)
@given(triangles(), st.booleans())
def test_triangles(g, blocks):
    """The rigid-water scan's choices: which constraint names a triangle,
    which atom is its O, which triangles an extra constraint spoils."""
    same_graph(g, blocks)


def test_add_terms_checks_as_single_terms_do():
    top = Topology(4)
    with pytest.raises(IndexError):
        top.add_terms("constraint", [[0, 4]], [1.0])
    with pytest.raises(ValueError):
        top.add_terms("vsite", [[3, 0, 1, 0]], [0.1])
    with pytest.raises(ValueError):
        top.add_terms("constraint", [[0, 1], [1, 2]], [1.0])
    top.compile()
    with pytest.raises(RuntimeError):
        top.add_terms("exclusion", [[0, 1]])
