"""Property tests: SETTLE, the rigid-water solve of ``ConstraintSolver``.

``settle_batch`` is one primitive with two forms: the NumPy solve
(``ConstraintSolver._settle_numpy``, element-wise IEEE ``+ - * /`` and
``sqrt`` over ``(3, n)`` columns) and ``rk_settle_batch`` in C, which
does the same operations in the same order per molecule.  This file
checks that

* the two forms give the same bits, for positions and velocities, over
  1 and 3 stacked blocks, random orientations, molecules straddling the
  box edge, and TIP4P-Ew (compared as int64 bit patterns);
* the result is rigid to rounding: ``|r^2 - d^2| <= 1e-13`` after the
  position step and ``|d . dv| <= 1e-14`` after the velocity step;
* it is the solution SHAKE / RATTLE converge to: within ``1e-12`` A and
  ``1e-14`` A/fs of 2,000 sweeps at tolerance ``1e-15`` / ``1e-17``
  (the largest gaps over 600 seeded cases were 1.0e-13 and 1.4e-15);
* a molecule it cannot solve raises ``DegenerateWaterError`` naming it,
  is left as it was (no NaN), and every other molecule is still solved;
* a water + peptide system still sweeps its X–H bonds, and a water-only
  one never calls the sweeps.

* ``rk_min_image``'s half-box lemma holds on its edges: differences of
  exactly ``±L/2``, one ulp either side, and zeros of both signs give
  the NumPy form's bits.

Skipped wholesale when the host has no C compiler.  The SHAKE / RATTLE
sweeps have one form, NumPy, on every tier (``test_constraints_props.py``).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import ConstraintSolver
from repro.forcefield import TIP3P, TIP4PEW, Topology, add_water_to_topology, water_site_positions
from repro.forcefield.water import water_masses
from repro.geometry import Box
from repro.kernels import NUMPY_SUITE, DegenerateWaterError, available
from repro.kernels.build import load
from repro.kernels.suite import CompiledKernels
from repro.systems import build_solvated_protein, build_water_box

pytestmark = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)

LENGTHS = np.array([8.0, 6.0, 10.0])
WATERS = 16
#: Largest |r^2 - d^2| (A^2) the position step may leave; at most 7.1e-15
#: over 800 seeded cases of the test below (3 blocks of 16 waters each).
GEOMETRY_BOUND = 1e-13
#: Largest |d . dv| (A^2/fs) the velocity step may leave; at most 4.0e-16
#: over the same cases (velocities ~0.05 A/fs; RATTLE's cap left ~5e-12).
VELOCITY_BOUND = 1e-14


@pytest.fixture(scope="module")
def compiled():
    return CompiledKernels(load(), threads=1)


def rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def random_waters(rng, model=TIP3P, n=WATERS, edge=False):
    """``n`` rigid waters at random orientations, wrapped atom by atom.

    With ``edge`` every molecule's centre sits within 0.3 A of a box
    face, so its atoms wrap to both sides of it (the minimum image
    takes them back)."""
    k = model.sites_per_molecule
    top = Topology(k * n)
    pos = np.empty((k * n, 3))
    local = water_site_positions(model)
    local = local - local[0]
    for m in range(n):
        add_water_to_topology(top, k * m, model)
        centre = rng.uniform(0.0, 1.0, 3) * LENGTHS
        if edge:
            centre[rng.integers(3)] = rng.uniform(-0.3, 0.3)
        pos[k * m : k * m + k] = local @ rotation(rng).T + centre
    masses = np.tile(water_masses(model), n)
    box = Box(LENGTHS)
    return top, masses, box, box.wrap(pos)


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def both_tiers(compiled, solver, stage, out, src, nrep):
    """``settle_batch`` on NumPy and C from the same inputs: same bits."""
    n = len(out) // nrep
    results = []
    for k in (NUMPY_SUITE, compiled):
        o = out.copy()
        assert k.settle_batch(solver, stage, o, src, nrep, n) is o
        results.append(o)
    assert_same_bits(results[1], results[0])
    return results[0]


def stacked(rng, model, nrep, edge, noise):
    """``nrep`` blocks: reference, drifted positions and velocities."""
    top, masses, box, _ = random_waters(rng, model, edge=edge)
    ref = np.concatenate([random_waters(rng, model, edge=edge)[3] for _ in range(nrep)])
    pos = box.wrap(ref + rng.normal(0.0, noise, ref.shape))
    vel = rng.normal(0.0, 0.05, ref.shape)
    return ConstraintSolver(top, masses, box), ref, pos, vel


def residuals(solver, pos, vel, nrep):
    n = len(pos) // nrep
    i, j = solver.idx[:, 0], solver.idx[:, 1]
    geo = vdot = 0.0
    for r in range(nrep):
        p, v = pos[r * n : (r + 1) * n], vel[r * n : (r + 1) * n]
        d = solver.box.minimum_image(p[i] - p[j])
        geo = max(geo, solver.max_residual(p))
        vdot = max(vdot, float(np.max(np.abs(np.sum(d * (v[i] - v[j]), axis=1)))))
    return geo, vdot


@given(
    seed=st.integers(0, 2**31 - 1),
    nrep=st.sampled_from([1, 3]),
    model=st.sampled_from([TIP3P, TIP4PEW]),
    edge=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_numpy_and_c_agree_bitwise_and_are_rigid(compiled, seed, nrep, model, edge):
    rng = np.random.default_rng(seed)
    solver, ref, pos, vel = stacked(rng, model, nrep, edge, noise=0.03)
    assert len(solver.waters) == WATERS and not len(solver.shake_idx)
    new_pos = both_tiers(compiled, solver, "positions", pos, ref, nrep)
    new_vel = both_tiers(compiled, solver, "velocities", vel, new_pos, nrep)
    geo, vdot = residuals(solver, new_pos, new_vel, nrep)
    assert geo <= GEOMETRY_BOUND
    assert vdot <= VELOCITY_BOUND
    if model.four_site:  # the massless M sites are not SETTLE's to move
        m_sites = np.arange(len(pos)) % 4 == 3
        assert_same_bits(new_pos[m_sites], pos[m_sites])
        assert_same_bits(new_vel[m_sites], vel[m_sites])


def test_aliased_reference_is_read_before_it_is_written(compiled):
    """``out is src`` (the minimiser's ``shake(pos, pos)``): same bits as
    with a separate copy of the reference."""
    rng = np.random.default_rng(4)
    solver, _, pos, _ = stacked(rng, TIP3P, 1, True, noise=0.03)
    want = pos.copy()
    NUMPY_SUITE.settle_batch(solver, "positions", want, pos.copy(), 1, len(pos))
    for k in (NUMPY_SUITE, compiled):
        got = pos.copy()
        k.settle_batch(solver, "positions", got, got, 1, len(pos))
        assert_same_bits(got, want)


def test_non_contiguous_source_gives_the_same_bits(compiled):
    """A Fortran-ordered reference is copied for C, and the copy outlives
    the call (under ASan a freed copy is a use-after-free)."""
    rng = np.random.default_rng(6)
    solver, ref, pos, vel = stacked(rng, TIP3P, 3, True, noise=0.03)
    for stage, out, src in (("positions", pos, ref), ("velocities", vel, pos)):
        want = out.copy()
        NUMPY_SUITE.settle_batch(solver, stage, want, src, 3, len(out) // 3)
        got = out.copy()
        compiled.settle_batch(solver, stage, got, np.asfortranarray(src), 3, len(out) // 3)
        assert_same_bits(got, want)


def settle_both(compiled, solver, stage, out, src):
    """``settle_batch`` of one block on NumPy and C: same bits, and the
    same degenerate molecule (or none)."""
    results = []
    for k in (NUMPY_SUITE, compiled):
        o, bad = out.copy(), None
        try:
            k.settle_batch(solver, stage, o, src, 1, len(o))
        except DegenerateWaterError as err:
            bad = err.molecule
        results.append((o, bad))
    assert results[1][1] == results[0][1]
    assert_same_bits(results[1][0], results[0][0])
    return results[0][0]


def edge_case(rng, mols, half):
    """Waters ``mols`` (O first, at the origin) with every O coordinate a
    zero of random sign, so each O–H difference is exactly an H
    coordinate, in the box of half-lengths ``half``."""
    pos = np.concatenate(mols)
    pos[0::3] = rng.choice([0.0, -0.0], (len(mols), 3))
    n = len(mols)
    top = Topology(3 * n)
    for m in range(n):
        add_water_to_topology(top, 3 * m, TIP3P)
    return ConstraintSolver(top, np.tile(water_masses(TIP3P), n), Box(2.0 * half)), pos


def test_half_box_edges_and_signed_zeros(compiled):
    """``rk_min_image`` (SETTLE's minimum image) divides only outside the
    half box; on its edge it must still be ``Box.minimum_image``'s bits.

    One water and its eight reflections put O–H differences on exactly
    ``±L/2``; copies with the edge H moved one ulp inward (no division)
    and outward (the division, which wraps that H, so the copy may be
    degenerate on both tiers alike) sit either side.  Waters in the
    y–z plane make every x difference a zero of either sign.  Positions
    equal to the reference keep the position step's current differences
    on the same edges."""
    rng = np.random.default_rng(9)
    local = water_site_positions(TIP3P)
    local = local - local[0]
    mol = local @ rotation(rng).T
    mols = []
    for signs in itertools.product([1.0, -1.0], repeat=3):
        m = mol * signs
        edge = np.argmax(np.abs(m[1:]), axis=0) + 1
        for toward in (None, 0.0, np.inf):
            c = m.copy()
            if toward is not None:
                for k in range(3):
                    c[edge[k], k] = np.nextafter(c[edge[k], k], np.copysign(toward, c[edge[k], k]))
            mols.append(c)
    planar = []
    for angle in rng.uniform(0.0, 2 * np.pi, 8):
        turn = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(angle), -np.sin(angle)],
                         [0.0, np.sin(angle), np.cos(angle)]])
        p = local[:, [2, 0, 1]] @ turn.T  # the TIP3P plane is z = 0
        p[:, 0] = rng.choice([0.0, -0.0], 3)
        planar.append(p)
    edge_half = np.max(np.abs(mol[1:]), axis=0)  # an O–H difference is on ±L/2
    plane_half = np.array([1.0, 1.0, 1.0])  # every y–z difference inside
    for family, half in ((mols, edge_half), (planar, plane_half)):
        solver, ref = edge_case(rng, family, half)
        d = np.delete(ref, np.s_[0::3], axis=0) - ref[0::3].repeat(2, axis=0)
        if family is mols:
            for k in range(3):
                assert {-1, 0, 1} <= set(np.sign(np.abs(d[:, k]) - half[k]).astype(int))
        else:
            assert np.all(d[:, 0] == 0.0) and np.all(np.abs(d[:, 1:]) < 1.0)
            assert np.any(np.signbit(d[:, 0])) and not np.all(np.signbit(d[:, 0]))
        new_pos = settle_both(compiled, solver, "positions", ref.copy(), ref)
        vel = rng.normal(0.0, 0.05, ref.shape)
        if family is planar:
            vel[:, 0] = rng.choice([0.0, -0.0], len(ref))
        settle_both(compiled, solver, "velocities", vel, new_pos)


def shake_twin(top, masses, box):
    """The same constraints with every second H one ulp heavier: no rigid
    water, so SHAKE / RATTLE sweep them all, to convergence."""
    twin_masses = masses.copy()
    twin_masses[2::3] = np.nextafter(twin_masses[2::3], np.inf)
    twin = ConstraintSolver(top, twin_masses, box, iterations=2000)
    assert not len(twin.waters)
    return twin


@given(seed=st.integers(0, 2**31 - 1), edge=st.booleans())
@settings(max_examples=15, deadline=None)
def test_agrees_with_converged_shake_and_rattle(seed, edge):
    rng = np.random.default_rng(seed)
    top, masses, box, ref = random_waters(rng, edge=edge)
    solver = ConstraintSolver(top, masses, box)
    twin = shake_twin(top, masses, box)
    pos = box.wrap(ref + rng.normal(0.0, 0.03, ref.shape))
    vel = rng.normal(0.0, 0.05, ref.shape)

    settled, swept = pos.copy(), pos.copy()
    solver.shake(settled, ref)
    twin.shake(swept, ref, tol=1e-15)
    assert np.max(np.abs(box.minimum_image(settled - swept))) <= 1e-12

    v_settled, v_swept = vel.copy(), vel.copy()
    solver.rattle(v_settled, settled)
    twin.rattle(v_swept, settled, tol=1e-17)
    assert np.max(np.abs(v_settled - v_swept)) <= 1e-14


@pytest.mark.parametrize("suite", ["numpy", "compiled"])
def test_degenerate_molecule_raises_and_is_left_as_it_was(compiled, suite):
    """Water 5 of block 2 has its O pushed 1 A out of its reference
    plane: the tilt that would match it needs ``sin(phi) > 1``.  The
    error names it; it keeps its input bits and every other molecule,
    in every block, is solved."""
    k = NUMPY_SUITE if suite == "numpy" else compiled
    rng = np.random.default_rng(11)
    solver, ref, pos, _ = stacked(rng, TIP3P, 3, False, noise=0.01)
    n = 3 * WATERS
    o = 2 * n + 3 * 5
    normal = np.cross(ref[o + 1] - ref[o], ref[o + 2] - ref[o])
    pos[o] = ref[o] + normal / np.linalg.norm(normal)
    before = pos.copy()
    with pytest.raises(DegenerateWaterError, match=r"water 5 \(atoms 15, 16, 17\) of block 2") as err:
        k.settle_batch(solver, "positions", pos, ref, 3, n)
    assert (err.value.block, err.value.molecule, err.value.atoms) == (2, 5, (15, 16, 17))
    assert_same_bits(pos[o : o + 3], before[o : o + 3])
    assert np.all(np.isfinite(pos))
    solved = np.ones(3 * WATERS, dtype=bool)
    solved[15:18] = False
    for r in range(3):
        block = pos[r * n : (r + 1) * n]
        cons = solved if r == 2 else np.ones_like(solved)
        i, j = solver.idx[cons, 0], solver.idx[cons, 1]
        d = solver.box.minimum_image(block[i] - block[j])
        r2 = np.sum(d * d, axis=1)
        assert np.max(np.abs(r2 - solver.dist[cons] ** 2)) <= GEOMETRY_BOUND


@pytest.mark.parametrize("suite", ["numpy", "compiled"])
def test_singular_velocity_system_raises(compiled, suite):
    """Water 1's H1 on top of its O: the O–H1 direction is zero, the 3x3
    system singular (its determinant exactly 0)."""
    k = NUMPY_SUITE if suite == "numpy" else compiled
    rng = np.random.default_rng(2)
    top, masses, box, pos = random_waters(rng)
    solver = ConstraintSolver(top, masses, box)
    pos[4] = pos[3]
    vel = rng.normal(0.0, 0.05, pos.shape)
    before = vel.copy()
    with pytest.raises(DegenerateWaterError, match="velocities: water 1 "):
        k.settle_batch(solver, "velocities", vel, pos, 1, len(pos))
    assert_same_bits(vel[3:6], before[3:6])
    assert not np.array_equal(vel[:3], before[:3])


class CallCounter:
    """A suite that counts which constraint primitives it is asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name.endswith("_batch"):
            def counted(*args):
                self.calls.append(name)
                return attr(*args)
            return counted
        return attr


def test_water_and_peptide_send_only_the_peptide_to_the_sweeps():
    system = build_solvated_protein(n_residues=3, side=11.0, seed=3)
    suite = CallCounter(NUMPY_SUITE)
    solver = ConstraintSolver(system.topology, system.masses, system.box, kernels=suite)
    waters = system.topology.constraint_idx.shape[0] - len(solver.shake_idx)
    assert len(solver.waters) > 0 and waters == 3 * len(solver.waters)
    swept = set(solver.shake_idx.ravel().tolist())
    assert swept and not swept & set(solver.waters.ravel().tolist())
    assert np.all(system.masses[solver.shake_idx].min(axis=1) < 1.1)  # X–H bonds
    rng = np.random.default_rng(0)
    pos = system.positions + rng.normal(0.0, 0.01, system.positions.shape)
    solver.shake(pos, system.positions)
    solver.rattle(rng.normal(0.0, 0.05, pos.shape), pos)
    assert suite.calls == ["settle_batch", "shake_batch", "settle_batch", "rattle_batch"]
    assert solver.max_residual(pos) < 1e-9


def test_water_only_system_never_sweeps():
    system = build_water_box(n_molecules=24, seed=1)
    suite = CallCounter(NUMPY_SUITE)
    solver = ConstraintSolver(system.topology, system.masses, system.box, kernels=suite)
    pos = system.positions.copy()
    solver.shake(pos, system.positions)
    solver.rattle(np.zeros_like(pos), pos)
    assert suite.calls == ["settle_batch", "settle_batch"]
