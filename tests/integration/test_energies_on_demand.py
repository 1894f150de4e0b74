"""Energies on demand: a step whose energies nobody records walks force-only.

``run_loop`` asks the force evaluation for energies only on the steps it
records (``advance(energies)``); every other evaluation's
``ForceReport.energies`` resolve on first read, through one more walk
over the report's own positions — on the live list while it has not
been rebuilt since, else on private rows — and decode to the dict,
key order and bits the eager evaluation returns (DESIGN.md, "Force-only
steps and lazy energies").  Checked on a solo ``Simulation``, a 3-lane
ensemble and an 8-node machine:

* a lazy read equals the eager dict (``float.hex``, key order), and the
  state codes do not depend on which steps asked for energies;
* a read after an intervening rebuild goes through private rows and
  leaves the live list's ``n_builds`` unchanged;
* energy logs (the machine: its eager energies) are byte-identical to
  the ones recorded before force-only steps existed (pinned digests);
* a step with no record runs no energy walk and no ``_decode``, and a
  recorded step decodes its energies without a second walk.
"""

import hashlib

import numpy as np
import pytest

from repro.core import MDParams, Simulation
from repro.core.forces import ForceCalculator
from repro.core.integrator import FixedPointConfig
from repro.ensemble import EnsembleSimulation
from repro.ewald import GSEParams
from repro.io import EnergyLogWriter
from repro.machine import AntonMachine
from repro.systems import build_water_box

#: sha256 of the energy logs (solo; lanes 0, 1, 2 of the ensemble,
#: concatenated) and of the machine's energy hex strings, as recorded by
#: the engine before force-only steps existed, when every step computed
#: its energies eagerly.
SOLO_LOG_SHA256 = "c399e6fa23245faf15ae1883904d4348e04e1e731b5c6d2247a6514a218cc85f"
ENSEMBLE_LOG_SHA256 = "0eb5cc6c809fee101d926781f74d4a764ecc7b9886b31029d956bcc96193e38d"
MACHINE_ENERGIES_SHA256 = "e5795cb82d701fdfdb2980d6c346cd5878c3742c50a770dd168350e1f1b89c83"

STEPS = 8


def solo_params(system, cutoff=3.52):
    return MDParams(cutoff=cutoff, mesh=GSEParams.smallest_mesh(system.box, cutoff),
                    long_range_every=2)


def make_solo():
    system = build_water_box(n_molecules=16, seed=3)
    system.initialize_velocities(300.0, seed=1)
    return Simulation(system, solo_params(system), dt=2.0)


def make_ensemble():
    system = build_water_box(n_molecules=16, seed=3)
    return EnsembleSimulation(system, solo_params(system), dt=2.0, seeds=[1, 2, 3],
                              temperature=300.0)


def make_machine():
    system = build_water_box(n_molecules=64, seed=3)
    system.initialize_velocities(300.0, seed=2)
    params = MDParams(cutoff=5.0, mesh=(32, 32, 32), long_range_every=2)
    return AntonMachine(system, params, n_nodes=8, dt=2.0)


ENGINES = {"solo": make_solo, "ensemble": make_ensemble, "machine": make_machine}


def engine_of(sim):
    """The run loop's engine: a Simulation's, or the engine itself."""
    return getattr(sim, "engine", sim)


def advance(sim, steps, energies):
    """``steps`` steps through the engine's ``advance``, as the run loop
    takes them, asking for energies on every step or on none."""
    for _ in range(steps):
        engine_of(sim).advance(energies)


def hexes(energies) -> list:
    """``(key, hex)`` of every entry, per lane for an ensemble's arrays."""
    return [(k, [float(x).hex() for x in np.atleast_1d(v)]) for k, v in energies.items()]


def close(sim):
    if isinstance(sim, AntonMachine):
        sim.close()


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_lazy_read_equals_the_eager_dict(kind):
    lazy, eager = ENGINES[kind](), ENGINES[kind]()
    try:
        for _ in range(STEPS // 2):  # long-range and short-only steps alike
            advance(lazy, 1, False)
            advance(eager, 1, True)
            got = lazy.integrator.last_info
            assert callable(got._energies)  # not yet computed
            assert hexes(got.energies) == hexes(eager.integrator.last_info.energies)
        np.testing.assert_array_equal(lazy.integrator.X, eager.integrator.X)
        np.testing.assert_array_equal(lazy.integrator.V, eager.integrator.V)
    finally:
        close(lazy), close(eager)


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_read_after_a_rebuild_walks_private_rows(kind, monkeypatch):
    lazy, eager = ENGINES[kind](), ENGINES[kind]()
    try:
        advance(lazy, 3, False)
        advance(eager, 3, True)
        report = lazy.integrator.last_info
        nl = lazy.calc.neighbor_list
        nl.build(np.asarray(lazy.integrator.positions) + 0.3)  # an intervening rebuild
        builds = nl.n_builds
        suite = nl.kernels
        rows = []
        build = suite.neighbor_build
        monkeypatch.setattr(suite, "neighbor_build",
                            lambda *a: rows.append(a[-1]) or build(*a), raising=False)
        assert hexes(report.energies) == hexes(eager.integrator.last_info.energies)
        assert nl.n_builds == builds              # the list was not rebuilt ...
        assert len(rows) == 1 and rows[0] is not nl._bufs  # ... the read built its own rows
        # The rebuilt list still steps to the same bits.
        advance(lazy, 2, False)
        advance(eager, 2, False)
        np.testing.assert_array_equal(lazy.integrator.X, eager.integrator.X)
    finally:
        close(lazy), close(eager)


def _log_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def test_solo_energy_log_is_the_eager_one(tmp_path):
    sim = make_solo()
    path = tmp_path / "solo.jsonl"
    with EnergyLogWriter(path) as writer:
        sim.run(STEPS, record_every=2, energy_writer=writer)
    assert _log_digest([path]) == SOLO_LOG_SHA256


def test_ensemble_energy_logs_are_the_eager_ones(tmp_path):
    ens = make_ensemble()
    paths = [tmp_path / f"lane{r}.jsonl" for r in range(3)]
    writers = [EnergyLogWriter(p) for p in paths]
    try:
        ens.run(STEPS, record_every=2, energy_writers=writers)
    finally:
        for w in writers:
            w.close()
    assert _log_digest(paths) == ENSEMBLE_LOG_SHA256


def test_machine_energies_are_the_eager_ones():
    machine = make_machine()
    try:
        machine.step(STEPS)
        h = hashlib.sha256(repr(hexes(machine.integrator.last_info.energies)).encode())
    finally:
        machine.close()
    assert h.hexdigest() == MACHINE_ENERGIES_SHA256


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_unrecorded_steps_decode_nothing_and_walk_once(kind, monkeypatch):
    sim = ENGINES[kind]()
    try:
        advance(sim, 2, False)
        counts = {"decode": 0, "energy_walk": 0, "walks": 0, "walks_with_energies": 0}
        calc_cls = type(sim.calc)
        for name in ("_decode", "_energy_walk"):
            raw = getattr(calc_cls, name)

            def counted(*a, _raw=raw, _key=name.strip("_"), **kw):
                counts[_key] += 1
                return _raw(*a, **kw)

            monkeypatch.setattr(calc_cls, name, counted)
        suite = sim.calc.kernels
        walk = suite.pair_walk

        def counted_walk(spec, wrapped, row_ptr, partners, lengths, acc, e_rows, *rest):
            counts["walks"] += 1
            counts["walks_with_energies"] += e_rows is not None
            return walk(spec, wrapped, row_ptr, partners, lengths, acc, e_rows, *rest)

        monkeypatch.setattr(suite, "pair_walk", counted_walk, raising=False)
        advance(sim, 4, False)
        assert counts == {"decode": 0, "energy_walk": 0, "walks": 4, "walks_with_energies": 0}
        advance(sim, 2, True)  # recorded steps: eager, no second walk
        assert counts["walks"] == 6 and counts["walks_with_energies"] == 2
        assert counts["energy_walk"] == 0 and counts["decode"] > 0
        sim.integrator.last_info.energies  # already resolved: nothing more runs
        assert counts["walks"] == 6 and counts["energy_walk"] == 0
    finally:
        close(sim)


def test_compute_fixed_force_only_report_matches_eager():
    """The calculator on its own: ``compute_fixed(energies=False)`` gives
    the same force codes and a report that resolves to the eager one,
    also at positions the caller may overwrite afterwards (copied)."""
    system = build_water_box(n_molecules=16, seed=3)
    calc = ForceCalculator(system, solo_params(system))
    codec = FixedPointConfig().force_codec()
    x = system.positions.copy()
    codes_eager, eager = calc.compute_fixed(x, codec)
    codes_lazy, lazy = calc.compute_fixed(x, codec, energies=False)
    np.testing.assert_array_equal(codes_lazy, codes_eager)
    x += 0.5  # the caller's array changes; the report kept its own copy
    assert hexes(lazy.energies) == hexes(eager.energies)


def test_potential_energy_is_per_lane_on_an_ensemble():
    """A 3-lane report's ``potential_energy`` is the ``(3,)`` per-lane
    sums, each the potential its lane's energy record holds; one lane's
    (solo is the one-lane ensemble) is a float."""
    ens, solo = make_ensemble(), make_solo()
    advance(ens, 2, True)
    advance(solo, 2, True)
    total = ens.integrator.last_info.potential_energy
    assert isinstance(total, np.ndarray) and total.shape == (3,)
    records = ens.record_energy()
    assert [float(x).hex() for x in total] == [r.potential.hex() for r in records]
    assert isinstance(solo.integrator.last_info.potential_energy, float)
    assert total[0] == solo.integrator.last_info.potential_energy
