"""Every suite's pair walk against its oracle, for the property tests
(and the candidate generator and table layouts the float-path
properties share).

The oracle is the one NumPy table evaluation, written out from public
parts with literal divisions throughout: the minimum-image cutoff
filter, :func:`~repro.forcefield.nonbonded_real_space_tabulated` over
the survivors, the spec's codec, and ``np.add.at`` / ``np.subtract.at``.
It takes the candidates as ``(i, j)`` pairs; the suites take them as
the Verlet list's rows (:func:`in_rows`).
"""

import numpy as np

from repro.forcefield import nonbonded_real_space_tabulated
from repro.functions import KernelTableSet
from repro.geometry import Box, NeighborPairs
from repro.geometry.neighborlist import pairs_to_rows


def candidates(rng, n_atoms, blocks, n_cand):
    """``n_cand`` pairs i < j inside their block, sorted by (i, j)."""
    block = rng.integers(0, blocks, n_cand)
    a = rng.integers(0, n_atoms, n_cand)
    b = (a + rng.integers(1, n_atoms, n_cand)) % n_atoms
    ii = block * n_atoms + np.minimum(a, b)
    jj = block * n_atoms + np.maximum(a, b)
    order = np.lexsort((jj, ii))
    return ii[order], jj[order]


def islands(rng, n_atoms, n_near=20):
    """``(wrapped, ii, jj, lengths)`` whose candidate list has whole walk
    blocks without a survivor.

    Atoms ``0 .. n_near-1`` sit inside a 2 A ball; the rest sit half a
    40 A box away from it.  Each near atom's row lists its near
    partners (all inside a 4 A cutoff) and then every far atom (all
    outside), sorted by ``(i, j)``: with ``n_atoms - n_near`` >= 600 far
    partners per row, every row holds at least one block of 256
    candidates that the filter empties, between blocks it does not.
    """
    lengths = np.array([40.0, 40.0, 40.0])
    wrapped = np.empty((n_atoms, 3))
    wrapped[:n_near] = 5.0 + rng.uniform(0, 1, (n_near, 3)) * 1.1
    wrapped[n_near:] = [25.0, 25.0, 25.0] + rng.uniform(-3, 3, (n_atoms - n_near, 3))
    ii, jj = np.triu_indices(n_atoms, k=1)
    keep = ii < n_near
    return wrapped, ii[keep].astype(np.int64), jj[keep].astype(np.int64), lengths


def divided_tables(tables) -> KernelTableSet:
    """``tables`` with the electrostatic pair on the dispersion layout
    (widths 2^-k / 3: no power-of-two width, so the table offset keeps
    its division)."""
    ts = KernelTableSet(tables.cutoff, tables.r_floor)
    ts.tables = dict(
        tables.tables, elec_f=tables.tables["lj12_f"], elec_e=tables.tables["lj12_e"]
    )
    return ts


def oracle_pairs(spec, wrapped, ii, jj, lengths):
    """``(nb, codes)``: the force field's evaluation of the candidates
    inside the spec's cutoff, and its rows quantized by the spec's codec."""
    dx = Box(lengths).minimum_image(wrapped[ii] - wrapped[jj])
    r2 = np.sum(dx * dx, axis=1)
    keep = r2 < spec.cutoff2
    nb = nonbonded_real_space_tabulated(
        NeighborPairs(i=ii[keep], j=jj[keep], dx=dx[keep], r2=r2[keep]),
        spec.charges, spec.types, spec.lj, spec.tables,
    )
    return nb, spec.codec.quantize_round_only(nb.force)


def numpy_walk(spec, wrapped, ii, jj, lengths, acc):
    """``(acc, oi, oj, e_lj, e_coul)`` of the oracle."""
    nb, codes = oracle_pairs(spec, wrapped, ii, jj, lengths)
    acc = acc.copy()
    with np.errstate(over="ignore"):
        np.add.at(acc, nb.i, codes)
        np.subtract.at(acc, nb.j, codes)
    return acc, nb.i, nb.j, nb.e_lj_pairs, nb.e_coul_pairs


def in_rows(ii, jj, n_atoms):
    """``(ii, jj, row_ptr, partners)``: the candidates in row order (a
    stable sort by ``i``) as pairs and as the Verlet list's rows."""
    order = np.argsort(ii, kind="stable")
    ii, jj = ii[order], jj[order]
    return (ii, jj, *pairs_to_rows(ii, jj, n_atoms))


def suite_walk(suite, spec, wrapped, row_ptr, partners, lengths, acc, headroom=0):
    """The same five arrays from ``suite.pair_walk`` over the rows (outputs
    oversized by ``headroom``, as the force calculator's scratch is)."""
    n = len(partners) + headroom
    oi = np.empty(n, dtype=np.int64)
    oj = np.empty(n, dtype=np.int64)
    e_lj = np.empty(n)
    e_coul = np.empty(n)
    acc = acc.copy()
    m = suite.pair_walk(spec, wrapped, row_ptr, partners, lengths, acc, oi, oj, e_lj, e_coul)
    return acc, oi[:m], oj[:m], e_lj[:m], e_coul[:m]


def assert_walk_matches(suites, spec, wrapped, ii, jj, lengths, acc):
    """Every suite's walk over the candidates' rows equals the oracle over
    the same candidates in row order, bit for bit; returns the pair count."""
    ii, jj, row_ptr, partners = in_rows(ii, jj, len(wrapped))
    want = numpy_walk(spec, wrapped, ii, jj, lengths, acc)
    for suite in suites:
        got = suite_walk(suite, spec, wrapped, row_ptr, partners, lengths, acc, headroom=3)
        for name, x, y in zip(("acc", "oi", "oj", "e_lj", "e_coul"), got, want):
            np.testing.assert_array_equal(x, y, err_msg=f"{suite.tier}: {name}")
    return len(want[1])
