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

from repro.forcefield import ENERGY_CODEC, nonbonded_real_space_tabulated
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
    ts = KernelTableSet(tables.cutoff)
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
    """``(acc, e_rows, counts, oi, oj)`` of the oracle: the energies
    quantized by ``ENERGY_CODEC`` and summed into each pair's row
    ``i``, the survivors counted per row."""
    nb, codes = oracle_pairs(spec, wrapped, ii, jj, lengths)
    acc = acc.copy()
    n = len(wrapped)
    e_rows = np.zeros((n, 2), dtype=np.int64)
    with np.errstate(over="ignore"):
        np.add.at(acc, nb.i, codes)
        np.subtract.at(acc, nb.j, codes)
        for col, e in enumerate((nb.e_lj_pairs, nb.e_coul_pairs)):
            np.add.at(e_rows[:, col], nb.i, ENERGY_CODEC.quantize_round_only(e))
    return acc, e_rows, np.bincount(nb.i, minlength=n), nb.i, nb.j


def in_rows(ii, jj, n_atoms):
    """``(ii, jj, row_ptr, partners)``: the candidates in row order (a
    stable sort by ``i``) as pairs and as the Verlet list's rows."""
    order = np.argsort(ii, kind="stable")
    ii, jj = ii[order], jj[order]
    return (ii, jj, *pairs_to_rows(ii, jj, n_atoms))


def suite_walk(suite, spec, wrapped, row_ptr, partners, lengths, acc, headroom=0,
               keep_pairs=True):
    """The same five arrays from ``suite.pair_walk`` over the rows (pair
    outputs oversized by ``headroom``, as the force calculator's scratch
    is, and ``None`` without ``keep_pairs``).  ``e_rows`` and ``counts``
    start as garbage: the walk must write every row."""
    n_atoms, n = len(wrapped), len(partners) + headroom
    e_rows = np.full((n_atoms, 2), -7, dtype=np.int64)
    counts = np.full(n_atoms, -7, dtype=np.int64)
    oi = oj = None
    if keep_pairs:
        oi, oj = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    acc = acc.copy()
    m = suite.pair_walk(spec, wrapped, row_ptr, partners, lengths, acc, e_rows, counts, oi, oj)
    assert m == counts.sum()
    return acc, e_rows, counts, *(None if o is None else o[:m] for o in (oi, oj))


def assert_walk_matches(suites, spec, wrapped, ii, jj, lengths, acc):
    """Every suite's walk over the candidates' rows equals the oracle over
    the same candidates in row order, bit for bit, with the surviving
    pairs written and without; returns the pair count."""
    ii, jj, row_ptr, partners = in_rows(ii, jj, len(wrapped))
    want = numpy_walk(spec, wrapped, ii, jj, lengths, acc)
    names = ("acc", "e_rows", "counts", "oi", "oj")
    for suite in suites:
        for keep in (True, False):
            got = suite_walk(suite, spec, wrapped, row_ptr, partners, lengths, acc,
                             headroom=3, keep_pairs=keep)
            for name, x, y in zip(names, got, want):
                if x is not None:
                    np.testing.assert_array_equal(x, y, err_msg=f"{suite.tier}: {name}")
            assert (got[3] is None) == (not keep)
    return len(want[3])
