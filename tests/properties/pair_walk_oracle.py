"""Every suite's pair walk against its oracle, for the property tests
(and the candidate generator and table layouts the float-path
properties share).

The oracle is the one NumPy table evaluation, written out from public
parts with literal divisions throughout: the cutoff filter on the
position codes' minimum-image displacements
(:meth:`~repro.geometry.PositionCodec.displacement`),
:func:`~repro.forcefield.nonbonded_real_space_tabulated` over the
survivors, the spec's codec, and ``np.add.at`` / ``np.subtract.at``.
It takes the candidates as ``(i, j)`` pairs; the suites take them as
the Verlet list's rows (:func:`in_rows`).
"""

import numpy as np

from repro.forcefield import ENERGY_CODEC, nonbonded_real_space_tabulated
from repro.functions import KernelTableSet
from repro.geometry import Box, NeighborPairs, PositionCodec
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


def encode(positions, lengths):
    """``positions`` as the position codes of the box ``lengths``."""
    return PositionCodec(Box(np.asarray(lengths, dtype=np.float64))).encode(positions)


def islands(rng, n_atoms, n_near=20):
    """``(codes, ii, jj, lengths)`` whose candidate list has whole walk
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
    return encode(wrapped, lengths), ii[keep].astype(np.int64), jj[keep].astype(np.int64), lengths


def edge_geometry(rng, n_atoms):
    """``(codes, lengths, near)`` for :func:`edge_rows`: atoms in
    alternate runs of 8 ids (``near``: ids 0-7, 16-23, ...) sit inside a
    1.1 A cube, so every pair of them is within a 4 A cutoff; the others
    sit around the point half a 40 A box away, out of range of every
    near atom."""
    lengths = np.array([40.0, 40.0, 40.0])
    near = (np.arange(n_atoms) // 8) % 2 == 0
    wrapped = np.empty((n_atoms, 3))
    wrapped[near] = 5.0 + rng.uniform(0, 1.1, (near.sum(), 3))
    wrapped[~near] = 25.0 + rng.uniform(-3, 3, ((~near).sum(), 3))
    return encode(wrapped, lengths), lengths, near


def edge_rows(rng, near, has_lj):
    """``(ii, jj)``: rows, each of a distinct near atom ``i`` and sorted
    by ``j``, that put the walk's 8-candidate selection on its edges over
    :func:`edge_geometry` (a pair survives exactly when both atoms are
    near; ``has_lj[a]``: atom ``a``'s type has LJ with itself and with
    nothing else, as water's O).

    Rows of 0, 1, 7, 8, 9, 255, 256 and 257 random candidates; a row of
    256 whose 8-candidate groups are alternately all alive and all dead;
    an all-alive and an all-dead row longer than one 256-candidate walk
    block; a row whose survivors are all LJ-free (an atom without LJ);
    and a row whose only survivors are LJ pairs.
    """
    n_atoms = len(near)
    ids = np.arange(n_atoms)
    near_ids, far_ids = ids[near], ids[~near]
    owners = iter(near_ids[near_ids < 64])
    rows = []

    def row(i, js):
        rows.append((i, np.sort(np.setdiff1d(js, [i]))))

    for n in (0, 1, 7, 8, 9, 255, 256, 257):
        i = next(owners)
        row(i, rng.choice(np.setdiff1d(ids, [i]), n, replace=False))
    row(next(owners), ids[64:320])                      # groups of 8: alive, dead, ...
    row(next(owners), near_ids[near_ids >= 64][:260])   # all alive, past one walk block
    row(next(owners), far_ids[:260])                    # all dead, past one walk block
    lj_free = near_ids[~has_lj[near_ids] & (near_ids >= 64)]
    row(lj_free[0], np.concatenate([near_ids[near_ids >= 64][:40], far_ids[:40]]))
    lj = near_ids[has_lj[near_ids] & (near_ids >= 64)]
    row(lj[0], np.concatenate([lj[1:41], far_ids[40:80]]))
    ii = np.concatenate([np.full(len(js), i, dtype=np.int64) for i, js in rows])
    jj = np.concatenate([js for _, js in rows]).astype(np.int64)
    return ii, jj


def divided_tables(tables) -> KernelTableSet:
    """``tables`` with the electrostatic pair on the dispersion layout
    (widths 2^-k / 3: no power-of-two width, so the table offset keeps
    its division)."""
    ts = KernelTableSet(tables.cutoff)
    ts.tables = dict(
        tables.tables, elec_f=tables.tables["lj12_f"], elec_e=tables.tables["lj12_e"]
    )
    return ts


def oracle_pairs(spec, codes, ii, jj, lengths):
    """``(nb, codes)``: the force field's evaluation of the candidates
    inside the spec's cutoff at the position codes ``codes``, and its rows
    quantized by the spec's codec."""
    dx = PositionCodec(Box(lengths)).displacement(codes[ii], codes[jj])
    r2 = np.sum(dx * dx, axis=1)
    keep = r2 < spec.cutoff2
    nb = nonbonded_real_space_tabulated(
        NeighborPairs(i=ii[keep], j=jj[keep], dx=dx[keep], r2=r2[keep]),
        spec.charges, spec.types, spec.lj, spec.tables,
    )
    return nb, spec.codec.quantize_round_only(nb.force)


def oracle_sets(nb, tags, n_atoms, words):
    """The home-box sets of the pairs ``nb``: a boolean ``(atom, box)``
    matrix per side — row ``i`` marks ``tags[j]``, row ``j`` marks
    ``tags[i]`` — packed into ``words`` little-endian uint64 per atom."""
    sets = np.zeros((2, n_atoms, 64 * words), dtype=bool)
    sets[0, nb.i, tags[nb.j]] = True
    sets[1, nb.j, tags[nb.i]] = True
    packed = np.packbits(sets, axis=2, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def walk_tags(n_atoms, words=2):
    """A fixed tag per atom spread over every word of ``words``-word sets."""
    return (np.arange(n_atoms, dtype=np.int64) * 37) % (64 * words)


def numpy_walk(spec, codes, ii, jj, lengths, acc, tags=None, words=2):
    """``(acc, e_rows, counts, sets)`` of the oracle: the energies
    quantized by ``ENERGY_CODEC`` and summed into each pair's row
    ``i``, the survivors counted per row, and with ``tags`` the
    home-box sets (:func:`oracle_sets`)."""
    nb, fcodes = oracle_pairs(spec, codes, ii, jj, lengths)
    acc = acc.copy()
    n = len(codes)
    e_rows = np.zeros((n, 2), dtype=np.int64)
    with np.errstate(over="ignore"):
        np.add.at(acc, nb.i, fcodes)
        np.subtract.at(acc, nb.j, fcodes)
        for col, e in enumerate((nb.e_lj_pairs, nb.e_coul_pairs)):
            np.add.at(e_rows[:, col], nb.i, ENERGY_CODEC.quantize_round_only(e))
    sets = None if tags is None else oracle_sets(nb, tags, n, words)
    return acc, e_rows, np.bincount(nb.i, minlength=n), sets


def in_rows(ii, jj, n_atoms):
    """``(ii, jj, row_ptr, partners)``: the candidates in row order (a
    stable sort by ``i``) as pairs and as the Verlet list's rows."""
    order = np.argsort(ii, kind="stable")
    ii, jj = ii[order], jj[order]
    return (ii, jj, *pairs_to_rows(ii, jj, n_atoms))


def suite_walk(suite, spec, codes, row_ptr, partners, lengths, acc, tags=None, words=2,
               energies=True):
    """The same four arrays from ``suite.pair_walk`` over the rows (``None``
    for the energy rows of a force-only walk, ``energies=False``).
    ``e_rows``, ``counts`` and the sets start as garbage: the walk must
    write every row (and, without ``tags``, leave the sets alone)."""
    n_atoms = len(codes)
    e_rows = np.full((n_atoms, 2), -7, dtype=np.int64) if energies else None
    counts = np.full(n_atoms, -7, dtype=np.int64)
    sets = np.full((2, n_atoms, words), 7, dtype=np.uint64)
    acc = acc.copy()
    m = suite.pair_walk(spec, codes, row_ptr, partners, lengths, acc, e_rows, counts,
                        *(() if tags is None else (tags, sets)))
    assert m == counts.sum()
    if tags is None:
        assert np.all(sets == 7)
        return acc, e_rows, counts, None
    return acc, e_rows, counts, sets


def assert_walk_matches(suites, spec, codes, ii, jj, lengths, acc, words=2, slack=0):
    """Every suite's walk over the candidates' rows equals the oracle over
    the same candidates in row order, bit for bit, with home-box sets of
    ``words`` words built and without, with energies and force-only (the
    same acc, counts and sets); returns the pair count.  ``slack`` extra
    partner entries past the rows' end stand for the rebuild's buffer,
    which runs past the candidate count."""
    ii, jj, row_ptr, partners = in_rows(ii, jj, len(codes))
    partners = np.concatenate([partners, np.full(slack, -1, dtype=np.int32)])
    tags = walk_tags(len(codes), words)
    want = numpy_walk(spec, codes, ii, jj, lengths, acc, tags, words)
    names = ("acc", "e_rows", "counts", "sets")
    for suite in suites:
        for tagged in (tags, None):
            for energies in (True, False):
                got = suite_walk(suite, spec, codes, row_ptr, partners, lengths, acc,
                                 tagged, words, energies)
                for name, x, y in zip(names, got, want):
                    if x is not None:
                        np.testing.assert_array_equal(x, y, err_msg=f"{suite.tier}: {name}")
                assert (got[1] is None) != energies
                assert (got[3] is None) == (tagged is None)
    return int(want[2].sum())
