"""The compiled pair walk against its oracle, for the property tests
(and the candidate generator the float-path properties share).

The oracle is the three NumPy passes the walk replaces —
``NumpyKernels.pair_filter`` -> ``pair_table_codes`` -> ``deposit_pairs``
— run with literal divisions throughout.
"""

import numpy as np

from repro.kernels import get_suite


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


def numpy_walk(spec, wrapped, ii, jj, lengths, acc):
    """``(acc, oi, oj, e_lj, e_coul)`` of the three NumPy passes."""
    k = get_suite("numpy")
    n = len(ii)
    oi = np.empty(n, dtype=np.int64)
    oj = np.empty(n, dtype=np.int64)
    odx = np.empty((n, 3))
    or2 = np.empty(n)
    m = k.pair_filter(wrapped, ii, jj, lengths, spec.cutoff2, oi, oj, odx, or2)
    codes = np.empty((m, 3), dtype=np.int64)
    e_lj = np.empty(m)
    e_coul = np.empty(m)
    k.pair_table_codes(spec, oi[:m], oj[:m], odx[:m], or2[:m], codes, e_lj, e_coul)
    acc = acc.copy()
    k.deposit_pairs(acc, oi[:m], oj[:m], codes)
    return acc, oi[:m], oj[:m], e_lj, e_coul


def compiled_walk(suite, spec, wrapped, ii, jj, lengths, acc, headroom=0):
    """The same five arrays from ``suite.pair_walk`` (outputs oversized by
    ``headroom``, as the force calculator's scratch is)."""
    n = len(ii) + headroom
    oi = np.empty(n, dtype=np.int64)
    oj = np.empty(n, dtype=np.int64)
    e_lj = np.empty(n)
    e_coul = np.empty(n)
    acc = acc.copy()
    m = suite.pair_walk(spec, wrapped, ii, jj, lengths, acc, oi, oj, e_lj, e_coul)
    return acc, oi[:m], oj[:m], e_lj[:m], e_coul[:m]


def assert_walk_matches(suites, spec, wrapped, ii, jj, lengths, acc):
    """Every suite's walk equals the oracle bit for bit; returns the pair count."""
    want = numpy_walk(spec, wrapped, ii, jj, lengths, acc)
    for suite in suites:
        got = compiled_walk(suite, spec, wrapped, ii, jj, lengths, acc, headroom=3)
        for name, x, y in zip(("acc", "oi", "oj", "e_lj", "e_coul"), got, want):
            np.testing.assert_array_equal(x, y, err_msg=name)
    return len(want[1])
