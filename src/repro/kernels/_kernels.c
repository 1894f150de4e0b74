/* Compiled hot-loop kernels for the functional machine simulation.
 *
 * Every routine here is a bit-for-bit replica of a NumPy expression in
 * the simulator: same operations, same association order, same rounding
 * (rint == np.rint, round-half-to-even under the default FP
 * environment), and integer accumulation done in uint64 so two's-
 * complement wrap matches NumPy's int64 overflow behaviour instead of
 * tripping C's signed-overflow UB.  Nothing in this file may introduce
 * a fused multiply-add or a reassociated sum: the build compiles with
 * -ffp-contract=off and no -ffast-math, and the property tests compare
 * every output against the NumPy path bitwise.
 *
 * Only primitives an engine pays for in its steps are here.  The SHAKE /
 * RATTLE sweeps (since SETTLE, only a protein's few bonds to H) and the
 * bonded-term deposits have their one form in NumPy on every tier
 * (kernels/suite.py), so they cost no C to keep bit-equal.
 *
 * Division is kept literal (x / L, not x * (1.0 / L)): a reciprocal
 * multiply is not the same IEEE operation and does change bits.  The
 * pair path drops a division only where one of three lemmas proves the
 * replacement is the same IEEE result (rk_image, rk_quantize, rk_offsets
 * below); each falls back to the literal division when its precondition
 * does not hold.
 *
 * The build targets the host's vector ISA (build.py: -march=native), and
 * the hot loops are shaped so the compiler can use it: per-quantity block
 * arrays in the pair walk, fixed-width runs over halo'd z columns in the
 * quantized spread and the gather, contiguous runs in the float spread
 * (the mesh blocks below say why each is the same bits).  That
 * costs no bit.  IEEE add, multiply, divide and rint are correctly
 * rounded per element at every vector width, the flags above leave the
 * compiler no contraction and no reassociation to apply (so it can
 * vectorize element-wise float loops and integer sums, never a float
 * reduction), and (int64)rint(x) converts an integral double exactly,
 * scalar or packed, wherever it is in range — DESIGN.md, vector-width
 * lemma.  There are no intrinsics and no ISA conditionals here: one plain
 * C implementation per kernel, whatever the target.
 *
 * Every kernel is single-threaded and the file holds no mutable global
 * and allocates nothing on the heap: a call touches only the arrays it is
 * handed, scratch included, so Python threads may run kernels
 * concurrently on disjoint outputs and scratch (kernels/suite.py:
 * map_chunks, one mesh scratch per thread).
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Segment lookup: the segment k of u in a layout of nseg segments, the
 * largest k with starts[k] <= u — np.searchsorted(starts, u, side=
 * "right") - 1 for the monotone tier layouts (starts[0] == 0.0, u >= 0).
 *
 * A grid of RK_GRID cells (a power of two, so u * RK_GRID is exact) maps
 * u to grid[g], the segment of the cell's low end g / RK_GRID.  Lemma
 * (fine segment grid): when no cell holds two segment boundaries, the
 * segment of any u in cell g is grid[g] or the next one, and it is the
 * next one exactly when next[grid[g]] (that segment's start) <= u — one
 * compare, no loop.  The grid is fine enough for every table layout the
 * force field builds (the narrowest segment is 2^-13 wide, and a cell
 * 2^-12 wide then holds at most one boundary); rk_seg_init checks the
 * precondition per layout, and a layout that breaks it (or has more
 * than RK_MAX_SEG segments) keeps the scan forward from grid[g]. */
#define RK_GRID 4096
#define RK_MAX_SEG 512

typedef struct {
    int32_t grid[RK_GRID];
    double next[RK_MAX_SEG]; /* next[k] = starts[k + 1]; +inf after the last */
    int one;                 /* the fine-grid lemma holds: one compare */
} rk_seg_lookup;

/* The lookup of a layout whose u never exceeds umax. */
static void rk_seg_init(rk_seg_lookup *t, const double *starts, int64_t nseg, double umax)
{
    int64_t idx = 0;
    for (int64_t g = 0; g < RK_GRID; g++) {
        const double u0 = (double)g / (double)RK_GRID;
        while (idx + 1 < nseg && starts[idx + 1] <= u0)
            idx++;
        t->grid[g] = (int32_t)idx;
    }
    t->one = nseg <= RK_MAX_SEG;
    for (int64_t k = 0; t->one && k < nseg; k++)
        t->next[k] = k + 1 < nseg ? starts[k + 1] : INFINITY;
    for (int64_t g = 0; t->one && g < RK_GRID; g++) {
        /* Cell g holds u < (g + 1) / RK_GRID, and the last cell every u
         * up to umax: the boundary after next[grid[g]] must lie past. */
        const int64_t k = t->grid[g];
        const double hi = (double)(g + 1) / (double)RK_GRID;
        if (k + 2 < nseg && (starts[k + 2] < hi || (g == RK_GRID - 1 && starts[k + 2] <= umax)))
            t->one = 0;
    }
}

static inline int32_t rk_segment(const rk_seg_lookup *t, const double *starts,
                                 int64_t nseg, double u)
{
    int64_t g = (int64_t)(u * (double)RK_GRID);
    if (g >= RK_GRID)
        g = RK_GRID - 1;
    if (g < 0)
        g = 0;
    int64_t idx = t->grid[g];
    if (t->one)
        return (int32_t)(idx + (t->next[idx] <= u));
    while (idx + 1 < nseg && starts[idx + 1] <= u)
        idx++;
    return (int32_t)idx;
}

/* Cubic Horner over coefficients stored [c0, c1, c2, c3], matching
 * TieredTable.evaluate_at's loop from the highest coefficient down. */
static inline double rk_horner4(const double *c, double t)
{
    double out = c[3];
    out = out * t + c[2];
    out = out * t + c[1];
    out = out * t + c[0];
    return out;
}

/* rk_horner4 of the coefficients c[k .. k + 3], indexed rather than
 * through a pointer c + k: the form GCC turns into gathers. */
static inline double rk_horner4_at(const double *c, int32_t k, double t)
{
    double out = c[k + 3];
    out = out * t + c[k + 2];
    out = out * t + c[k + 1];
    out = out * t + c[k];
    return out;
}

/* Minimum image d - L * rint(d / L) of a difference of two coordinates
 * wrapped into [0, L), without the division.
 *
 * Lemma: |d| < L, so rint(d / L) is -1, 0 or 1, and it is 1 exactly when
 * fl(d / L) > 0.5 (the tie 0.5 rounds to even, 0).  With h = 0.5 * L
 * exact: d <= h gives d / L <= 0.5 and rounding is monotone, so
 * fl(d / L) <= 0.5; d > h gives d >= h + ulp(h), and ulp(h) / L > 2^-54
 * puts d / L past the midpoint of 0.5 and its successor 0.5 + 2^-53, so
 * fl(d / L) > 0.5.  Mirrored for -1.  Hence rint(d / L) == (d > h) -
 * (d < -h), and L times it is exact either way: the result is the same
 * single rounding of d -+ L (wrapped coordinates carry no negative
 * zero, so neither does d).  Not for SETTLE's unwrapped differences:
 * those keep rk_min_image. */
static inline double rk_image(double d, double L, double h)
{
    return d - L * (double)((d > h) - (d < -h));
}

/* -- neighbor-list rebuild ------------------------------------------- */

/* NeighborList._build_inner in one pass: every pair i < j of the same
 * block whose minimum-image distance passes the cutoff predicate
 * (geometry.cells.within in NumPy, rk_walk_filter's below) at reach,
 * minus the exclusion CSR's partners, in lexicographic (i, j) order,
 * written as rows: row_ptr[i] (int64) where row i starts, its partners
 * j as int32.  That is a definition by set and order, so the binning
 * below is free: it only has to offer every passing pair to the
 * predicate, and RK_NB_SLACK widens the cells by far more than any
 * rounding in the cell index or in d can move an atom.  Partners are
 * int32 and the atom count is capped to fit them
 * (geometry.neighborlist.MAX_ATOMS); row_ptr, the pair count and the
 * resume cursor are int64.
 *
 * An axis that fits seven cells of width >= reach/3 may be cut into as
 * many as fit (up to a cap tied to the atom count) and swept with the
 * stencil -k..k, k <= 3 the fewest cells that span reach; seven cells
 * keep the wrapped stencil cells distinct.  Which of those axes are cut
 * is the sweep's shape (rk_nb_shape), and it is free: any shape offers
 * every passing pair to the predicate.  Cells are numbered x-major, so
 * along the last cut axis (the window axis; every later axis is uncut)
 * a run of cells is a run of the cell-ordered arrays, and the stencil is
 * a set of columns over the other cut axes, each a window of -kw..kw
 * cells along the window axis.  Cutting more axes tests fewer atoms per
 * row in more, shorter runs; with no axis cut the box is one cell, cell
 * order is id order, and row i sweeps only the run after slot i (its
 * partners j > i) instead of the whole block.  The shape is the one of
 * least estimated cost, tests per row plus RK_NB_RUN_COST per run, so a
 * box a few reaches wide is swept in a few long runs (or the suffix)
 * and a large box in 3D cells, whose cost per row stays constant as the
 * box grows.  Atoms are counting-sorted into cells in ascending id,
 * their coordinates copied in cell order into three arrays (sx, sy, sz).
 *
 * Rows are swept in ascending i.  A row walks the stencil's columns; a
 * column's window of cells is contiguous in cell order up to one wrap,
 * so its atoms are at most two contiguous runs of the cell-ordered
 * arrays.  Each run is tested in blocks of RK_NB_BLOCK
 * entries: the predicate and j > i, branch-free, into a one-word mask on
 * the stack (element-wise IEEE operations, integer compares and an
 * integer OR, so the loop may vectorize at any width without moving a
 * bit — DESIGN.md, vector-width lemma), whose set bits are then marked
 * in a per-row bitmap.  The row's excluded partners are cleared from it,
 * row_ptr[i] is written and the set bits are emitted in ascending j.
 *
 * The sweep is resumable, so a rebuild sweeps every row once: a row
 * whose pairs do not fit in the `cap` output slots is not emitted, the
 * sweep stops before it, and the caller grows the outputs and calls
 * again from that row.
 *
 * Positions must be wrapped into [0, L). */

#define RK_NB_SLACK (1.0 + 1e-9)

/* Entries per block of the mask loop: one bit each in a uint64_t. */
#define RK_NB_BLOCK 64

/* A run's last block, when it is partial, is tested in whole blocks of
 * RK_NB_LANES entries with the ones past the run's end masked off, so
 * its loop has a fixed trip count and no scalar remainder; the
 * cell-ordered arrays carry RK_NB_LANES entries of padding for the reads
 * past the last run. */
#define RK_NB_LANES 16

/* Cells per axis never exceed this, so a block's cell table stays
 * proportional to its atom count (never below the seven an axis needs
 * to be binned at all). */
static int64_t rk_nb_axis_cap(int64_t block_len)
{
    int64_t c = 7;
    while ((c + 1) * (c + 1) * (c + 1) <= 8 * block_len)
        c++;
    return c;
}

/* int64 words of scratch rk_neighbor_build needs for one block: the
 * cell table, cell_atoms and the three coordinate arrays (each padded by
 * RK_NB_LANES), atom_cell and the row bitmap. */
int64_t rk_neighbor_work_size(int64_t block_len)
{
    int64_t c = rk_nb_axis_cap(block_len);
    return c * c * c + 1 + 5 * block_len + 4 * RK_NB_LANES + (block_len + 63) / 64;
}

/* Whether slot q holds a partner j = cj[q] > i within reach of (a0, a1,
 * a2): cells.within's predicate, operation for operation. */
static inline int64_t rk_nb_hit(int64_t i, double a0, double a1, double a2, int64_t q,
                                const int64_t *restrict cj, const double *restrict sx,
                                const double *restrict sy, const double *restrict sz,
                                const double *L, const double *h, double reach2)
{
    const double d0 = rk_image(a0 - sx[q], L[0], h[0]);
    const double d1 = rk_image(a1 - sy[q], L[1], h[1]);
    const double d2 = rk_image(a2 - sz[q], L[2], h[2]);
    return (cj[q] > i) & ((d0 * d0 + d1 * d1) + d2 * d2 < reach2);
}

/* Marks in `bits` every j = cj[p] > i of the run [p0, p1) whose distance
 * from (a0, a1, a2) passes the predicate; widens [*wlo, *whi] to the
 * bitmap words it touched. */
static inline void rk_nb_run(int64_t i, double a0, double a1, double a2,
                             int64_t p0, int64_t p1,
                             const int64_t *restrict cj,
                             const double *restrict sx,
                             const double *restrict sy,
                             const double *restrict sz,
                             const double *L, const double *h, double reach2,
                             uint64_t *restrict bits, int64_t *wlo, int64_t *whi)
{
    for (int64_t p = p0; p < p1; p += RK_NB_BLOCK) {
        const int64_t nb = p1 - p < RK_NB_BLOCK ? p1 - p : RK_NB_BLOCK;
        uint64_t mask = 0;
        if (nb == RK_NB_BLOCK)
            for (int64_t k = 0; k < RK_NB_BLOCK; k++)
                mask |= (uint64_t)rk_nb_hit(i, a0, a1, a2, p + k, cj, sx, sy, sz, L, h,
                                            reach2) << k;
        else
            for (int64_t kb = 0; kb < nb; kb += RK_NB_LANES)
                for (int64_t k = kb; k < kb + RK_NB_LANES; k++)
                    mask |= (uint64_t)((k < nb) & rk_nb_hit(i, a0, a1, a2, p + k, cj, sx, sy,
                                                             sz, L, h, reach2)) << k;
        for (; mask; mask &= mask - 1) {
            const int64_t j = cj[p + __builtin_ctzll(mask)], wd = j >> 6;
            bits[wd] |= (uint64_t)1 << (j & 63);
            *wlo = wd < *wlo ? wd : *wlo;
            *whi = wd > *whi ? wd : *whi;
        }
    }
}

/* Test-equivalents one run of rk_nb_run costs beyond its tests (loop
 * set-up, the vector loop's remainder): the cost model's exchange rate
 * between fewer tests and fewer runs.  Measured, not derived; it only
 * picks among shapes that give the same rows. */
#define RK_NB_RUN_COST 25.0

/* One sweep shape: cells per axis nc (1 on an uncut axis) of width cs,
 * stencil half-width kk, the window axis wa (-1: no axis cut), the
 * stencil columns (offsets along the two other axes in ascending axis
 * order, then the window half-width kw) and the estimated cost per row. */
typedef struct {
    int64_t nc[3], kk[3];
    double cs[3];
    int wa;
    int64_t ncol;
    int64_t col[49][3];
    double cost;
} rk_nb_shape;

/* The shape that cuts the axes of `mask` that fit seven cells (the
 * others stay uncut), for one block of block_len atoms. */
static void rk_nb_shape_init(rk_nb_shape *sh, const double *L, double reach,
                             int64_t block_len, int mask)
{
    const double reach2 = reach * reach;
    const int64_t axis_cap = rk_nb_axis_cap(block_len);
    sh->wa = -1;
    for (int a = 0; a < 3; a++) {
        const double f = floor(3.0 * L[a] / (reach * RK_NB_SLACK));
        sh->nc[a] = 1;
        sh->kk[a] = 0;
        sh->cs[a] = L[a];
        if ((mask >> a & 1) && f >= 7.0) {
            sh->nc[a] = f < (double)axis_cap ? (int64_t)f : axis_cap;
            sh->cs[a] = L[a] / (double)sh->nc[a];
            sh->kk[a] = 1;
            while (sh->kk[a] < 3 && (double)sh->kk[a] * sh->cs[a] < reach * RK_NB_SLACK)
                sh->kk[a]++;
            sh->wa = a;
        }
    }
    sh->ncol = 0;
    if (sh->wa < 0) { /* one cell: the suffix of each row */
        sh->cost = 0.5 * (double)block_len + RK_NB_RUN_COST;
        return;
    }
    /* Columns over the two other axes and the window -kw..kw of each:
     * the face gap per axis is (|o| - 1) * cell width, and it grows with
     * the window offset, so each column's cells are a window. */
    const int wa = sh->wa, a1 = wa == 0 ? 1 : 0, a2 = wa == 2 ? 1 : 2;
    int64_t cells = 0;
    for (int64_t o1 = -sh->kk[a1]; o1 <= sh->kk[a1]; o1++)
        for (int64_t o2 = -sh->kk[a2]; o2 <= sh->kk[a2]; o2++) {
            int64_t kw = -1;
            for (int64_t ow = 0; ow <= sh->kk[wa]; ow++) {
                int64_t o[3];
                o[a1] = o1, o[a2] = o2, o[wa] = ow;
                double g2 = 0.0;
                for (int a = 0; a < 3; a++) {
                    int64_t g = (o[a] < 0 ? -o[a] : o[a]) - 1;
                    double gap = g > 0 ? (double)g * sh->cs[a] : 0.0;
                    g2 += gap * gap;
                }
                if (g2 < reach2 * RK_NB_SLACK)
                    kw = ow;
            }
            if (kw >= 0) {
                sh->col[sh->ncol][0] = o1;
                sh->col[sh->ncol][1] = o2;
                sh->col[sh->ncol][2] = kw;
                sh->ncol++;
                cells += 2 * kw + 1;
            }
        }
    const double ncell = (double)(sh->nc[0] * sh->nc[1] * sh->nc[2]);
    sh->cost = (double)block_len * (double)cells / ncell + RK_NB_RUN_COST * (double)sh->ncol;
}

/* Sweeps rows at[0] .. n_blocks * block_len - 1 (global indices), the
 * at[1] partners already written kept (with row_ptr up to row at[0]).
 * On return at[0] is the first row not swept and at[1] the partners
 * written; once every row is swept, row_ptr[n_blocks * block_len] is
 * too.  Returns 0 when every row is swept, else the pair count of row
 * at[0], which did not fit in cap.  shape is -1 for the cheapest sweep
 * shape, else the mask of axes to cut (bit a: axis a) — the rows are the
 * same either way. */
int64_t rk_neighbor_build(int64_t n_blocks, int64_t block_len,
                          const double *w, const double *L, double reach,
                          const int64_t *excl_ptr, const int64_t *excl_idx,
                          int64_t *work, int64_t *row_ptr, int32_t *partners,
                          int64_t cap, int64_t *at, int64_t shape)
{
    const double reach2 = reach * reach;
    const double h[3] = {0.5 * L[0], 0.5 * L[1], 0.5 * L[2]};
    rk_nb_shape sh, t;
    rk_nb_shape_init(&sh, L, reach, block_len, shape < 0 ? 0 : (int)(shape & 7));
    for (int mask = 1; shape < 0 && mask < 8; mask++) { /* the cheapest */
        rk_nb_shape_init(&t, L, reach, block_len, mask);
        if (t.cost < sh.cost)
            sh = t;
    }
    const int64_t *nc = sh.nc, ncol = sh.ncol;
    const int64_t ncell = nc[0] * nc[1] * nc[2];
    const double *cs = sh.cs;
    const int wa = sh.wa, a1 = wa == 0 ? 1 : 0, a2 = wa == 2 ? 1 : 2;

    int64_t *cell_start = work;                  /* ncell + 1        */
    const int64_t axis_cap = rk_nb_axis_cap(block_len), pad = block_len + RK_NB_LANES;
    int64_t *cell_atoms = cell_start + axis_cap * axis_cap * axis_cap + 1; /* pad */
    int64_t *atom_cell = cell_atoms + pad;
    uint64_t *bits = (uint64_t *)(atom_cell + block_len);
    double *sx = (double *)(bits + (block_len + 63) / 64); /* cell order, pad */
    double *sy = sx + pad, *sz = sy + pad;
    memset(bits, 0, (size_t)((block_len + 63) / 64) * sizeof *bits);
    for (int64_t p = block_len; p < pad; p++) /* read past a run's end, never marked */
        cell_atoms[p] = 0, sx[p] = sy[p] = sz[p] = 0.0;

    int64_t m = at[1];
    for (int64_t b = at[0] / (block_len > 0 ? block_len : 1); b < n_blocks; b++) {
        const int64_t base = b * block_len;
        const double *x = w + 3 * base;

        /* Counting sort into cells; ascending fill keeps ids ascending
         * within each cell. */
        memset(cell_start, 0, (size_t)(ncell + 1) * sizeof *cell_start);
        for (int64_t i = 0; i < block_len; i++) {
            int64_t c[3];
            for (int a = 0; a < 3; a++) {
                double f = floor(x[3 * i + a] / cs[a]);
                if (!(f >= 0.0))
                    f = 0.0;
                c[a] = f < (double)nc[a] ? (int64_t)f : nc[a] - 1;
            }
            atom_cell[i] = (c[0] * nc[1] + c[1]) * nc[2] + c[2];
            cell_start[atom_cell[i] + 1]++;
        }
        for (int64_t c = 0; c < ncell; c++)
            cell_start[c + 1] += cell_start[c];
        for (int64_t i = 0; i < block_len; i++) {
            int64_t p = cell_start[atom_cell[i]]++;
            cell_atoms[p] = i;
            sx[p] = x[3 * i];
            sy[p] = x[3 * i + 1];
            sz[p] = x[3 * i + 2];
        }
        for (int64_t c = ncell; c > 0; c--) /* undo the fill's advance */
            cell_start[c] = cell_start[c - 1];
        cell_start[0] = 0;

        for (int64_t i = at[0] > base ? at[0] - base : 0; i < block_len; i++) {
            const double a0 = x[3 * i], a1v = x[3 * i + 1], a2v = x[3 * i + 2];
            const int64_t ci = atom_cell[i];
            const int64_t cc[3] = {ci / (nc[1] * nc[2]), (ci / nc[2]) % nc[1], ci % nc[2]};
            int64_t wlo = INT64_MAX, whi = -1;
            if (ncell == 1) /* slot p holds atom p: the partners j > i are a suffix */
                rk_nb_run(i, a0, a1v, a2v, i + 1, block_len, cell_atoms, sx, sy, sz,
                          L, h, reach2, bits, &wlo, &whi);
            for (int64_t s = 0; ncell > 1 && s < ncol; s++) {
                int64_t n1 = cc[a1] + sh.col[s][0], n2 = cc[a2] + sh.col[s][1];
                n1 += n1 < 0 ? nc[a1] : (n1 >= nc[a1] ? -nc[a1] : 0);
                n2 += n2 < 0 ? nc[a2] : (n2 >= nc[a2] ? -nc[a2] : 0);
                int64_t nn[3];
                nn[a1] = n1, nn[a2] = n2, nn[wa] = 0;
                /* the window axis has stride 1: every later axis is uncut */
                const int64_t *cw0 = cell_start + (nn[0] * nc[1] + nn[1]) * nc[2] + nn[2];
                const int64_t kw = sh.col[s][2], nw = nc[wa];
                const int64_t lo = cc[wa] - kw, hi = cc[wa] + kw + 1;
                /* The window [lo, hi) as runs of cells, wrapped past at
                 * most one end (2 kw + 1 <= nw: a window as long as the
                 * axis tiles it in two runs). */
                int64_t r[2][2], nr = 1;
                if (lo < 0) {
                    r[0][0] = 0, r[0][1] = hi;
                    r[1][0] = lo + nw, r[1][1] = nw, nr = 2;
                } else if (hi > nw) {
                    r[0][0] = lo, r[0][1] = nw;
                    r[1][0] = 0, r[1][1] = hi - nw, nr = 2;
                } else {
                    r[0][0] = lo, r[0][1] = hi;
                }
                for (int64_t k = 0; k < nr; k++)
                    rk_nb_run(i, a0, a1v, a2v, cw0[r[k][0]], cw0[r[k][1]], cell_atoms,
                              sx, sy, sz, L, h, reach2, bits, &wlo, &whi);
            }
            if (excl_ptr)
                for (int64_t e = excl_ptr[base + i]; e < excl_ptr[base + i + 1]; e++) {
                    const int64_t j = excl_idx[e] - base;
                    if (j >= 0 && j < block_len)
                        bits[j >> 6] &= ~((uint64_t)1 << (j & 63));
                }
            int64_t row = 0;
            for (int64_t wd = wlo; wd <= whi; wd++)
                row += __builtin_popcountll(bits[wd]);
            if (m + row > cap) {
                for (int64_t wd = wlo; wd <= whi; wd++)
                    bits[wd] = 0;
                at[0] = base + i;
                at[1] = m;
                return row;
            }
            row_ptr[base + i] = m;
            for (int64_t wd = wlo; wd <= whi; wd++) {
                uint64_t word = bits[wd];
                bits[wd] = 0;
                while (word) {
                    partners[m++] = (int32_t)(base + (wd << 6) + __builtin_ctzll(word));
                    word &= word - 1;
                }
            }
        }
    }
    at[0] = n_blocks * block_len;
    at[1] = m;
    row_ptr[at[0]] = m;
    return 0;
}

/* -- range-limited pair walk ------------------------------------------ */

typedef struct { /* field for field kernels/build.py: PairSpec */
    const double *charges;
    const int64_t *types;
    const double *amat, *bmat;
    int64_t n_types;
    double coulomb, cutoff2, umax;
    const double *e_starts, *e_widths, *e_inv, *e_cf, *e_ce;
    int64_t e_nseg;
    const double *d_starts, *d_widths, *d_inv, *c12f, *c6f, *c12e, *c6e;
    int64_t d_nseg;
    double q_limit, q_scale, q_mul;
} rk_pair_spec;

/* Candidates per block: what the stages hand each other stays in L1. */
#define RK_WALK_BLOCK 256

/* What one pass over the rows holds on its stack: the spec by value (so
 * its fields sit in registers across the loops), the box, the wrapped
 * coordinates as three arrays (the partners' side of every pair is read
 * from them), and both segment lookups. */
typedef struct {
    rk_pair_spec s;
    double L0, L1, L2, h0, h1, h2;
    const double *sx, *sy, *sz;
    rk_seg_lookup e_seg, d_seg;
} rk_walk_ctx;

/* Sets up one pass over n atoms: the n wrapped rows of w transposed into
 * soa (caller scratch of 3 n doubles), a copy that changes no value. */
static void rk_walk_init(rk_walk_ctx *c, const rk_pair_spec *s, const double *L,
                         int64_t n, const double *restrict w,
                         double *restrict soa)
{
    c->s = *s;
    c->L0 = L[0], c->L1 = L[1], c->L2 = L[2];
    c->h0 = 0.5 * L[0], c->h1 = 0.5 * L[1], c->h2 = 0.5 * L[2];
    for (int64_t i = 0; i < n; i++) {
        soa[i] = w[3 * i];
        soa[n + i] = w[3 * i + 1];
        soa[2 * n + i] = w[3 * i + 2];
    }
    c->sx = soa, c->sy = soa + n, c->sz = soa + 2 * n;
    rk_seg_init(&c->e_seg, s->e_starts, s->e_nseg, s->umax);
    rk_seg_init(&c->d_seg, s->d_starts, s->d_nseg, s->umax);
}

/* Atom i of the row being walked, held across all its blocks: its
 * coordinates, its charge and its row of the A/B matrices. */
typedef struct {
    double x, y, z, q;
    const double *a, *b;
} rk_row;

static inline rk_row rk_row_of(const rk_walk_ctx *c, int64_t i)
{
    const int64_t t = c->s.types[i] * c->s.n_types;
    rk_row r = {c->sx[i], c->sy[i], c->sz[i], c->s.charges[i],
                c->s.amat + t, c->s.bmat + t};
    return r;
}

/* One block's survivors between the stages, one array per quantity so
 * that stage B reads and writes contiguous lanes: displacement
 * components, clamped u, then what stage A gathers per pair (charge
 * product, LJ A/B, the segment of u in the electrostatic layout), stage
 * B's offset and force prefactor, and the dispersion subset: the block
 * positions of the pairs with A or B nonzero, their u, segment and
 * offset in the dispersion layout. */
typedef struct {
    double d0[RK_WALK_BLOCK], d1[RK_WALK_BLOCK], d2[RK_WALK_BLOCK];
    double u[RK_WALK_BLOCK];
    double qq[RK_WALK_BLOCK], ca[RK_WALK_BLOCK], cb[RK_WALK_BLOCK];
    int32_t ie[RK_WALK_BLOCK];
    double te[RK_WALK_BLOCK];
    double pf[RK_WALK_BLOCK];
    int64_t lj[RK_WALK_BLOCK];
    int32_t id[RK_WALK_BLOCK];
    double ul[RK_WALK_BLOCK], td[RK_WALK_BLOCK];
} rk_walk_block;

/* The stages below (filter, offsets, tables, quantize) are each compiled
 * once, out of line, whichever entry point and call site use them:
 * inlined at every call, their vectorized loops made the build ~20 %
 * slower (GCC 12, -march=native on an AVX-512 host) — and on a fresh
 * checkout the build is part of the first run's set-up — while a call
 * per block of up to 256 pairs costs nothing measurable on the walk. */
#define RK_ONE_COPY __attribute__((noinline)) static

/* Filter over one block of row r's partners pj[0 .. nk), nk <=
 * RK_WALK_BLOCK: the cutoff predicate of geometry.cells.within, operation
 * for operation (d = x_i - x_j, rk_image for its division), first as a
 * loop over the block that only reads (so it vectorizes, gathering the
 * partners' coordinates), then a branch-free compaction (write the
 * survivor slot always, advance it by r2 < cutoff2; the slot index never
 * passes the candidate index, so outputs sized to the candidate count
 * suffice), then KernelTableSet.normalize on the survivors' r2 (a loop of
 * its own, so the division packs).  Survivors' partners land in oj (the
 * caller's next free slots, or a block of scratch), their displacements
 * and clamped u in the block.  Returns how many survived. */
RK_ONE_COPY int64_t rk_walk_filter(const rk_walk_ctx *c, const rk_row *r,
                                   const int32_t *restrict pj, int64_t nk,
                                   int64_t *restrict oj,
                                   rk_walk_block *restrict blk)
{
    const double *restrict sx = c->sx, *restrict sy = c->sy, *restrict sz = c->sz;
    const double cutoff2 = c->s.cutoff2, umax = c->s.umax;
    const double x = r->x, y = r->y, z = r->z;
    double t0[RK_WALK_BLOCK], t1[RK_WALK_BLOCK], t2[RK_WALK_BLOCK], r2[RK_WALK_BLOCK];
    for (int64_t k = 0; k < nk; k++) {
        const int64_t j = pj[k];
        t0[k] = rk_image(x - sx[j], c->L0, c->h0);
        t1[k] = rk_image(y - sy[j], c->L1, c->h1);
        t2[k] = rk_image(z - sz[j], c->L2, c->h2);
        r2[k] = (t0[k] * t0[k] + t1[k] * t1[k]) + t2[k] * t2[k];
    }
    int64_t nb = 0;
    for (int64_t k = 0; k < nk; k++) {
        oj[nb] = pj[k];
        blk->d0[nb] = t0[k];
        blk->d1[nb] = t1[k];
        blk->d2[nb] = t2[k];
        blk->u[nb] = r2[k];
        nb += r2[k] < cutoff2;
    }
    for (int64_t b = 0; b < nb; b++) { /* on its own it vectorizes */
        double u = blk->u[b] / cutoff2;
        blk->u[b] = u > umax ? umax : u;
    }
    return nb;
}

/* Table offsets clip((u - start) / width, 0, 1) of a block within the
 * segments seg.
 *
 * Lemma (reciprocal multiply): dividing by a power of two 2^-k and
 * multiplying by 2^k are the same exact scaling (u - start <= 1, so no
 * overflow).  inv holds 1 / width for a layout whose every width is a
 * power of two and is NULL otherwise, which keeps the division.  The
 * choice is per layout, so it is made outside the loop. */
RK_ONE_COPY void rk_offsets(int64_t nb, const double *restrict u,
                            const int32_t *restrict seg,
                            const double *starts, const double *widths,
                            const double *inv, double *restrict t)
{
    if (inv)
        for (int64_t b = 0; b < nb; b++)
            t[b] = (u[b] - starts[seg[b]]) * inv[seg[b]];
    else
        for (int64_t b = 0; b < nb; b++)
            t[b] = (u[b] - starts[seg[b]]) / widths[seg[b]];
    for (int64_t b = 0; b < nb; b++) {
        double x = t[b] < 0.0 ? 0.0 : t[b];
        t[b] = x > 1.0 ? 1.0 : x;
    }
}

/* The two electrostatic cubics of a block: pf = qq * f(te) and e_coul =
 * qq * e(te) in segments ie, e_lj zeroed.  The coefficients are read
 * through int32 segment indices, which a vector unit gathers. */
RK_ONE_COPY void rk_elec_cubics(int64_t nb, const int32_t *restrict ie,
                                const double *restrict te, const double *restrict qq,
                                const double *restrict cf, const double *restrict ce,
                                double *restrict pf, double *restrict e_coul,
                                double *restrict e_lj)
{
    for (int64_t b = 0; b < nb; b++) {
        const int32_t k = 4 * ie[b];
        e_coul[b] = qq[b] * rk_horner4_at(ce, k, te[b]);
        pf[b] = qq[b] * rk_horner4_at(cf, k, te[b]);
    }
    memset(e_lj, 0, (size_t)nb * sizeof *e_lj);
}

/* The table arithmetic of a block's nb survivors (i, j[b]) of row r,
 * nonbonded_real_space_tabulated's line for line, staged so that each
 * loop does one kind of work.  Stage A, scalar: gather what depends on
 * the partner — the charge product (q_i q_j) C with q_i from the row, the
 * LJ A/B coefficients from the row's A/B row — locate u in the
 * electrostatic layout, and list the pairs with A or B nonzero.  Stage B:
 * the offsets within the segments (rk_offsets, lane-parallel), the two
 * electrostatic cubics and energy, then the dispersion lookup, offsets
 * and four cubics for the listed pairs only.  Leaves the prefactor p
 * (force on i is p * dx) in blk->pf and writes the pairs' two energies.
 * The one copy: the fixed-point walk and the float rows below both
 * call it.
 *
 * Lemma (LJ-free pairs): a pair with A == B == 0 gets p = qq * ef and
 * e_lj = +0.0 where the full expression is p = (qq * ef + A * f12) - B *
 * f6 and e_lj = A * e12 - B * e6.  A * f12 and B * f6 are zeros, and x
 * +- 0 == x for every x != 0, so p is the same double unless qq * ef is
 * itself a zero, where only the sign of a zero may differ; that
 * prefactor quantizes to the code 0 with either sign (rk_quantize), and
 * a float force row of +-0 adds nothing to a force sum that started at
 * +0.0 (rk_deposit_pairs_float: such a sum is never -0.0, and y + (+-0)
 * == y for every y that is not -0.0).  For the energy, A * e12 - B * e6
 * is +0 - +0 == +0.0 whenever the dispersion energy tables are
 * non-negative, which their own test pins.  Every other pair keeps the
 * full expression, in its order.
 *
 * The cubics' loop reads its coefficients per pair through the segment
 * indices, so a vector unit can take it only with hardware gathers;
 * measured on the AVX-512 build host that form (six restrict table
 * parameters in an out-of-line helper) was bit-identical and 5 % slower
 * than this scalar loop, which is therefore what ships. */
RK_ONE_COPY void rk_pair_tables(const rk_walk_ctx *c, const rk_row *r,
                                int64_t nb, const int64_t *restrict j,
                                rk_walk_block *restrict blk,
                                double *restrict e_lj,
                                double *restrict e_coul)
{
    const rk_pair_spec *s = &c->s;
    int64_t nl = 0;
    for (int64_t b = 0; b < nb; b++) {
        const int64_t tj = s->types[j[b]];
        blk->qq[b] = r->q * s->charges[j[b]] * s->coulomb;
        blk->ca[b] = r->a[tj];
        blk->cb[b] = r->b[tj];
        blk->ie[b] = rk_segment(&c->e_seg, s->e_starts, s->e_nseg, blk->u[b]);
        blk->lj[nl] = b;
        nl += blk->ca[b] != 0.0 || blk->cb[b] != 0.0;
    }
    rk_offsets(nb, blk->u, blk->ie, s->e_starts, s->e_widths, s->e_inv, blk->te);
    rk_elec_cubics(nb, blk->ie, blk->te, blk->qq, s->e_cf, s->e_ce, blk->pf, e_coul, e_lj);
    for (int64_t l = 0; l < nl; l++) {
        blk->ul[l] = blk->u[blk->lj[l]];
        blk->id[l] = rk_segment(&c->d_seg, s->d_starts, s->d_nseg, blk->ul[l]);
    }
    rk_offsets(nl, blk->ul, blk->id, s->d_starts, s->d_widths, s->d_inv, blk->td);
    for (int64_t l = 0; l < nl; l++) {
        const int64_t b = blk->lj[l];
        const int32_t id = 4 * blk->id[l];
        const double td = blk->td[l], ca = blk->ca[b], cb = blk->cb[b];
        double f12 = rk_horner4(s->c12f + id, td);
        double f6 = rk_horner4(s->c6f + id, td);
        double e12 = rk_horner4(s->c12e + id, td);
        double e6 = rk_horner4(s->c6e + id, td);
        e_lj[b] = ca * e12 - cb * e6;
        blk->pf[b] = blk->pf[b] + ca * f12 - cb * f6;
    }
}

/* ScaledFixed.quantize_round_only over one force component of a block:
 * (p * dx / limit) * scale, clipped to +-2^62, round-nearest-even, cast
 * to int64.
 *
 * Lemma (one multiply): when limit and scale are both powers of two,
 * q / limit and (q / limit) * scale only move the exponent, so the pair
 * equals the single exact scaling q * (scale / limit); where either form
 * would leave the normal range the codes still agree (both are 0 below,
 * both clip to the cap above).  mul is that ratio, or 0.0 for a codec
 * that is not a power-of-two pair, which keeps the division.  The choice
 * is per codec, so it is made outside the loop. */
RK_ONE_COPY void rk_quantize(int64_t nb, const double *restrict pf,
                             const double *restrict dx, double limit,
                             double scale, double mul,
                             uint64_t *restrict codes)
{
    const double cap = 4611686018427387904.0; /* 2.0**62 */
    double x[RK_WALK_BLOCK];
    if (mul != 0.0)
        for (int64_t b = 0; b < nb; b++)
            x[b] = pf[b] * dx[b] * mul;
    else
        for (int64_t b = 0; b < nb; b++)
            x[b] = pf[b] * dx[b] / limit * scale;
    for (int64_t b = 0; b < nb; b++) {
        double y = x[b] < -cap ? -cap : x[b];
        codes[b] = (uint64_t)(int64_t)rint(y > cap ? cap : y);
    }
}

/* The energy codec's scale / limit: ENERGY_CODEC (forcefield/
 * nonbonded.py) is a power-of-two pair, so by rk_quantize's one-multiply
 * lemma its e / limit * scale is the single exact e * 2^32. */
#define RK_ENERGY_MUL 4294967296.0 /* 2.0**32 */

/* ENERGY_CODEC.quantize_round_only of a block's nb pair energies e
 * (e * 2^32, clipped to +-2^62, round-nearest-even), returned as the
 * wrapping uint64 sum of the codes. */
RK_ONE_COPY uint64_t rk_energy_codes(int64_t nb, const double *restrict e)
{
    const double cap = 4611686018427387904.0; /* 2.0**62 */
    double x[RK_WALK_BLOCK];
    for (int64_t b = 0; b < nb; b++)
        x[b] = e[b] * RK_ENERGY_MUL;
    uint64_t sum = 0;
    for (int64_t b = 0; b < nb; b++) {
        double y = x[b] < -cap ? -cap : x[b];
        sum += (uint64_t)(int64_t)rint(y > cap ? cap : y);
    }
    return sum;
}

/* One evaluation of the range-limited forces, from the Verlet rows
 * straight to the force accumulator: NumpyKernels.pair_walk (filter ->
 * tables -> quantize -> deposit) with nothing stored per pair.
 *
 * The list is rows: row i is partners[row_ptr[i] .. row_ptr[i + 1]), in
 * ascending j, so the rows in turn are the canonical (i, j) order.  Per
 * row, atom i's coordinates, charge and A/B row are held (rk_row); per
 * block of the row's partners, rk_walk_filter, then rk_pair_tables and
 * rk_quantize on the survivors (stages A and B), then stage C, scalar:
 * each code added to atom i's row sum and subtracted from acc[j], and the
 * row sum added to acc[i] once the row is done.  uint64 adds wrap like
 * int64 and commute, so the deposit order is invisible.
 *
 * Energies take the same road: each survivor's e_lj and e_coul is
 * quantized by the energy codec (rk_energy_codes) and wrap-added
 * into the row's two sums, written to e_rows[i] = (lj, coul) once the
 * row is done, with the row's survivor count in counts[i] — every row is
 * written, an empty one as zeros.  Those sums commute too (DESIGN.md,
 * order-free energy lemma): no pair order, row split or block boundary
 * can show in them.
 *
 * With tags (the machine's per-atom home-box ids, each < 64 * words),
 * stage C also builds two per-atom bit sets of `words` uint64 each,
 * cleared here: sets[i] (the row side) gets bit tags[j] of every
 * survivor (i, j), and sets[n_atoms + j] (the column side) bit tags[i] —
 * the home boxes each atom paired with, which is all the NT method's
 * force export needs (rk_nt_routes; DESIGN.md, home-box-set lemma).  OR
 * is idempotent and commutes, so no order can show in them either.
 * Without tags, sets is not touched.  soa is 3 n_atoms doubles of
 * scratch; the arrays must not overlap.  Returns the surviving pair
 * count. */
int64_t rk_pair_walk(int64_t n_atoms, const int64_t *restrict row_ptr,
                     const int32_t *restrict partners, const double *restrict w,
                     double *restrict soa, const double *L,
                     const rk_pair_spec *s, int64_t *restrict acc,
                     int64_t *restrict e_rows, int64_t *restrict counts,
                     const int64_t *restrict tags, int64_t words,
                     uint64_t *restrict sets)
{
    rk_walk_ctx c;
    rk_walk_init(&c, s, L, n_atoms, w, soa);
    const double ql = c.s.q_limit, qs = c.s.q_scale, qm = c.s.q_mul;
    uint64_t *a = (uint64_t *)acc, *er = (uint64_t *)e_rows;
    uint64_t *restrict cset = tags ? sets + n_atoms * words : NULL;
    rk_walk_block blk;
    uint64_t c0[RK_WALK_BLOCK], c1[RK_WALK_BLOCK], c2[RK_WALK_BLOCK];
    double e_lj[RK_WALK_BLOCK], e_coul[RK_WALK_BLOCK];
    int64_t js[RK_WALK_BLOCK];
    int64_t m = 0;

    if (tags)
        memset(sets, 0, (size_t)(2 * n_atoms * words) * sizeof *sets);
    for (int64_t i = 0; i < n_atoms; i++) {
        const int64_t end = row_ptr[i + 1], m0 = m;
        uint64_t s_lj = 0, s_coul = 0;
        if (row_ptr[i] < end) {
            const rk_row r = rk_row_of(&c, i);
            uint64_t f0 = 0, f1 = 0, f2 = 0;
            for (int64_t lo = row_ptr[i]; lo < end; lo += RK_WALK_BLOCK) {
                const int64_t nk = end - lo < RK_WALK_BLOCK ? end - lo : RK_WALK_BLOCK;
                const int64_t nb = rk_walk_filter(&c, &r, partners + lo, nk, js, &blk);
                rk_pair_tables(&c, &r, nb, js, &blk, e_lj, e_coul);
                s_lj += rk_energy_codes(nb, e_lj);
                s_coul += rk_energy_codes(nb, e_coul);
                rk_quantize(nb, blk.pf, blk.d0, ql, qs, qm, c0);
                rk_quantize(nb, blk.pf, blk.d1, ql, qs, qm, c1);
                rk_quantize(nb, blk.pf, blk.d2, ql, qs, qm, c2);
                for (int64_t b = 0; b < nb; b++) {
                    const int64_t j = js[b];
                    f0 += c0[b];
                    f1 += c1[b];
                    f2 += c2[b];
                    a[3 * j] -= c0[b];
                    a[3 * j + 1] -= c1[b];
                    a[3 * j + 2] -= c2[b];
                }
                if (tags) {
                    uint64_t *restrict ri = sets + i * words;
                    uint64_t *restrict cw = cset + (tags[i] >> 6);
                    const uint64_t bi = (uint64_t)1 << (tags[i] & 63);
                    /* The row's current word, held in a register: an OR into
                     * memory per pair would wait on the last pair's store. */
                    int64_t wd = 0;
                    uint64_t held = ri[0];
                    for (int64_t b = 0; b < nb; b++) {
                        const int64_t j = js[b], tj = tags[j];
                        if (tj >> 6 != wd) {
                            ri[wd] = held;
                            wd = tj >> 6;
                            held = ri[wd];
                        }
                        held |= (uint64_t)1 << (tj & 63);
                        cw[j * words] |= bi;
                    }
                    ri[wd] = held;
                }
                m += nb;
            }
            a[3 * i] += f0;
            a[3 * i + 1] += f1;
            a[3 * i + 2] += f2;
        }
        er[2 * i] = s_lj;
        er[2 * i + 1] = s_coul;
        counts[i] = m - m0;
    }
    return m;
}

/* The float64 twin of the walk, for ForceCalculator.compute: the cutoff
 * filter and nonbonded_real_space_tabulated in one pass over the rows,
 * leaving per surviving pair what that function returns — (i, j), the
 * force row p * dx on atom i, and the two energies.  Nothing is summed
 * here: float addition does not commute, so the rows go to
 * rk_deposit_pairs_float in NumPy's order.  rows is (n_cand, 3); the
 * other arguments as for the walk.  Returns the surviving count. */
int64_t rk_pair_rows(int64_t n_atoms, const int64_t *restrict row_ptr,
                     const int32_t *restrict partners, const double *restrict w,
                     double *restrict soa, const double *L,
                     const rk_pair_spec *s, int64_t *restrict oi,
                     int64_t *restrict oj, double *restrict rows,
                     double *restrict e_lj, double *restrict e_coul)
{
    rk_walk_ctx c;
    rk_walk_init(&c, s, L, n_atoms, w, soa);
    rk_walk_block blk;
    int64_t m = 0;

    for (int64_t i = 0; i < n_atoms; i++) {
        const int64_t end = row_ptr[i + 1];
        if (row_ptr[i] == end)
            continue;
        const rk_row r = rk_row_of(&c, i);
        for (int64_t lo = row_ptr[i]; lo < end; lo += RK_WALK_BLOCK) {
            const int64_t nk = end - lo < RK_WALK_BLOCK ? end - lo : RK_WALK_BLOCK;
            const int64_t nb = rk_walk_filter(&c, &r, partners + lo, nk, oj + m, &blk);
            rk_pair_tables(&c, &r, nb, oj + m, &blk, e_lj + m, e_coul + m);
            for (int64_t b = 0; b < nb; b++, m++) {
                oi[m] = i;
                rows[3 * m] = blk.pf[b] * blk.d0[b];
                rows[3 * m + 1] = blk.pf[b] * blk.d1[b];
                rows[3 * m + 2] = blk.pf[b] * blk.d2[b];
            }
        }
    }
    return m;
}

/* The NT method's force-export routes of one step, from the walk's
 * home-box sets: pair (i, j) is computed on node_tab[home[i], home[j]]
 * (the tabulated box-pair rule of parallel.nt.nt_node_tables), and that
 * node owes atom i and atom j one summed force each.  So atom a's marks
 * on the row side are the distinct node_tab[home[a], b] over the boxes b
 * of its row set, and on the column side the distinct node_tab[b,
 * home[a]] over its column set (DESIGN.md, home-box-set lemma).  Each
 * distinct (atom, node) mark is one force on the route node -> owners[a]:
 * counts[side][node * n_nodes + owners[a]] counts them, both sides
 * cleared here.  stamp is n_nodes int64 of scratch: the last (side,
 * atom) that marked each node, which makes a mark distinct in O(1). */
void rk_nt_routes(int64_t n_atoms, int64_t words, const uint64_t *sets,
                  const int64_t *home, const int64_t *owners,
                  const int64_t *node_tab, int64_t n_nodes,
                  int64_t *restrict stamp, int64_t *restrict counts)
{
    memset(counts, 0, (size_t)(2 * n_nodes * n_nodes) * sizeof *counts);
    memset(stamp, 0xff, (size_t)n_nodes * sizeof *stamp); /* -1: no atom */
    for (int64_t side = 0; side < 2; side++) {
        const uint64_t *set = sets + side * n_atoms * words;
        int64_t *cnt = counts + side * n_nodes * n_nodes;
        /* Row side: node_tab[h, b], b stepping by 1; column side:
         * node_tab[b, h], b stepping by a row. */
        const int64_t step = side ? n_nodes : 1;
        for (int64_t a = 0; a < n_atoms; a++) {
            const int64_t *tab = node_tab + home[a] * (side ? 1 : n_nodes);
            const int64_t who = side * n_atoms + a, own = owners[a];
            for (int64_t wd = 0; wd < words; wd++) {
                for (uint64_t bits = set[a * words + wd]; bits; bits &= bits - 1) {
                    const int64_t b = 64 * wd + __builtin_ctzll(bits);
                    const int64_t node = tab[b * step];
                    if (stamp[node] != who) {
                        stamp[node] = who;
                        cnt[node * n_nodes + own] += 1;
                    }
                }
            }
        }
    }
}

/* -- fixed-point deposits --------------------------------------------- */

/* acc[i] += codes; acc[j] -= codes over (n, 3) rows, with NumPy int64
 * wrap semantics (uint64 arithmetic). */
void rk_deposit_pairs(int64_t *acc, const int64_t *pi, const int64_t *pj,
                      const int64_t *codes, int64_t n)
{
    uint64_t *a = (uint64_t *)acc;
    const uint64_t *c = (const uint64_t *)codes;
    for (int64_t k = 0; k < n; k++) {
        uint64_t *ri = a + 3 * pi[k];
        uint64_t *rj = a + 3 * pj[k];
        ri[0] += c[3 * k];
        ri[1] += c[3 * k + 1];
        ri[2] += c[3 * k + 2];
        rj[0] -= c[3 * k];
        rj[1] -= c[3 * k + 1];
        rj[2] -= c[3 * k + 2];
    }
}

/* -- float deposit ----------------------------------------------------- */

/* np.add.at(F, pi, f); np.add.at(F, pj, -f) over (n, 3) rows, in that
 * order: every i row in pair order, then every j row in pair order.
 * Float addition does not commute, so the fused one-loop form of
 * rk_deposit_pairs is a different sum. */
void rk_deposit_pairs_float(double *F, const int64_t *pi, const int64_t *pj,
                            const double *f, int64_t n)
{
    for (int64_t k = 0; k < n; k++) {
        double *r = F + 3 * pi[k];
        r[0] += f[3 * k];
        r[1] += f[3 * k + 1];
        r[2] += f[3 * k + 2];
    }
    for (int64_t k = 0; k < n; k++) {
        double *r = F + 3 * pj[k];
        r[0] += -f[3 * k];
        r[1] += -f[3 * k + 1];
        r[2] += -f[3 * k + 2];
    }
}

/* -- minimum image of unwrapped differences --------------------------- */

/* Box.minimum_image, d - L * rint(d / L), for the unwrapped differences
 * SETTLE takes (rk_image needs wrapped coordinates).  Lemma
 * (no division inside the half box): for L > 0 finite, |d| <= L/2 (0.5 * L
 * is exact) gives |fl(d / L)| <= 0.5, since correctly rounded division is
 * monotone and 0.5 is a double, so rint(d / L) is a zero of d's sign (ties
 * to even) and L * rint(d / L) one too; d minus a zero of its own sign is
 * d for d != 0 and +0.0 for either zero d.  d + 0.0 is the same: d for
 * d != 0, +0.0 for both zeros.  NaN, +-inf and |d| > L/2 fail the test
 * and take the division. */
static inline double rk_min_image(double d, double L)
{
    if (fabs(d) <= 0.5 * L)
        return d + 0.0;
    return d - L * rint(d / L);
}

/* -- SETTLE: rigid water --------------------------------------------------- */

/* Analytic constraint solve of one rigid water (O, H1, H2) per molecule,
 * the solver's replacement for SHAKE/RATTLE sweeps on its rigid-water
 * groups (core/constraints.py).  Molecules share no atom and each is read
 * completely before it is written, so the order of molecules changes no
 * bit and `out` may alias `src` (the minimiser's shake(pos, pos)).  Only
 * + - * / and sqrt, in the order the NumPy form (ConstraintSolver.
 * _settle_numpy) writes them, so it is that form's bits at every vector
 * width — DESIGN.md, SETTLE lemma.  `par` holds per molecule
 * RK_SETTLE_PAR doubles: wh = mH / (mO + 2 mH), ra, rb, rc (the canonical
 * triangle: O at (0, ra), H at (-+rc, -rb) about the centre of mass),
 * dHH = 2 rc, and the inverse masses of O and H.
 *
 * A molecule whose solve would take the square root of a negative number
 * or NaN (its atoms too far off the old plane, or a collinear reference),
 * or whose velocity system is singular, is left as it was and the call
 * returns its index r * nmol + m (the first such one); -1 otherwise. */

#define RK_SETTLE_PAR 7

static inline double rk_dot3(double ax, double ay, double az,
                             double bx, double by, double bz)
{
    return (ax * bx + ay * by) + az * bz;
}

/* Miyamoto & Kollman (1992) position step: `x` holds the unconstrained
 * positions, `r` the reference ones (before the drift).  Returns 0 on a
 * degenerate molecule, which is then left untouched. */
static int rk_settle_pos(double *x, const double *r, const int64_t *at,
                         const double *p, const double *L)
{
    const double wh = p[0], ra = p[1], rb = p[2], rc = p[3], hh = p[4];
    double *xa = x + 3 * at[0], *xb = x + 3 * at[1], *xc = x + 3 * at[2];
    const double *ra0 = r + 3 * at[0], *rb0 = r + 3 * at[1], *rc0 = r + 3 * at[2];
    double b0[3], c0[3], a1[3], b1[3], c1[3];
    for (int k = 0; k < 3; k++) {
        b0[k] = rk_min_image(rb0[k] - ra0[k], L[k]);
        c0[k] = rk_min_image(rc0[k] - ra0[k], L[k]);
        double db = rk_min_image(xb[k] - xa[k], L[k]);
        double dc = rk_min_image(xc[k] - xa[k], L[k]);
        a1[k] = -(db + dc) * wh;
        b1[k] = db + a1[k];
        c1[k] = dc + a1[k];
    }
    /* The frame: z along n = b0 x c0, x along a1 x n, y along n x (a1 x n). */
    double nx = b0[1] * c0[2] - b0[2] * c0[1];
    double ny = b0[2] * c0[0] - b0[0] * c0[2];
    double nz = b0[0] * c0[1] - b0[1] * c0[0];
    double ux = a1[1] * nz - a1[2] * ny;
    double uy = a1[2] * nx - a1[0] * nz;
    double uz = a1[0] * ny - a1[1] * nx;
    double wx = ny * uz - nz * uy;
    double wy = nz * ux - nx * uz;
    double wz = nx * uy - ny * ux;
    double lu = sqrt(rk_dot3(ux, uy, uz, ux, uy, uz));
    double lw = sqrt(rk_dot3(wx, wy, wz, wx, wy, wz));
    double ln = sqrt(rk_dot3(nx, ny, nz, nx, ny, nz));
    double e1x = ux / lu, e1y = uy / lu, e1z = uz / lu;
    double e2x = wx / lw, e2y = wy / lw, e2z = wz / lw;
    double e3x = nx / ln, e3y = ny / ln, e3z = nz / ln;

    double xb0d = rk_dot3(e1x, e1y, e1z, b0[0], b0[1], b0[2]);
    double yb0d = rk_dot3(e2x, e2y, e2z, b0[0], b0[1], b0[2]);
    double xc0d = rk_dot3(e1x, e1y, e1z, c0[0], c0[1], c0[2]);
    double yc0d = rk_dot3(e2x, e2y, e2z, c0[0], c0[1], c0[2]);
    double za1d = rk_dot3(e3x, e3y, e3z, a1[0], a1[1], a1[2]);
    double xb1d = rk_dot3(e1x, e1y, e1z, b1[0], b1[1], b1[2]);
    double yb1d = rk_dot3(e2x, e2y, e2z, b1[0], b1[1], b1[2]);
    double zb1d = rk_dot3(e3x, e3y, e3z, b1[0], b1[1], b1[2]);
    double xc1d = rk_dot3(e1x, e1y, e1z, c1[0], c1[1], c1[2]);
    double yc1d = rk_dot3(e2x, e2y, e2z, c1[0], c1[1], c1[2]);
    double zc1d = rk_dot3(e3x, e3y, e3z, c1[0], c1[1], c1[2]);

    /* The canonical triangle tilted out of the plane (phi, psi), then
     * turned in it (theta) so the move conserves angular momentum. */
    double sinphi = za1d / ra;
    double q1 = 1.0 - sinphi * sinphi;
    if (!(q1 >= 0.0))
        return 0;
    double cosphi = sqrt(q1);
    double sinpsi = (zb1d - zc1d) / (hh * cosphi);
    double q2 = 1.0 - sinpsi * sinpsi;
    if (!(q2 >= 0.0))
        return 0;
    double cospsi = sqrt(q2);
    double ya2d = ra * cosphi;
    double xb2d = -rc * cospsi;
    double t1 = -rb * cosphi;
    double t2 = (rc * sinpsi) * sinphi;
    double yb2d = t1 - t2;
    double yc2d = t1 + t2;
    double alpha = (xb2d * (xb0d - xc0d) + yb0d * yb2d) + yc0d * yc2d;
    double beta = (xb2d * (yc0d - yb0d) + xb0d * yb2d) + xc0d * yc2d;
    double gamma = ((xb0d * yb1d - xb1d * yb0d) + xc0d * yc1d) - xc1d * yc0d;
    double al2be2 = alpha * alpha + beta * beta;
    double q3 = al2be2 - gamma * gamma;
    if (!(q3 >= 0.0))
        return 0;
    double sinthe = (alpha * gamma - beta * sqrt(q3)) / al2be2;
    double q4 = 1.0 - sinthe * sinthe;
    if (!(q4 >= 0.0))
        return 0;
    double costhe = sqrt(q4);

    double xa3d = -ya2d * sinthe, ya3d = ya2d * costhe;
    double xb3d = xb2d * costhe - yb2d * sinthe;
    double yb3d = xb2d * sinthe + yb2d * costhe;
    double xc3d = -xb2d * costhe - yc2d * sinthe;
    double yc3d = -xb2d * sinthe + yc2d * costhe;
    double e1[3] = {e1x, e1y, e1z}, e2[3] = {e2x, e2y, e2z}, e3[3] = {e3x, e3y, e3z};
    for (int k = 0; k < 3; k++) {
        double a3 = (e1[k] * xa3d + e2[k] * ya3d) + e3[k] * za1d;
        double b3 = (e1[k] * xb3d + e2[k] * yb3d) + e3[k] * zb1d;
        double c3 = (e1[k] * xc3d + e2[k] * yc3d) + e3[k] * zc1d;
        xa[k] = xa[k] + (a3 - a1[k]);
        xb[k] = xb[k] + (b3 - b1[k]);
        xc[k] = xc[k] + (c3 - c1[k]);
    }
    return 1;
}

/* Velocity step: the three multipliers that zero d . dv on O-H1, O-H2
 * and H1-H2 at once, from their symmetric 3x3 system by Cramer's rule.
 * Returns 0 (molecule untouched) when the system is not positive
 * definite, i.e. the triangle is degenerate. */
static int rk_settle_vel(double *v, const double *x, const int64_t *at,
                         const double *p, const double *L)
{
    const double io = p[5], ih = p[6];
    double *va = v + 3 * at[0], *vb = v + 3 * at[1], *vc = v + 3 * at[2];
    const double *xa = x + 3 * at[0], *xb = x + 3 * at[1], *xc = x + 3 * at[2];
    double d0[3], d1[3], d2[3];
    for (int k = 0; k < 3; k++) {
        d0[k] = rk_min_image(xa[k] - xb[k], L[k]);
        d1[k] = rk_min_image(xa[k] - xc[k], L[k]);
        d2[k] = rk_min_image(xb[k] - xc[k], L[k]);
    }
    double r0 = rk_dot3(d0[0], d0[1], d0[2], va[0] - vb[0], va[1] - vb[1], va[2] - vb[2]);
    double r1 = rk_dot3(d1[0], d1[1], d1[2], va[0] - vc[0], va[1] - vc[1], va[2] - vc[2]);
    double r2 = rk_dot3(d2[0], d2[1], d2[2], vb[0] - vc[0], vb[1] - vc[1], vb[2] - vc[2]);
    double ioh = io + ih;
    double a00 = ioh * rk_dot3(d0[0], d0[1], d0[2], d0[0], d0[1], d0[2]);
    double a11 = ioh * rk_dot3(d1[0], d1[1], d1[2], d1[0], d1[1], d1[2]);
    double a22 = (2.0 * ih) * rk_dot3(d2[0], d2[1], d2[2], d2[0], d2[1], d2[2]);
    double a01 = io * rk_dot3(d0[0], d0[1], d0[2], d1[0], d1[1], d1[2]);
    double a02 = -ih * rk_dot3(d0[0], d0[1], d0[2], d2[0], d2[1], d2[2]);
    double a12 = ih * rk_dot3(d1[0], d1[1], d1[2], d2[0], d2[1], d2[2]);
    double c00 = a11 * a22 - a12 * a12;
    double c01 = a02 * a12 - a01 * a22;
    double c02 = a01 * a12 - a11 * a02;
    double c11 = a00 * a22 - a02 * a02;
    double c12 = a01 * a02 - a00 * a12;
    double c22 = a00 * a11 - a01 * a01;
    double det = (a00 * c00 + a01 * c01) + a02 * c02;
    if (!(det > 0.0))
        return 0;
    double t0 = ((c00 * r0 + c01 * r1) + c02 * r2) / det;
    double t1 = ((c01 * r0 + c11 * r1) + c12 * r2) / det;
    double t2 = ((c02 * r0 + c12 * r1) + c22 * r2) / det;
    for (int k = 0; k < 3; k++) {
        va[k] = va[k] - io * (t0 * d0[k] + t1 * d1[k]);
        vb[k] = vb[k] + ih * (t0 * d0[k] - t2 * d2[k]);
        vc[k] = vc[k] + ih * (t1 * d1[k] + t2 * d2[k]);
    }
    return 1;
}

/* ConstraintSolver's rigid waters over nrep blocks (block r owns rows
 * [r*natoms, (r+1)*natoms) of `out` and `src`; a solo system is one):
 * stage 0 moves positions `out` against the reference `src`, stage 1
 * projects velocities `out` at positions `src`.  `mol` is (nmol, 3):
 * each molecule's O, H1, H2. */
int64_t rk_settle_batch(int64_t stage, int64_t nrep, int64_t natoms,
                        double *out, const double *src, const int64_t *mol,
                        const double *par, int64_t nmol, const double *L)
{
    int64_t bad = -1;
    for (int64_t r = 0; r < nrep; r++) {
        double *o = out + 3 * natoms * r;
        const double *s = src + 3 * natoms * r;
        for (int64_t m = 0; m < nmol; m++) {
            const int64_t *at = mol + 3 * m;
            const double *p = par + RK_SETTLE_PAR * m;
            int ok = stage == 0 ? rk_settle_pos(o, s, at, p, L)
                                : rk_settle_vel(o, s, at, p, L);
            if (!ok && bad < 0)
                bad = r * nmol + m;
        }
    }
    return bad;
}

/* -- fused mesh spread / gather ------------------------------------------ */

/* GSE's atom-to-mesh-point weight is separable, so neither direction
 * stores a stencil: every kernel here walks each atom's (kx, ky, kz)
 * cube straight from the plan's per-axis rows, replicating the NumPy
 * forms (NumpyKernels.mesh_block and the three mesh_*_axes) operation
 * for operation:
 *   w   = ((wx * norm)[x] * wy[y]) * wz[z]      (wxn is wx * norm)
 *   in  = (dx^2 + dy^2) + dz^2 <= c2            (else w is +0.0)
 *   idx = (ix * my + iy) * mz + iz              (int64 from int32 rows)
 * dz^2 >= 0 and rounding is monotone, so an (x, y) column whose
 * dx^2 + dy^2 already exceeds c2 is outside the sphere at every z.
 * What a point outside the sphere adds is each kernel's own lemma: the
 * integer 0 in the quantized spread, -0.0 in the float spread and the
 * gather. */
typedef struct { /* field for field kernels/build.py: MeshAxes */
    int64_t kx, ky, kz, kzp, mx, my, mz;
    const double *wxn, *wy, *wz, *dx, *dy, *dz;
    const int32_t *ix, *iy, *iz;
} rk_axes;

/* The nine rows of atom i. */
#define RK_ATOM_ROWS(ax, i)                                                 \
    const double *wxi = (ax)->wxn + (i) * kx, *dxi = (ax)->dx + (i) * kx;   \
    const double *wyi = (ax)->wy + (i) * ky, *dyi = (ax)->dy + (i) * ky;    \
    const double *wzi = (ax)->wz + (i) * kz, *dzi = (ax)->dz + (i) * kz;    \
    const int32_t *ixi = (ax)->ix + (i) * kx, *iyi = (ax)->iy + (i) * ky;   \
    const int32_t *izi = (ax)->iz + (i) * kz

/* Halo'd columns (the quantized spread and the gather).  A stencil row's
 * wrapped z indices are consecutive mod mz (MeshStencilPlan.build:
 * mod(base - c .. base + c, mz)), so in a z column extended by a halo,
 * with halo point z standing for mesh point z mod mz, every atom's row
 * is one run of contiguous points starting at its first wrapped index
 * izi[0] < mz, whatever kz is — wider than the mesh included.  The two
 * kernels work in that layout: a caller-sized scratch of mx·my columns
 * of hz = mz + kzp - 1 points, where kzp is kz rounded up to whole
 * blocks of RK_ZLANES (kernels/suite.py sizes it), so each (x, y) column
 * of a stencil is one run of kzp lanes starting at halo point izi[0],
 * with no split and no epilogue.  A pad lane z >= kz has weight 0.0 and
 * dz^2 = +inf: the sphere test fails there as it does outside the
 * sphere, so a pad lane adds what a masked point adds in each kernel.
 *   Spread, fold lemma: integer adds wrap mod 2^64 and commute, so
 *   accumulating each code into its halo point and then adding every
 *   halo point into acc[c·mz + z mod mz] sums the same codes per mesh
 *   point as adding them there directly.
 *   Gather, copy lemma: the halo holds phi[c·mz + z mod mz] at (c, z),
 *   a copy, so each lane reads the very double the wrapped index names.
 * The float spread keeps run splitting (rk_zrun_end): its per-bin float
 * order is the contract, and a fold would reorder a bin's adds.  Inside
 * a run or a column every kernel below is a loop over contiguous memory
 * with the sphere test as a select, which is what lets the compiler use
 * the host's vector unit (DESIGN.md, vector-width lemma: each lane is
 * the same correctly rounded operation the scalar loop performs). */
#define RK_ZLANES 8

/* One atom's z row over kzp lanes: the weights wz (0.0 in the pad) and
 * dz^2 (+inf in the pad), formed once per atom instead of once per
 * (x, y) column — the same product either way.  The float spread takes
 * kzp = kz: no pad. */
static inline void rk_zlanes(const double *restrict wz,
                             const double *restrict d, int64_t kz,
                             int64_t kzp, double *restrict wzp,
                             double *restrict dz2)
{
    for (int64_t z = 0; z < kz; z++) {
        wzp[z] = wz[z];
        dz2[z] = d[z] * d[z];
    }
    for (int64_t z = kz; z < kzp; z++) {
        wzp[z] = 0.0;
        dz2[z] = INFINITY;
    }
}

/* Run splitting (the float spread only): the run that starts at row
 * position zs covers mesh points izi[zs] .. up to the end of the mesh or
 * of the row, whichever comes first (the returned row position), and the
 * next one restarts at mesh point 0 — one or two runs whenever kz <= mz,
 * more for a stencil wider than the mesh. */
static inline int64_t rk_zrun_end(const int32_t *iz, int64_t zs, int64_t kz,
                                 int64_t mz)
{
    int64_t ze = zs + (mz - iz[zs]);
    return ze < kz ? ze : kz;
}

/* One column of the quantized spread: col[z] += rint(w * q) inside the
 * sphere, += 0 outside it and in the pad, in blocks of RK_ZLANES. */
static inline void rk_spread_col(uint64_t *restrict col,
                                 const double *restrict wz,
                                 const double *restrict dz2, int64_t kzp,
                                 double r2xy, double wxy, double q, double c2)
{
    for (int64_t b = 0; b < kzp; b += RK_ZLANES)
        for (int64_t z = b; z < b + RK_ZLANES; z++) {
            double v = (wxy * wz[z]) * q;
            col[z] += (uint64_t)(int64_t)rint(r2xy + dz2[z] <= c2 ? v : 0.0);
        }
}

/* MeshStencilPlan.spread_codes: acc[idx] += rint(w * qc) for atoms
 * [0, n) into the flat int64 mesh `acc`, through the halo'd columns of
 * `halo` (zeroed here, then folded into acc).  A masked point's code is
 * rint(+-0.0) == 0 for every finite qc, and integer zeros add nothing:
 * a masked or pad lane adds the integer 0, and a column wholly outside
 * the sphere is skipped. */
void rk_mesh_spread_axes(const rk_axes *ax, int64_t n, double c2,
                         const double *qc, int64_t *acc, uint64_t *halo)
{
    const int64_t kx = ax->kx, ky = ax->ky, kz = ax->kz, kzp = ax->kzp;
    const int64_t mz = ax->mz, hz = mz + kzp - 1, ncol = ax->mx * ax->my;
    uint64_t *m = (uint64_t *)acc;
    double wzp[kzp], dz2[kzp];
    memset(halo, 0, (size_t)(ncol * hz) * sizeof(uint64_t));
    for (int64_t i = 0; i < n; i++) {
        RK_ATOM_ROWS(ax, i);
        const double q = qc[i];
        rk_zlanes(wzi, dzi, kz, kzp, wzp, dz2);
        for (int64_t x = 0; x < kx; x++)
            for (int64_t y = 0; y < ky; y++) {
                double r2xy = dxi[x] * dxi[x] + dyi[y] * dyi[y];
                if (r2xy > c2)
                    continue;
                double wxy = wxi[x] * wyi[y];
                int64_t c = (int64_t)ixi[x] * ax->my + iyi[y];
                rk_spread_col(halo + c * hz + izi[0], wzp, dz2, kzp, r2xy,
                              wxy, q, c2);
            }
    }
    for (int64_t c = 0; c < ncol; c++) {
        const uint64_t *h = halo + c * hz;
        uint64_t *col = m + c * mz;
        for (int64_t z0 = 0; z0 < hz; z0 += mz) {
            int64_t len = hz - z0 < mz ? hz - z0 : mz;
            for (int64_t z = 0; z < len; z++)
                col[z] += h[z0 + z];
        }
    }
}

/* One run of the float spread: col[z] += w * q inside the sphere,
 * += -0.0 outside it.
 *
 * Lemma (masked add): x + (-0.0) == x bit for bit for every x — both
 * zeros, infinities and NaN payloads included — under round-to-nearest
 * (IEEE 754 6.3: a sum of zeros of unlike sign is +0.0, of like sign
 * keeps it), so a lane outside the sphere leaves its bin as the scalar
 * loop's skipped iteration did.  (+0.0 would not do: it turns a -0.0
 * bin into +0.0.) */
static inline void rk_spread_float_run(double *restrict col,
                                       const double *restrict wz,
                                       const double *restrict dz2,
                                       int64_t len, double r2xy, double wxy,
                                       double q, double c2)
{
    for (int64_t z = 0; z < len; z++) {
        double v = (wxy * wz[z]) * q;
        col[z] += r2xy + dz2[z] <= c2 ? v : -0.0;
    }
}

/* MeshStencilPlan.spread_float: per `chunk` atoms, a float64 bincount
 * in element order (part[idx] += w * q from +0.0 bins), then
 * mesh += part.  Float sums do not commute, so this is the one order
 * NumPy uses: atoms in order, columns in
 * (x, y) order, runs in z order, and within a run every bin is a
 * different mesh point, so each bin still sees its addends in NumPy's
 * order however wide the run's adds are issued.  A point outside the
 * sphere contributes +-0.0 in NumPy, which a bin that started at +0.0
 * does not see; here it adds -0.0, which no bin sees. */
void rk_mesh_spread_float_axes(const rk_axes *ax, int64_t n, double c2,
                               const double *q, double *mesh, int64_t npts,
                               double *part, int64_t chunk)
{
    const int64_t kx = ax->kx, ky = ax->ky, kz = ax->kz, mz = ax->mz;
    double wzr[kz], dz2[kz];
    for (int64_t lo = 0; lo < n; lo += chunk) {
        memset(part, 0, (size_t)npts * sizeof(double));
        for (int64_t i = lo; i < n && i < lo + chunk; i++) {
            RK_ATOM_ROWS(ax, i);
            rk_zlanes(wzi, dzi, kz, kz, wzr, dz2);
            for (int64_t x = 0; x < kx; x++)
                for (int64_t y = 0; y < ky; y++) {
                    double r2xy = dxi[x] * dxi[x] + dyi[y] * dyi[y];
                    if (r2xy > c2)
                        continue;
                    double wxy = wxi[x] * wyi[y];
                    double *col =
                        part + ((int64_t)ixi[x] * ax->my + iyi[y]) * mz;
                    for (int64_t zs = 0, ze; zs < kz; zs = ze) {
                        ze = rk_zrun_end(izi, zs, kz, mz);
                        rk_spread_float_run(col + izi[zs], wzr + zs, dz2 + zs,
                                            ze - zs, r2xy, wxy, q[i], c2);
                    }
                }
        }
        for (int64_t e = 0; e < npts; e++)
            mesh[e] += part[e];
    }
}

/* One column of the gather: g = phi[z] * w inside the sphere, -0.0 (the
 * masked-add lemma above: nothing) outside it and in the pad, added to
 * the column's x-sum row ax and y-sum row cy, in blocks of RK_ZLANES. */
static inline void rk_gather_col(double *restrict ax, double *restrict cy,
                                 const double *restrict col,
                                 const double *restrict wz,
                                 const double *restrict dz2, int64_t kzp,
                                 double r2xy, double wxy, double c2)
{
    for (int64_t b = 0; b < kzp; b += RK_ZLANES)
        for (int64_t z = b; z < b + RK_ZLANES; z++) {
            double g = col[z] * (wxy * wz[z]);
            g = r2xy + dz2[z] <= c2 ? g : -0.0;
            ax[z] += g;
            cy[z] += g;
        }
}

/* MeshStencilPlan.interpolate_forces before the charge prefactor: row
 * i - lo of out is (Sx, Sy, Sz) = sum over the stencil of g * (dx, dy,
 * dz), g = phi[idx] * w, for atom i of [lo, hi), read through the
 * halo'd columns of `halo` (filled here from phi).  Float sums do not
 * commute, so the order is the contract (DESIGN.md, gather-order lemma),
 * and NumpyKernels.mesh_gather_axes makes the same adds as whole-array
 * adds.  Every sum starts at +0.0 and adds in ascending index:
 *   A[x][z] = sum_y g[x][y][z]      C[y][z] = sum_x g[x][y][z]
 *   T[z]    = sum_x A[x][z]
 *   Sx = sum_x (sum_z A[x][z]) * dx[x]
 *   Sy = sum_y (sum_z C[y][z]) * dy[y]
 *   Sz = sum_z T[z] * dz[z]
 * A and C have one independent sum per z lane, kzp of them, so those
 * adds are element-wise across a column and vectorize (vector-width
 * lemma); the pad lanes only ever add -0.0 and stay +0.0, and the
 * O(k^2) per-atom tails, which are serial, read lanes z < kz only.  A
 * masked point adds -0.0, which no sum sees, so a column wholly outside
 * the sphere is skipped. */
void rk_mesh_gather_axes(const rk_axes *ax, int64_t lo, int64_t hi,
                         double c2, const double *phi, double *halo,
                         double *out)
{
    const int64_t kx = ax->kx, ky = ax->ky, kz = ax->kz, kzp = ax->kzp;
    const int64_t mz = ax->mz, hz = mz + kzp - 1, ncol = ax->mx * ax->my;
    double wzp[kzp], dz2[kzp], a[kx * kzp], c[ky * kzp], t[kz];
    for (int64_t col = 0; col < ncol; col++)
        for (int64_t z0 = 0; z0 < hz; z0 += mz) {
            int64_t len = hz - z0 < mz ? hz - z0 : mz;
            memcpy(halo + col * hz + z0, phi + col * mz,
                   (size_t)len * sizeof(double));
        }
    for (int64_t i = lo; i < hi; i++, out += 3) {
        RK_ATOM_ROWS(ax, i);
        rk_zlanes(wzi, dzi, kz, kzp, wzp, dz2);
        memset(a, 0, sizeof a);
        memset(c, 0, sizeof c);
        for (int64_t x = 0; x < kx; x++)
            for (int64_t y = 0; y < ky; y++) {
                double r2xy = dxi[x] * dxi[x] + dyi[y] * dyi[y];
                if (r2xy > c2)
                    continue;
                double wxy = wxi[x] * wyi[y];
                int64_t col = (int64_t)ixi[x] * ax->my + iyi[y];
                rk_gather_col(a + x * kzp, c + y * kzp,
                              halo + col * hz + izi[0], wzp, dz2, kzp, r2xy,
                              wxy, c2);
            }
        double sx = 0.0, sy = 0.0, sz = 0.0;
        memset(t, 0, sizeof t);
        for (int64_t x = 0; x < kx; x++) {
            double s = 0.0;
            for (int64_t z = 0; z < kz; z++)
                s += a[x * kzp + z];
            sx += s * dxi[x];
            for (int64_t z = 0; z < kz; z++)
                t[z] += a[x * kzp + z];
        }
        for (int64_t y = 0; y < ky; y++) {
            double s = 0.0;
            for (int64_t z = 0; z < kz; z++)
                s += c[y * kzp + z];
            sy += s * dyi[y];
        }
        for (int64_t z = 0; z < kz; z++)
            sz += t[z] * dzi[z];
        out[0] = sx;
        out[1] = sy;
        out[2] = sz;
    }
}

/* ---- One FFT: the mesh solve (kernels/fft.py is its NumPy twin) ------
 *
 * phi <- F^-1(green . F q) for `lanes` real mx x my x mz meshes, and
 * each lane's energy 0.5 * sum(q * phi) (rk_mesh_energy), the
 * element-wise IEEE + - * of kernels/fft.py in its order: the real-input
 * transform along z (the half-length complex line z[k] = q[2k] +
 * i q[2k+1], then the half-spectrum split), decimation-in-frequency lines
 * along y and x, the real Green's function on the half spectrum (x and y
 * bit-reversed), decimation-in-time lines along x and y, and the
 * complex-to-real split and line along z.  Twiddles are read, never
 * computed: wr/wi is kernels/fft.py's stage table, stage h's twiddles at
 * [h - 1, 2h - 1), for the largest axis.
 *
 * Layout, so that every butterfly is an element-wise loop over
 * contiguous memory (vector-width lemma): the half spectrum is
 * [x][y][k], k < mz/2 + 1; a y line's points are k-rows apart and an x
 * line's points y-planes apart, and a line stage runs over all the
 * lines of a slab at once.  The z lines of one x plane are transposed
 * into [k][y] rows of the scratch for the same reason (a plane at a
 * time, which stays in L1; the whole mesh at once was slower).
 * Scratch: 2 * mx*my*(mz/2 + 1) + my*mz doubles per call
 * (kernels/suite.py sizes it). */

/* One butterfly of L lines: a <- a + c, c <- (a - c) * w (w == 1 at j == 0). */
static inline void rk_bfly_dif(double *restrict ar, double *restrict ai,
                               double *restrict cr, double *restrict ci,
                               int64_t L, int64_t j, double wr, double wi)
{
    if (j == 0) {
        for (int64_t l = 0; l < L; l++) {
            double xr = ar[l], xi = ai[l], yr = cr[l], yi = ci[l];
            ar[l] = xr + yr;
            ai[l] = xi + yi;
            cr[l] = xr - yr;
            ci[l] = xi - yi;
        }
        return;
    }
    for (int64_t l = 0; l < L; l++) {
        double xr = ar[l], xi = ai[l], yr = cr[l], yi = ci[l];
        double dr = xr - yr, di = xi - yi;
        ar[l] = xr + yr;
        ai[l] = xi + yi;
        cr[l] = dr * wr - di * wi;
        ci[l] = dr * wi + di * wr;
    }
}

/* c <- c * conj(w) (not at j == 0), then a <- a + c, c <- a - c. */
static inline void rk_bfly_dit(double *restrict ar, double *restrict ai,
                               double *restrict cr, double *restrict ci,
                               int64_t L, int64_t j, double wr, double wi)
{
    if (j == 0) {
        for (int64_t l = 0; l < L; l++) {
            double xr = ar[l], xi = ai[l], yr = cr[l], yi = ci[l];
            ar[l] = xr + yr;
            ai[l] = xi + yi;
            cr[l] = xr - yr;
            ci[l] = xi - yi;
        }
        return;
    }
    for (int64_t l = 0; l < L; l++) {
        double xr = ar[l], xi = ai[l];
        double yr = cr[l] * wr + ci[l] * wi, yi = ci[l] * wr - cr[l] * wi;
        ar[l] = xr + yr;
        ai[l] = xi + yi;
        cr[l] = xr - yr;
        ci[l] = xi - yi;
    }
}

/* Lines of n points, point p of line l at p*stride + l, l < L: forward
 * (dif, h = n/2 .. 1) or inverse (dit, h = 1 .. n/2). */
static void rk_lines(double *re, double *im, int64_t n, int64_t stride,
                     int64_t L, const double *wr, const double *wi, int inverse)
{
    for (int64_t s = 1; s < n; s *= 2) {
        int64_t h = inverse ? s : n / (2 * s);
        for (int64_t b = 0; b < n; b += 2 * h)
            for (int64_t j = 0; j < h; j++) {
                double *ar = re + (b + j) * stride, *ai = im + (b + j) * stride;
                double *cr = ar + h * stride, *ci = ai + h * stride;
                double w_r = wr[h - 1 + j], w_i = wi[h - 1 + j];
                if (inverse)
                    rk_bfly_dit(ar, ai, cr, ci, L, j, w_r, w_i);
                else
                    rk_bfly_dif(ar, ai, cr, ci, L, j, w_r, w_i);
            }
    }
}

static inline int64_t rk_bitrev(int64_t k, int64_t m)
{
    int64_t r = 0;
    for (int64_t b = 1; b < m; b *= 2, k >>= 1)
        r = (r << 1) | (k & 1);
    return r;
}

/* Real-input transform of the `my` z lines of q (my x mz, a line a row)
 * into the half spectrum hr/hi ([y][k], K = mz/2 + 1 points a row). */
static void rk_rfft_z(const double *restrict q, double *restrict hr,
                      double *restrict hi, int64_t my, int64_t mz,
                      double *restrict zr, double *restrict zi,
                      const double *wr, const double *wi)
{
    const int64_t m = mz / 2, K = m + 1;
    for (int64_t y = 0; y < my; y++)
        for (int64_t k = 0; k < m; k++) {
            zr[k * my + y] = q[y * mz + 2 * k];
            zi[k * my + y] = q[y * mz + 2 * k + 1];
        }
    rk_lines(zr, zi, m, my, my, wr, wi, 0);
    for (int64_t y = 0; y < my; y++) {
        hr[y * K] = zr[y] + zi[y];
        hr[y * K + m] = zr[y] - zi[y];
        hi[y * K] = hi[y * K + m] = 0.0;
    }
    for (int64_t k = 1; k < m; k++) {
        const double *ar = zr + rk_bitrev(k, m) * my, *ai = zi + rk_bitrev(k, m) * my;
        const double *br = zr + rk_bitrev(m - k, m) * my;
        const double *bi = zi + rk_bitrev(m - k, m) * my;
        const double c = wr[m - 1 + k], s = wi[m - 1 + k];
        for (int64_t y = 0; y < my; y++) {
            double er = ar[y] + br[y], ei = ai[y] - bi[y];
            double o_r = ai[y] + bi[y], o_i = br[y] - ar[y];
            hr[y * K + k] = 0.5 * (er + (c * o_r - s * o_i));
            hi[y * K + k] = 0.5 * (ei + (c * o_i + s * o_r));
        }
    }
}

/* Its inverse times mz: half spectrum -> the `my` real z lines of q. */
static void rk_irfft_z(const double *restrict hr, const double *restrict hi,
                       double *restrict q, int64_t my, int64_t mz,
                       double *restrict zr, double *restrict zi,
                       const double *wr, const double *wi)
{
    const int64_t m = mz / 2, K = m + 1;
    for (int64_t y = 0; y < my; y++) {
        zr[y] = hr[y * K] + hr[y * K + m];
        zi[y] = hr[y * K] - hr[y * K + m];
    }
    for (int64_t k = 1; k < m; k++) {
        double *pr = zr + rk_bitrev(k, m) * my, *pi = zi + rk_bitrev(k, m) * my;
        const double c = wr[m - 1 + k], s = wi[m - 1 + k];
        for (int64_t y = 0; y < my; y++) {
            double a_r = hr[y * K + k], a_i = hi[y * K + k];
            double b_r = hr[y * K + m - k], b_i = hi[y * K + m - k];
            double er = a_r + b_r, ei = a_i - b_i, dr = a_r - b_r, di = a_i + b_i;
            double o_r = dr * c + di * s, o_i = di * c - dr * s;
            pr[y] = er - o_i;
            pi[y] = ei + o_r;
        }
    }
    rk_lines(zr, zi, m, my, my, wr, wi, 1);
    for (int64_t y = 0; y < my; y++)
        for (int64_t k = 0; k < m; k++) {
            q[y * mz + 2 * k] = zr[k * my + y];
            q[y * mz + 2 * k + 1] = zi[k * my + y];
        }
}

/* The energy 0.5 * sum(q * phi) of a lane, in one order: eight
 * sequential sums a[j] = q[j]*phi[j] + q[8+j]*phi[8+j] + ..., then
 * ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)).  The eight sums are
 * independent, so the loop is element-wise across them (vector-width
 * lemma). */
static double rk_mesh_energy(const double *restrict q, const double *restrict phi,
                             int64_t npts)
{
    double a[8];
    for (int j = 0; j < 8; j++)
        a[j] = q[j] * phi[j];
    for (int64_t i = 8; i < npts; i += 8)
        for (int j = 0; j < 8; j++)
            a[j] += q[i + j] * phi[i + j];
    return 0.5 * (((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7])));
}

void rk_mesh_solve(int64_t lanes, int64_t mx, int64_t my, int64_t mz,
                   const double *q, const double *green, double *phi,
                   double *energy, const double *wr, const double *wi,
                   double *work)
{
    const int64_t K = mz / 2 + 1, plane = my * K, half = mx * plane;
    const int64_t npts = mx * my * mz;
    double *hr = work, *hi = work + half, *zr = work + 2 * half;
    double *zi = zr + (mz / 2) * my;
    for (int64_t r = 0; r < lanes; r++, q += npts, phi += npts) {
        for (int64_t x = 0; x < mx; x++) /* one x plane at a time: in L1 */
            rk_rfft_z(q + x * my * mz, hr + x * plane, hi + x * plane, my, mz,
                      zr, zi, wr, wi);
        for (int64_t x = 0; x < mx; x++)
            rk_lines(hr + x * plane, hi + x * plane, my, K, K, wr, wi, 0);
        rk_lines(hr, hi, mx, plane, plane, wr, wi, 0);
        for (int64_t i = 0; i < half; i++) {
            hr[i] = hr[i] * green[i];
            hi[i] = hi[i] * green[i];
        }
        rk_lines(hr, hi, mx, plane, plane, wr, wi, 1);
        for (int64_t x = 0; x < mx; x++)
            rk_lines(hr + x * plane, hi + x * plane, my, K, K, wr, wi, 1);
        for (int64_t x = 0; x < mx; x++)
            rk_irfft_z(hr + x * plane, hi + x * plane, phi + x * my * mz, my, mz,
                       zr, zi, wr, wi);
        energy[r] = rk_mesh_energy(q, phi, npts);
    }
}
