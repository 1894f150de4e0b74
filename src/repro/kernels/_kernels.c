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

/* Segment-lookup acceleration grid: maps u in [0, 1) to a starting
 * segment index; a short forward scan lands on the exact segment,
 * reproducing np.searchsorted(starts, u, side="right") - 1 for the
 * monotone tier layouts (starts[0] == 0.0, u >= 0). */
#define RK_GRID 1024

static void rk_build_grid(const double *starts, int64_t nseg, int32_t *grid)
{
    int64_t idx = 0;
    for (int64_t g = 0; g < RK_GRID; g++) {
        double u0 = (double)g / (double)RK_GRID;
        while (idx + 1 < nseg && starts[idx + 1] <= u0)
            idx++;
        grid[g] = (int32_t)idx;
    }
}

static inline int64_t rk_segment(const double *starts, int64_t nseg,
                                 const int32_t *grid, double u)
{
    int64_t g = (int64_t)(u * (double)RK_GRID);
    if (g >= RK_GRID)
        g = RK_GRID - 1;
    if (g < 0)
        g = 0;
    int64_t idx = grid[g];
    while (idx + 1 < nseg && starts[idx + 1] <= u)
        idx++;
    return idx;
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
 * zero, so neither does d).  Not for SHAKE/RATTLE's unwrapped
 * differences: those keep rk_min_image. */
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
 * An axis that fits seven cells of width >= reach/3 is cut into as many
 * as fit (up to a cap tied to the atom count) and swept with the stencil
 * -k..k, k <= 3 the fewest cells that span reach; seven cells keep the
 * wrapped stencil cells distinct.  A shorter axis is left unbinned, so a
 * box that admits no binning at all degenerates to one cell: there cell
 * order is id order, so row i sweeps only the run after slot i (its
 * partners j > i) instead of the whole block.  Atoms are counting-sorted
 * into cells in ascending id, their coordinates copied in cell order
 * into three arrays (sx, sy, sz).
 *
 * Rows are swept in ascending i.  A row walks the stencil's (x, y)
 * columns; a column's z-window of cells is contiguous in cell order up
 * to one wrap, so its atoms are at most two contiguous runs of the
 * cell-ordered arrays.  Each run is tested in blocks of RK_NB_BLOCK
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

/* int64 words of scratch rk_neighbor_build needs for one block. */
int64_t rk_neighbor_work_size(int64_t block_len)
{
    int64_t c = rk_nb_axis_cap(block_len);
    return c * c * c + 1 + 5 * block_len + (block_len + 63) / 64;
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
        for (int64_t k = 0; k < nb; k++) {
            /* cells.within's predicate, operation for operation */
            const double d0 = rk_image(a0 - sx[p + k], L[0], h[0]);
            const double d1 = rk_image(a1 - sy[p + k], L[1], h[1]);
            const double d2 = rk_image(a2 - sz[p + k], L[2], h[2]);
            const int64_t hit = (cj[p + k] > i) & ((d0 * d0 + d1 * d1) + d2 * d2 < reach2);
            mask |= (uint64_t)hit << k;
        }
        for (; mask; mask &= mask - 1) {
            const int64_t j = cj[p + __builtin_ctzll(mask)], wd = j >> 6;
            bits[wd] |= (uint64_t)1 << (j & 63);
            *wlo = wd < *wlo ? wd : *wlo;
            *whi = wd > *whi ? wd : *whi;
        }
    }
}

/* Sweeps rows at[0] .. n_blocks * block_len - 1 (global indices), the
 * at[1] partners already written kept (with row_ptr up to row at[0]).
 * On return at[0] is the first row not swept and at[1] the partners
 * written; once every row is swept, row_ptr[n_blocks * block_len] is
 * too.  Returns 0 when every row is swept, else the pair count of row
 * at[0], which did not fit in cap. */
int64_t rk_neighbor_build(int64_t n_blocks, int64_t block_len,
                          const double *w, const double *L, double reach,
                          const int64_t *excl_ptr, const int64_t *excl_idx,
                          int64_t *work, int64_t *row_ptr, int32_t *partners,
                          int64_t cap, int64_t *at)
{
    const double reach2 = reach * reach;
    const double h[3] = {0.5 * L[0], 0.5 * L[1], 0.5 * L[2]};
    const int64_t axis_cap = rk_nb_axis_cap(block_len);
    int64_t nc[3], kk[3];
    double cs[3];
    for (int a = 0; a < 3; a++) {
        const double f = floor(3.0 * L[a] / (reach * RK_NB_SLACK));
        nc[a] = 1;
        kk[a] = 0;
        cs[a] = L[a];
        if (f >= 7.0) {
            nc[a] = f < (double)axis_cap ? (int64_t)f : axis_cap;
            cs[a] = L[a] / (double)nc[a];
            kk[a] = 1;
            while (kk[a] < 3 && (double)kk[a] * cs[a] < reach * RK_NB_SLACK)
                kk[a]++;
        }
    }
    const int64_t ncell = nc[0] * nc[1] * nc[2];

    /* Stencil columns (ox, oy) and the z half-width kz of the cells in
     * each that can hold a partner: the face gap per axis is (|o| - 1) *
     * cell width, and it grows with |oz|, so each column's cells are the
     * window -kz..kz. */
    int64_t col[49][3], ncol = 0;
    for (int64_t ox = -kk[0]; ox <= kk[0]; ox++)
        for (int64_t oy = -kk[1]; oy <= kk[1]; oy++) {
            int64_t kz = -1;
            for (int64_t oz = 0; oz <= kk[2]; oz++) {
                const int64_t o[3] = {ox, oy, oz};
                double g2 = 0.0;
                for (int a = 0; a < 3; a++) {
                    int64_t g = (o[a] < 0 ? -o[a] : o[a]) - 1;
                    double gap = g > 0 ? (double)g * cs[a] : 0.0;
                    g2 += gap * gap;
                }
                if (g2 < reach2 * RK_NB_SLACK)
                    kz = oz;
            }
            if (kz >= 0) {
                col[ncol][0] = ox;
                col[ncol][1] = oy;
                col[ncol][2] = kz;
                ncol++;
            }
        }

    int64_t *cell_start = work;                  /* ncell + 1        */
    int64_t *cell_atoms = cell_start + axis_cap * axis_cap * axis_cap + 1;
    int64_t *atom_cell = cell_atoms + block_len;
    uint64_t *bits = (uint64_t *)(atom_cell + block_len);
    double *sx = (double *)(bits + (block_len + 63) / 64); /* cell order */
    double *sy = sx + block_len, *sz = sy + block_len;
    memset(bits, 0, (size_t)((block_len + 63) / 64) * sizeof *bits);

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
            const double a0 = x[3 * i], a1 = x[3 * i + 1], a2 = x[3 * i + 2];
            const int64_t ci = atom_cell[i];
            const int64_t cx = ci / (nc[1] * nc[2]);
            const int64_t cy = (ci / nc[2]) % nc[1];
            const int64_t cz = ci % nc[2];
            int64_t wlo = INT64_MAX, whi = -1;
            if (ncell == 1) /* slot p holds atom p: the partners j > i are a suffix */
                rk_nb_run(i, a0, a1, a2, i + 1, block_len, cell_atoms, sx, sy, sz,
                          L, h, reach2, bits, &wlo, &whi);
            for (int64_t s = 0; ncell > 1 && s < ncol; s++) {
                int64_t nx = cx + col[s][0], ny = cy + col[s][1];
                nx += nx < 0 ? nc[0] : (nx >= nc[0] ? -nc[0] : 0);
                ny += ny < 0 ? nc[1] : (ny >= nc[1] ? -nc[1] : 0);
                const int64_t *cz0 = cell_start + (nx * nc[1] + ny) * nc[2];
                const int64_t kz = col[s][2], lo = cz - kz, hi = cz + kz + 1;
                /* The window [lo, hi) as runs of cells, wrapped past at
                 * most one end (2 kz + 1 <= nc[2]: a window as long as
                 * the axis tiles it in two runs). */
                int64_t r[2][2], nr = 1;
                if (lo < 0) {
                    r[0][0] = 0, r[0][1] = hi;
                    r[1][0] = lo + nc[2], r[1][1] = nc[2], nr = 2;
                } else if (hi > nc[2]) {
                    r[0][0] = lo, r[0][1] = nc[2];
                    r[1][0] = 0, r[1][1] = hi - nc[2], nr = 2;
                } else {
                    r[0][0] = lo, r[0][1] = hi;
                }
                for (int64_t k = 0; k < nr; k++)
                    rk_nb_run(i, a0, a1, a2, cz0[r[k][0]], cz0[r[k][1]], cell_atoms,
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
 * from them), and both segment-lookup grids. */
typedef struct {
    rk_pair_spec s;
    double L0, L1, L2, h0, h1, h2;
    const double *sx, *sy, *sz;
    int32_t e_grid[RK_GRID], d_grid[RK_GRID];
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
    rk_build_grid(s->e_starts, s->e_nseg, c->e_grid);
    rk_build_grid(s->d_starts, s->d_nseg, c->d_grid);
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
    int64_t ie[RK_WALK_BLOCK];
    double te[RK_WALK_BLOCK];
    double pf[RK_WALK_BLOCK];
    int64_t lj[RK_WALK_BLOCK], id[RK_WALK_BLOCK];
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
 * caller's next free slots), their displacements and clamped u in the
 * block.  Returns how many survived. */
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
                            const int64_t *restrict seg,
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
        blk->ie[b] = rk_segment(s->e_starts, s->e_nseg, c->e_grid, blk->u[b]);
        blk->lj[nl] = b;
        nl += blk->ca[b] != 0.0 || blk->cb[b] != 0.0;
    }
    rk_offsets(nb, blk->u, blk->ie, s->e_starts, s->e_widths, s->e_inv, blk->te);
    for (int64_t b = 0; b < nb; b++) {
        const int64_t ie = 4 * blk->ie[b];
        const double te = blk->te[b];
        e_coul[b] = blk->qq[b] * rk_horner4(s->e_ce + ie, te);
        blk->pf[b] = blk->qq[b] * rk_horner4(s->e_cf + ie, te);
        e_lj[b] = 0.0;
    }
    for (int64_t l = 0; l < nl; l++) {
        blk->ul[l] = blk->u[blk->lj[l]];
        blk->id[l] = rk_segment(s->d_starts, s->d_nseg, c->d_grid, blk->ul[l]);
    }
    rk_offsets(nl, blk->ul, blk->id, s->d_starts, s->d_widths, s->d_inv, blk->td);
    for (int64_t l = 0; l < nl; l++) {
        const int64_t b = blk->lj[l], id = 4 * blk->id[l];
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

/* One evaluation of the range-limited forces, from the Verlet rows
 * straight to the force accumulator: NumpyKernels.pair_walk (filter ->
 * tables -> quantize -> deposit) with nothing stored per pair but what the
 * caller reads — the surviving (i, j) and the per-pair energies (summed by
 * np.sum, so the reported floats keep NumPy's pairwise bits).
 *
 * The list is rows: row i is partners[row_ptr[i] .. row_ptr[i + 1]), in
 * ascending j, so the rows in turn are the canonical (i, j) order.  Per
 * row, atom i's coordinates, charge and A/B row are held (rk_row); per
 * block of the row's partners, rk_walk_filter, then rk_pair_tables and
 * rk_quantize on the survivors (stages A and B), then stage C, scalar:
 * each code added to atom i's row sum and subtracted from acc[j], and the
 * row sum added to acc[i] once the row is done.  uint64 adds wrap like
 * int64 and commute, so the deposit order is invisible.  soa is 3 n_atoms
 * doubles of scratch; the arrays must not overlap.  Returns the surviving
 * pair count. */
int64_t rk_pair_walk(int64_t n_atoms, const int64_t *restrict row_ptr,
                     const int32_t *restrict partners, const double *restrict w,
                     double *restrict soa, const double *L,
                     const rk_pair_spec *s, int64_t *restrict acc,
                     int64_t *restrict oi, int64_t *restrict oj,
                     double *restrict e_lj, double *restrict e_coul)
{
    rk_walk_ctx c;
    rk_walk_init(&c, s, L, n_atoms, w, soa);
    const double ql = c.s.q_limit, qs = c.s.q_scale, qm = c.s.q_mul;
    uint64_t *a = (uint64_t *)acc;
    rk_walk_block blk;
    uint64_t c0[RK_WALK_BLOCK], c1[RK_WALK_BLOCK], c2[RK_WALK_BLOCK];
    int64_t m = 0;

    for (int64_t i = 0; i < n_atoms; i++) {
        const int64_t end = row_ptr[i + 1];
        if (row_ptr[i] == end)
            continue;
        const rk_row r = rk_row_of(&c, i);
        uint64_t f0 = 0, f1 = 0, f2 = 0;
        for (int64_t lo = row_ptr[i]; lo < end; lo += RK_WALK_BLOCK) {
            const int64_t nk = end - lo < RK_WALK_BLOCK ? end - lo : RK_WALK_BLOCK;
            const int64_t nb = rk_walk_filter(&c, &r, partners + lo, nk, oj + m, &blk);
            rk_pair_tables(&c, &r, nb, oj + m, &blk, e_lj + m, e_coul + m);
            rk_quantize(nb, blk.pf, blk.d0, ql, qs, qm, c0);
            rk_quantize(nb, blk.pf, blk.d1, ql, qs, qm, c1);
            rk_quantize(nb, blk.pf, blk.d2, ql, qs, qm, c2);
            for (int64_t b = 0; b < nb; b++, m++) {
                const int64_t j = oj[m];
                oi[m] = i;
                f0 += c0[b];
                f1 += c1[b];
                f2 += c2[b];
                a[3 * j] -= c0[b];
                a[3 * j + 1] -= c1[b];
                a[3 * j + 2] -= c2[b];
            }
        }
        a[3 * i] += f0;
        a[3 * i + 1] += f1;
        a[3 * i + 2] += f2;
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

/* The NT method's force-export set of one step, as marks: pair (i, j) is
 * computed on node_tab[home[i], home[j]] (the tabulated box-pair rule of
 * parallel.nt.nt_node_tables), and that node owes atom i and atom j one
 * summed force each.  mi / mj are (n_atoms, n_nodes) byte maps, cleared
 * here, of the (atom, node) sums of the i side and of the j side. */
void rk_nt_marks(int64_t m, const int64_t *pi, const int64_t *pj,
                 const int64_t *home, const int64_t *node_tab,
                 int64_t n_nodes, int64_t n_atoms,
                 uint8_t *restrict mi, uint8_t *restrict mj)
{
    memset(mi, 0, (size_t)(n_atoms * n_nodes));
    memset(mj, 0, (size_t)(n_atoms * n_nodes));
    for (int64_t k = 0; k < m; k++) {
        const int64_t i = pi[k], j = pj[k];
        const int64_t node = node_tab[home[i] * n_nodes + home[j]];
        mi[i * n_nodes + node] = 1;
        mj[j * n_nodes + node] = 1;
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

/* acc[idx] += codes over (n, 3) rows (bonded-term deposits). */
void rk_scatter_rows(int64_t *acc, const int64_t *idx, const int64_t *codes,
                     int64_t n)
{
    uint64_t *a = (uint64_t *)acc;
    const uint64_t *c = (const uint64_t *)codes;
    for (int64_t k = 0; k < n; k++) {
        uint64_t *r = a + 3 * idx[k];
        r[0] += c[3 * k];
        r[1] += c[3 * k + 1];
        r[2] += c[3 * k + 2];
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

/* -- SHAKE / RATTLE ---------------------------------------------------- */

/* Box.minimum_image, d - L * rint(d / L), for the unwrapped differences
 * SHAKE and RATTLE take (rk_image needs wrapped coordinates).  Lemma
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

/* Running maximum that propagates NaN the way np.max does: once err is
 * NaN it stays NaN, so the convergence test (err < tol) keeps failing
 * exactly as NumPy's would. */
static inline double rk_max(double err, double e)
{
    if (isnan(e) || e > err)
        return e;
    return err;
}

/* SHAKE of one block: Gauss-Seidel sweeps over atom-disjoint
 * constraint batches.  `order` is the concatenation of the coloring
 * batches, `starts` the (nbatch + 1) prefix offsets into it.  `dref`
 * is caller-provided (ncon, 3) scratch. */
static void rk_shake(double *pos, const double *ref, const int64_t *ci,
                     const int64_t *cj, const double *d2, const double *inv,
                     const double *L, int64_t ncon, const int64_t *order,
                     const int64_t *starts, int64_t nbatch, int64_t iters,
                     double tol, double *dref)
{
    for (int64_t c = 0; c < ncon; c++) {
        const double *ri = ref + 3 * ci[c];
        const double *rj = ref + 3 * cj[c];
        dref[3 * c] = rk_min_image(ri[0] - rj[0], L[0]);
        dref[3 * c + 1] = rk_min_image(ri[1] - rj[1], L[1]);
        dref[3 * c + 2] = rk_min_image(ri[2] - rj[2], L[2]);
    }
    for (int64_t it = 0; it < iters; it++) {
        double err = 0.0;
        for (int64_t c = 0; c < ncon; c++) {
            const double *xi = pos + 3 * ci[c];
            const double *xj = pos + 3 * cj[c];
            double d0 = rk_min_image(xi[0] - xj[0], L[0]);
            double d1 = rk_min_image(xi[1] - xj[1], L[1]);
            double dz = rk_min_image(xi[2] - xj[2], L[2]);
            double r2 = (d0 * d0 + d1 * d1) + dz * dz;
            err = rk_max(err, fabs(r2 - d2[c]));
        }
        if (err < tol)
            break;
        for (int64_t b = 0; b < nbatch; b++) {
            for (int64_t s = starts[b]; s < starts[b + 1]; s++) {
                int64_t c = order[s];
                int64_t i = ci[c], j = cj[c];
                double *xi = pos + 3 * i;
                double *xj = pos + 3 * j;
                double d0 = rk_min_image(xi[0] - xj[0], L[0]);
                double d1 = rk_min_image(xi[1] - xj[1], L[1]);
                double dz = rk_min_image(xi[2] - xj[2], L[2]);
                double diff = ((d0 * d0 + d1 * d1) + dz * dz) - d2[c];
                double dot = (d0 * dref[3 * c] + d1 * dref[3 * c + 1])
                             + dz * dref[3 * c + 2];
                double denom = 2.0 * (inv[i] + inv[j]) * dot;
                if (fabs(denom) < 1e-12)
                    denom = 1e-12;
                double g = diff / denom;
                double c0 = g * dref[3 * c];
                double c1 = g * dref[3 * c + 1];
                double c2 = g * dref[3 * c + 2];
                xi[0] -= inv[i] * c0;
                xi[1] -= inv[i] * c1;
                xi[2] -= inv[i] * c2;
                xj[0] += inv[j] * c0;
                xj[1] += inv[j] * c1;
                xj[2] += inv[j] * c2;
            }
        }
    }
}

/* ConstraintSolver.shake and the ensemble's: nrep independent blocks
 * stacked along the atom axis (block r owns rows [r*natoms,
 * (r+1)*natoms)), each solved with the one-block sweep above against
 * the one block's constraint arrays.  A solo system is nrep = 1; an
 * ensemble's R replicas are one ctypes call, and every replica's
 * arithmetic is literally the solo routine — bitwise identity with a
 * solo run is structural. */
void rk_shake_batch(int64_t nrep, int64_t natoms, double *pos,
                    const double *ref, const int64_t *ci, const int64_t *cj,
                    const double *d2, const double *inv, const double *L,
                    int64_t ncon, const int64_t *order,
                    const int64_t *starts, int64_t nbatch, int64_t iters,
                    double tol, double *dref)
{
    for (int64_t r = 0; r < nrep; r++)
        rk_shake(pos + 3 * natoms * r, ref + 3 * natoms * r, ci, cj, d2,
                 inv, L, ncon, order, starts, nbatch, iters, tol, dref);
}

/* RATTLE of one block.  `dx_all` (ncon, 3) and `d2_all` (ncon) are
 * caller-provided scratch. */
static void rk_rattle(double *vel, const double *pos, const int64_t *ci,
                      const int64_t *cj, const double *inv, const double *L,
                      int64_t ncon, const int64_t *order,
                      const int64_t *starts, int64_t nbatch, int64_t iters,
                      double tol, double *dx_all, double *d2_all)
{
    for (int64_t c = 0; c < ncon; c++) {
        const double *xi = pos + 3 * ci[c];
        const double *xj = pos + 3 * cj[c];
        double d0 = rk_min_image(xi[0] - xj[0], L[0]);
        double d1 = rk_min_image(xi[1] - xj[1], L[1]);
        double dz = rk_min_image(xi[2] - xj[2], L[2]);
        dx_all[3 * c] = d0;
        dx_all[3 * c + 1] = d1;
        dx_all[3 * c + 2] = dz;
        d2_all[c] = (d0 * d0 + d1 * d1) + dz * dz;
    }
    for (int64_t it = 0; it < iters; it++) {
        double err = 0.0;
        for (int64_t c = 0; c < ncon; c++) {
            const double *vi = vel + 3 * ci[c];
            const double *vj = vel + 3 * cj[c];
            double s = (dx_all[3 * c] * (vi[0] - vj[0])
                        + dx_all[3 * c + 1] * (vi[1] - vj[1]))
                       + dx_all[3 * c + 2] * (vi[2] - vj[2]);
            err = rk_max(err, fabs(s));
        }
        if (err < tol)
            break;
        for (int64_t b = 0; b < nbatch; b++) {
            for (int64_t s = starts[b]; s < starts[b + 1]; s++) {
                int64_t c = order[s];
                int64_t i = ci[c], j = cj[c];
                double *vi = vel + 3 * i;
                double *vj = vel + 3 * j;
                double rv = (dx_all[3 * c] * (vi[0] - vj[0])
                             + dx_all[3 * c + 1] * (vi[1] - vj[1]))
                            + dx_all[3 * c + 2] * (vi[2] - vj[2]);
                double kk = rv / ((inv[i] + inv[j]) * d2_all[c]);
                double c0 = kk * dx_all[3 * c];
                double c1 = kk * dx_all[3 * c + 1];
                double c2 = kk * dx_all[3 * c + 2];
                vi[0] -= inv[i] * c0;
                vi[1] -= inv[i] * c1;
                vi[2] -= inv[i] * c2;
                vj[0] += inv[j] * c0;
                vj[1] += inv[j] * c1;
                vj[2] += inv[j] * c2;
            }
        }
    }
}

/* ConstraintSolver.rattle and the ensemble's; see rk_shake_batch. */
void rk_rattle_batch(int64_t nrep, int64_t natoms, double *vel,
                     const double *pos, const int64_t *ci, const int64_t *cj,
                     const double *inv, const double *L, int64_t ncon,
                     const int64_t *order, const int64_t *starts,
                     int64_t nbatch, int64_t iters, double tol,
                     double *dx_all, double *d2_all)
{
    for (int64_t r = 0; r < nrep; r++)
        rk_rattle(vel + 3 * natoms * r, pos + 3 * natoms * r, ci, cj, inv,
                  L, ncon, order, starts, nbatch, iters, tol, dx_all,
                  d2_all);
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
