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
 * pair path drops a division only where one of two lemmas proves the
 * replacement is the same IEEE result (rk_quantize, rk_offsets below);
 * each falls back to the literal division when its precondition does
 * not hold.
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

static inline int64_t rk_grid_cell(double u)
{
    int64_t g = (int64_t)(u * (double)RK_GRID);
    g = g >= RK_GRID ? RK_GRID - 1 : g;
    return g < 0 ? 0 : g;
}

/* The segment of u when the fine-grid lemma holds (t->one): branch-free,
 * so a loop of them vectorizes, gathering grid and next. */
static inline int32_t rk_segment_one(const rk_seg_lookup *t, double u)
{
    const int32_t idx = t->grid[rk_grid_cell(u)];
    return idx + (t->next[idx] <= u);
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

/* Positions arrive as int64 codes of RK_POS_BITS bits (geometry/codes.py).
 * rk_disp is PositionCodec.displacement: x_i - x_j of codes ci, cj, their
 * difference sign-extended from 40 bits in uint64 (no signed overflow, no
 * shift of a negative value) times step = L * 2^-40, the one rounding
 * (DESIGN.md, integer geometry). */
#define RK_POS_BITS 40
static inline double rk_disp(int64_t ci, int64_t cj, double step)
{
    const uint64_t half = (uint64_t)1 << (RK_POS_BITS - 1);
    const uint64_t mask = ((uint64_t)1 << RK_POS_BITS) - 1;
    const uint64_t d = ((uint64_t)ci - (uint64_t)cj + half) & mask;
    return (double)((int64_t)d - (int64_t)half) * step;
}

/* The cell (c * m) >> 40 of code c on m cells per axis (geometry/codes.py:
 * cells): exact, in [0, m), for c < 2^40 and m < 2^23. */
static inline int64_t rk_cell(int64_t c, int64_t m)
{
    return (int64_t)(((uint64_t)c * (uint64_t)m) >> RK_POS_BITS);
}

/* Kernels with vectorized loops are compiled once, out of line, whichever
 * entry point and call site use them: inlined at every call, the walk's
 * stages made the build ~20 % slower and the rebuild's anchor runs and
 * rows raised the compiler's peak memory by ~9 MB (GCC 12, -march=native
 * on an AVX-512 host) — and on a fresh checkout the build is part of the
 * first run's set-up — while a call per block of up to 256 pairs, per
 * anchor run or per row costs nothing measurable. */
#define RK_ONE_COPY __attribute__((noinline)) static

/* -- neighbor-list rebuild ------------------------------------------- */

/* NeighborList._build_inner in one pass: every pair i < j of the same
 * block whose minimum-image distance passes the cutoff predicate
 * (geometry.cells.within in NumPy, rk_walk_filter's below) at reach,
 * minus the exclusion CSR's partners, in lexicographic (i, j) order,
 * written as rows: row_ptr[i] (int64) where row i starts, its partners
 * j as int32.  That is a definition by set and order, so how candidates
 * are found is free: the sweep only has to offer every passing pair to
 * the predicate.  Partners are int32 and the atom count is capped to fit
 * them (geometry.neighborlist.MAX_ATOMS); row_ptr, the pair count and
 * the resume cursor are int64.
 *
 * Clusters first, then atoms (Anton's match units and GROMACS's cluster
 * pair search filter at a coarser grain the same way).  A block is cut
 * into clusters: a run of at most RK_NB_CLUSTER consecutive atoms tied
 * to its first atom, the anchor, by the exclusion CSR (a water's O, H1,
 * H2; with no tie, or no CSR, a singleton), with a radius r, the largest
 * minimum-image distance of a member from the anchor, recomputed from
 * the position codes at every call.  Cluster B >= A is a partner of A
 * when d(A0, B0)^2 < (reach + r_A + r_B)^2 * RK_NB_SLACK: by the torus
 * triangle inequality every pair (i in A, j in B) within reach has its
 * anchors closer than reach + r_A + r_B, and the slack is far above any
 * rounding in the distances and the radii (DESIGN.md, cluster-match
 * lemma).  Clusters are consecutive ids, so partner clusters read in
 * ascending order list their atoms in ascending j.
 *
 * The anchor sweep finds each cluster's partners.  Anchors are
 * counting-sorted into cells (ascending cluster within a cell), their
 * coordinates and radii copied in cell order; the cells may cut any axis
 * that fits seven cells of width >= reach_c/3, reach_c = reach + 2 r_max
 * (the largest anchor bound of the block), swept with the stencil -k..k,
 * k <= 3 the fewest cells that span reach_c; seven cells keep the
 * wrapped stencil cells distinct.  Which of those axes are cut is the
 * sweep's shape (rk_nb_shape), and it is free: any shape offers every
 * partner to the anchor predicate.  Cells are numbered x-major, so along
 * the last cut axis (the window axis; every later axis is uncut) a run
 * of cells is a run of the cell-ordered arrays, and the stencil is a set
 * of columns over the other cut axes, each a window of -kw..kw cells
 * along the window axis, one run or two where it wraps.  With no axis
 * cut the box is one cell, cell order is cluster order, and cluster A
 * sweeps only the anchors after its own.  The shape is the one of least
 * estimated cost, tests per cluster plus RK_NB_RUN_COST per run.  A
 * run's hits are marked in a bitmap over the block's clusters, which is
 * read back (and cleared) in ascending cluster order.
 *
 * Then, per cluster, its own atoms and those of its partners are copied
 * in that order into candidate arrays (ids and three coordinate arrays,
 * RK_NB_CLUSTER slots at a time from the block's coordinates in id
 * order), ascending in j, and each row i of the cluster tests the
 * candidates after its own slot — exactly its j > i — with the
 * predicate.  Runs of the anchor sweep and of the rows are tested in
 * blocks of RK_NB_BLOCK entries into a one-word mask on the stack
 * (element-wise IEEE operations, integer compares and an integer OR, so
 * the loop may vectorize at any width without moving a bit — DESIGN.md,
 * vector-width lemma).  A row's hits are read from the mask in
 * ascending j, its excluded partners skipped by a merge against the CSR
 * row (sorted ascending), and the survivors written straight into the
 * row.
 *
 * The sweep is resumable, so a rebuild sweeps every row once: a row
 * whose pairs do not fit in the `cap` output slots is not emitted (its
 * writes past cap are dropped), the sweep stops before it, and the
 * caller grows the outputs and calls again from that row (which may be
 * inside a cluster: the clusters and the anchor cells of its block are
 * derived again).
 *
 * Positions are int64 codes (rk_disp, rk_cell). */

#define RK_NB_SLACK (1.0 + 1e-9)

/* Atoms per cluster at most: a rigid water is three, and a fourth keeps
 * a methyl's or an amine's hydrogens with their heavy atom.  Larger
 * bounds gather longer tied runs of a protein into one cluster, whose
 * radius (and so every anchor bound of the block) then grows faster than
 * the tests it saves (DESIGN.md, cluster-match lemma). */
#define RK_NB_CLUSTER 4

/* Entries per block of the mask loop: one bit each in a uint64_t. */
#define RK_NB_BLOCK 64

/* A run's last block, when it is partial, is tested in whole blocks of
 * RK_NB_LANES entries with the ones past the run's end masked off, so
 * its loop has a fixed trip count and no scalar remainder; the
 * cell-ordered and candidate arrays carry RK_NB_LANES entries of padding
 * for the reads past the last run. */
#define RK_NB_LANES 16

/* Cells per axis never exceed this, so a block's cell table holds no
 * more cells than anchors (never below the seven an axis needs to be
 * binned at all): finer cells than one anchor each shorten no run. */
static int64_t rk_nb_axis_cap(int64_t n)
{
    int64_t c = 7;
    while ((c + 1) * (c + 1) * (c + 1) <= n)
        c++;
    return c;
}

/* One block's scratch, carved from the caller's int64 words: the anchor
 * cell table; the cluster starts and radii; per cell-ordered anchor slot its
 * cluster, codes and radius; the cluster bitmap; the block's codes in id
 * order; the candidate ids and codes.  Slot arrays carry RK_NB_LANES of
 * padding, the id-order ones RK_NB_CLUSTER. */
typedef struct {
    int64_t *cell_start;
    int32_t *cstart, *cell_clu, *cj;
    uint64_t *cbits;
    double *crad, *sr;
    int64_t *sx, *sy, *sz, *bx, *by, *bz, *cx, *cy, *cz;
} rk_nb_work;

/* Points wk's arrays into `w` (when given) and returns the words used. */
static int64_t rk_nb_carve(rk_nb_work *wk, int64_t *w, int64_t block_len)
{
    const int64_t c = rk_nb_axis_cap(block_len), pad = block_len + RK_NB_LANES;
    int64_t used = 0;
#define RK_NB_TAKE(field, type, count)                                          \
    (wk->field = w ? (type *)(w + used) : NULL,                                 \
     used += ((count) * (int64_t)sizeof(type) + 7) / 8)
    RK_NB_TAKE(cell_start, int64_t, c * c * c + 1);
    RK_NB_TAKE(cstart, int32_t, block_len + 1);
    RK_NB_TAKE(crad, double, block_len);
    RK_NB_TAKE(cell_clu, int32_t, pad);
    RK_NB_TAKE(cj, int32_t, pad);
    RK_NB_TAKE(cbits, uint64_t, (block_len + 63) / 64);
    RK_NB_TAKE(sx, int64_t, pad);
    RK_NB_TAKE(sy, int64_t, pad);
    RK_NB_TAKE(sz, int64_t, pad);
    RK_NB_TAKE(sr, double, pad);
    RK_NB_TAKE(bx, int64_t, block_len + RK_NB_CLUSTER);
    RK_NB_TAKE(by, int64_t, block_len + RK_NB_CLUSTER);
    RK_NB_TAKE(bz, int64_t, block_len + RK_NB_CLUSTER);
    RK_NB_TAKE(cx, int64_t, pad);
    RK_NB_TAKE(cy, int64_t, pad);
    RK_NB_TAKE(cz, int64_t, pad);
#undef RK_NB_TAKE
    return used;
}

/* int64 words of scratch rk_neighbor_build needs for one block. */
int64_t rk_neighbor_work_size(int64_t block_len)
{
    rk_nb_work wk;
    return rk_nb_carve(&wk, NULL, block_len);
}

/* Atom slot q of the candidates against the codes x:
 * cells.within's predicate, operation for operation. */
static inline int64_t rk_nb_atom_hit(const int64_t *x, int64_t q, const rk_nb_work *wk,
                                     const double *step, double reach2)
{
    const double d0 = rk_disp(x[0], wk->cx[q], step[0]);
    const double d1 = rk_disp(x[1], wk->cy[q], step[1]);
    const double d2 = rk_disp(x[2], wk->cz[q], step[2]);
    return (d0 * d0 + d1 * d1) + d2 * d2 < reach2;
}

/* Anchor slot q against cluster A's anchor x: whether its cluster is
 * after A and its anchor within ra + its radius (ra = reach + r_A),
 * widened by RK_NB_SLACK. */
static inline int64_t rk_nb_anchor_hit(int64_t A, const int64_t *x, double ra, int64_t q,
                                       const rk_nb_work *wk, const double *step)
{
    const double d0 = rk_disp(x[0], wk->sx[q], step[0]);
    const double d1 = rk_disp(x[1], wk->sy[q], step[1]);
    const double d2 = rk_disp(x[2], wk->sz[q], step[2]);
    const double t = ra + wk->sr[q];
    return (wk->cell_clu[q] > A) & ((d0 * d0 + d1 * d1) + d2 * d2 < t * t * RK_NB_SLACK);
}

/* Sets `mask` to the hits among slots p .. p + nb - 1 (nb <=
 * RK_NB_BLOCK), one bit each, HIT(q) being slot q's predicate. */
#define RK_NB_MASK(mask, p, nb, HIT)                                           \
    do {                                                                       \
        (mask) = 0;                                                            \
        if ((nb) == RK_NB_BLOCK)                                               \
            for (int64_t k_ = 0; k_ < RK_NB_BLOCK; k_++)                       \
                (mask) |= (uint64_t)HIT((p) + k_) << k_;                       \
        else                                                                   \
            for (int64_t kb_ = 0; kb_ < (nb); kb_ += RK_NB_LANES)              \
                for (int64_t k_ = kb_; k_ < kb_ + RK_NB_LANES; k_++)           \
                    (mask) |= (uint64_t)((k_ < (nb)) & HIT((p) + k_)) << k_;   \
    } while (0)

/* Marks in wk->cbits every partner cluster B > A among the anchor slots
 * [p0, p1); widens [*wlo, *whi] to the bitmap words it touched. */
RK_ONE_COPY void rk_nb_anchor_run(int64_t A, const int64_t *xa, double ra, int64_t p0,
                                  int64_t p1, const rk_nb_work *wk, const double *step,
                                  int64_t *wlo, int64_t *whi)
{
    for (int64_t p = p0; p < p1; p += RK_NB_BLOCK) {
        const int64_t nb = p1 - p < RK_NB_BLOCK ? p1 - p : RK_NB_BLOCK;
        uint64_t mask;
#define RK_NB_HIT(q) rk_nb_anchor_hit(A, xa, ra, q, wk, step)
        RK_NB_MASK(mask, p, nb, RK_NB_HIT);
#undef RK_NB_HIT
        for (; mask; mask &= mask - 1) {
            const int64_t B = wk->cell_clu[p + __builtin_ctzll(mask)], wd = B >> 6;
            wk->cbits[wd] |= (uint64_t)1 << (B & 63);
            *wlo = wd < *wlo ? wd : *wlo;
            *whi = wd > *whi ? wd : *whi;
        }
    }
}

/* Row i (codes xi) over the candidate slots [q0, q1), whose ids all
 * exceed i and ascend: the pairs within reach, minus the excluded
 * partners ex[e .. e1) (ascending), written to out[0 .. room).  Returns
 * their count, also when it exceeds room (the writes past room dropped). */
RK_ONE_COPY int64_t rk_nb_row(const int64_t *xi, int64_t q0, int64_t q1, const rk_nb_work *wk,
                              const double *step, double reach2,
                              const int64_t *ex, int64_t e, int64_t e1,
                              int32_t *restrict out, int64_t room)
{
    int64_t row = 0;
    for (int64_t p = q0; p < q1; p += RK_NB_BLOCK) {
        const int64_t nb = q1 - p < RK_NB_BLOCK ? q1 - p : RK_NB_BLOCK;
        uint64_t mask;
#define RK_NB_HIT(q) rk_nb_atom_hit(xi, q, wk, step, reach2)
        RK_NB_MASK(mask, p, nb, RK_NB_HIT);
#undef RK_NB_HIT
        for (; mask; mask &= mask - 1) {
            const int32_t j = wk->cj[p + __builtin_ctzll(mask)];
            int64_t keep = 1;
            if (e < e1) {
                while (e < e1 && ex[e] < j)
                    e++;
                keep = !(e < e1 && ex[e] == j);
            }
            if (row < room)
                out[row] = j;
            row += keep;
        }
    }
    return row;
}

/* Appends cluster B's atoms to the candidates from slot nq: a fixed
 * RK_NB_CLUSTER slots are copied (the ones past the cluster are
 * overwritten by the next, or lie in the padding); returns the new
 * count. */
static inline int64_t rk_nb_take(rk_nb_work *wk, int64_t base, int64_t B, int64_t nq)
{
    const int64_t j0 = wk->cstart[B];
    for (int64_t k = 0; k < RK_NB_CLUSTER; k++)
        wk->cj[nq + k] = (int32_t)(base + j0 + k);
    memcpy(wk->cx + nq, wk->bx + j0, RK_NB_CLUSTER * sizeof(int64_t));
    memcpy(wk->cy + nq, wk->by + j0, RK_NB_CLUSTER * sizeof(int64_t));
    memcpy(wk->cz + nq, wk->bz + j0, RK_NB_CLUSTER * sizeof(int64_t));
    return nq + wk->cstart[B + 1] - j0;
}

/* Test-equivalents one run of the anchor sweep costs beyond its tests
 * (loop set-up, the vector loop's remainder): the cost model's exchange
 * rate between fewer tests and fewer runs.  Measured, not derived; it
 * only picks among shapes that find the same partners. */
#define RK_NB_RUN_COST 25.0

/* One sweep shape: cells per axis nc (1 on an uncut axis) of width cs,
 * stencil half-width kk, the window axis wa (-1: no axis cut), the
 * stencil columns (offsets along the two other axes in ascending axis
 * order, then the window half-width kw) and the estimated cost per
 * anchor. */
typedef struct {
    int64_t nc[3], kk[3];
    double cs[3];
    int wa;
    int64_t ncol;
    int64_t col[49][3];
    double cost;
} rk_nb_shape;

/* The shape that cuts the axes of `mask` that fit seven cells (the
 * others stay uncut), for n anchors and the anchor reach `reach`. */
static void rk_nb_shape_init(rk_nb_shape *sh, const double *L, double reach, int64_t n, int mask)
{
    const double reach2 = reach * reach;
    const int64_t axis_cap = rk_nb_axis_cap(n);
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
    if (sh->wa < 0) { /* one cell: the suffix of each anchor */
        sh->cost = 0.5 * (double)n + RK_NB_RUN_COST;
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
    sh->cost = (double)n * (double)cells / ncell + RK_NB_RUN_COST * (double)sh->ncol;
}

/* The radius of the cluster of atoms [lo, hi) of block x (codes): the
 * largest minimum-image distance of a member from its first atom. */
static double rk_nb_radius(const int64_t *x, int64_t lo, int64_t hi, const double *step)
{
    double r2 = 0.0;
    for (int64_t k = lo + 1; k < hi; k++) {
        const double d0 = rk_disp(x[3 * lo], x[3 * k], step[0]);
        const double d1 = rk_disp(x[3 * lo + 1], x[3 * k + 1], step[1]);
        const double d2 = rk_disp(x[3 * lo + 2], x[3 * k + 2], step[2]);
        const double s = (d0 * d0 + d1 * d1) + d2 * d2;
        r2 = s > r2 ? s : r2;
    }
    return sqrt(r2);
}

/* Cuts block x (block_len atoms, global ids from base) into clusters,
 * wk->cstart[0 .. nclu] with radii wk->crad[0 .. nclu); returns nclu and
 * the largest radius in *rmax. */
static int64_t rk_nb_clusters(const int64_t *x, int64_t base, int64_t block_len,
                              const int64_t *excl_ptr, const int64_t *excl_idx,
                              const double *step, rk_nb_work *wk, double *rmax)
{
    int64_t nclu = 0;
    *rmax = 0.0;
    for (int64_t a = 0; a < block_len; nclu++) {
        int64_t t = 1;
        if (excl_ptr) { /* the CSR row of a is ascending: its first t - 1 are a + 1 .. */
            const int64_t e0 = excl_ptr[base + a], e1 = excl_ptr[base + a + 1];
            while (t < RK_NB_CLUSTER && a + t < block_len && e0 + t - 1 < e1
                   && excl_idx[e0 + t - 1] == base + a + t)
                t++;
        }
        const double r = rk_nb_radius(x, a, a + t, step);
        *rmax = r > *rmax ? r : *rmax;
        wk->crad[nclu] = r;
        wk->cstart[nclu] = (int32_t)a;
        a += t;
    }
    wk->cstart[nclu] = (int32_t)block_len;
    return nclu;
}

/* The cell of the anchor with codes xa in shape sh (flat, x-major; an
 * uncut axis has one cell, rk_cell's 0). */
static inline int64_t rk_nb_cell(const int64_t *xa, const rk_nb_shape *sh)
{
    const int64_t *nc = sh->nc;
    return (rk_cell(xa[0], nc[0]) * nc[1] + rk_cell(xa[1], nc[1])) * nc[2]
           + rk_cell(xa[2], nc[2]);
}

/* Sweeps rows at[0] .. n_blocks * block_len - 1 (global indices), the
 * at[1] partners already written kept (with row_ptr up to row at[0]).
 * On return at[0] is the first row not swept and at[1] the partners
 * written; once every row is swept, row_ptr[n_blocks * block_len] is
 * too.  Returns 0 when every row is swept, else the pair count of row
 * at[0], which did not fit in cap.  shape is -1 for the cheapest shape
 * of the anchor sweep, else the mask of axes to cut (bit a: axis a) —
 * the rows are the same either way.  excl_ptr / excl_idx (both NULL for
 * none) are the exclusion CSR over the global ids, partners j > i only
 * and each row ascending in j: the rows' merge and the cluster rule read
 * it in that order. */
int64_t rk_neighbor_build(int64_t n_blocks, int64_t block_len,
                          const int64_t *w, const double *L, double reach,
                          const int64_t *excl_ptr, const int64_t *excl_idx,
                          int64_t *work, int64_t *row_ptr, int32_t *partners,
                          int64_t cap, int64_t *at, int64_t shape)
{
    const double reach2 = reach * reach;
    const double step[3] = {ldexp(L[0], -RK_POS_BITS), ldexp(L[1], -RK_POS_BITS),
                            ldexp(L[2], -RK_POS_BITS)};
    rk_nb_work wk;
    rk_nb_carve(&wk, work, block_len);
    memset(wk.cbits, 0, (size_t)((block_len + 63) / 64) * sizeof *wk.cbits);
    for (int64_t p = block_len; p < block_len + RK_NB_CLUSTER; p++) /* copied, never kept */
        wk.bx[p] = wk.by[p] = wk.bz[p] = 0;
    for (int64_t q = 0; q < block_len + RK_NB_LANES; q++) /* read past a row's run */
        wk.cj[q] = 0, wk.cx[q] = wk.cy[q] = wk.cz[q] = 0;

    int64_t m = at[1];
    for (int64_t b = at[0] / (block_len > 0 ? block_len : 1); b < n_blocks; b++) {
        const int64_t base = b * block_len, first = at[0] > base ? at[0] - base : 0;
        const int64_t *x = w + 3 * base;
        for (int64_t i = 0; i < block_len; i++)
            wk.bx[i] = x[3 * i], wk.by[i] = x[3 * i + 1], wk.bz[i] = x[3 * i + 2];
        double rmax;
        const int64_t nclu = rk_nb_clusters(x, base, block_len, excl_ptr, excl_idx, step,
                                            &wk, &rmax);

        rk_nb_shape sh, t;
        const double reach_c = reach + 2.0 * rmax;
        rk_nb_shape_init(&sh, L, reach_c, nclu, shape < 0 ? 0 : (int)(shape & 7));
        for (int mask = 1; shape < 0 && mask < 8; mask++) { /* the cheapest */
            rk_nb_shape_init(&t, L, reach_c, nclu, mask);
            if (t.cost < sh.cost)
                sh = t;
        }
        const int64_t *nc = sh.nc, ncell = nc[0] * nc[1] * nc[2];
        const int wa = sh.wa, a1 = wa == 0 ? 1 : 0, a2 = wa == 2 ? 1 : 2;

        /* Counting sort of the anchors into cells; ascending fill keeps
         * clusters ascending within each cell. */
        int64_t *cell_start = wk.cell_start;
        memset(cell_start, 0, (size_t)(ncell + 1) * sizeof *cell_start);
        for (int64_t c = 0; c < nclu; c++)
            cell_start[rk_nb_cell(x + 3 * wk.cstart[c], &sh) + 1]++;
        for (int64_t c = 0; c < ncell; c++)
            cell_start[c + 1] += cell_start[c];
        for (int64_t c = 0; c < nclu; c++) {
            const int64_t *xa = x + 3 * wk.cstart[c];
            const int64_t p = cell_start[rk_nb_cell(xa, &sh)]++;
            wk.cell_clu[p] = (int32_t)c;
            wk.sx[p] = xa[0], wk.sy[p] = xa[1], wk.sz[p] = xa[2];
            wk.sr[p] = wk.crad[c];
        }
        for (int64_t c = ncell; c > 0; c--) /* undo the fill's advance */
            cell_start[c] = cell_start[c - 1];
        cell_start[0] = 0;
        for (int64_t p = nclu; p < nclu + RK_NB_LANES; p++) /* read past a run, never a hit */
            wk.cell_clu[p] = 0, wk.sx[p] = wk.sy[p] = wk.sz[p] = 0, wk.sr[p] = 0.0;

        int64_t A = 0;
        while (A < nclu && wk.cstart[A + 1] <= first) /* the cluster of the first row */
            A++;
        for (; A < nclu; A++) {
            const int64_t lo_a = wk.cstart[A], hi_a = wk.cstart[A + 1];
            const int64_t *xa = x + 3 * lo_a;
            const double ra = reach + wk.crad[A];
            const int64_t ci = rk_nb_cell(xa, &sh);
            const int64_t cc[3] = {ci / (nc[1] * nc[2]), (ci / nc[2]) % nc[1], ci % nc[2]};
            int64_t wlo = INT64_MAX, whi = -1;
            for (int64_t s = 0; s < (ncell == 1 ? 1 : sh.ncol); s++) {
                /* The column's anchor slots as at most two runs. */
                int64_t r[2][2], nr = 1;
                if (ncell == 1) { /* slot p holds cluster p: the partners B > A are a suffix */
                    r[0][0] = A + 1, r[0][1] = nclu;
                } else {
                    int64_t n1 = cc[a1] + sh.col[s][0], n2 = cc[a2] + sh.col[s][1];
                    n1 += n1 < 0 ? nc[a1] : (n1 >= nc[a1] ? -nc[a1] : 0);
                    n2 += n2 < 0 ? nc[a2] : (n2 >= nc[a2] ? -nc[a2] : 0);
                    int64_t nn[3];
                    nn[a1] = n1, nn[a2] = n2, nn[wa] = 0;
                    /* the window axis has stride 1: every later axis is uncut */
                    const int64_t *cw0 = cell_start + (nn[0] * nc[1] + nn[1]) * nc[2] + nn[2];
                    const int64_t kw = sh.col[s][2], nw = nc[wa];
                    const int64_t lo = cc[wa] - kw, hi = cc[wa] + kw + 1;
                    /* The window [lo, hi) of cells, wrapped past at most one
                     * end (2 kw + 1 <= nw: a window as long as the axis tiles
                     * it in two runs). */
                    if (lo < 0) {
                        r[0][0] = cw0[0], r[0][1] = cw0[hi];
                        r[1][0] = cw0[lo + nw], r[1][1] = cw0[nw], nr = 2;
                    } else if (hi > nw) {
                        r[0][0] = cw0[lo], r[0][1] = cw0[nw];
                        r[1][0] = cw0[0], r[1][1] = cw0[hi - nw], nr = 2;
                    } else {
                        r[0][0] = cw0[lo], r[0][1] = cw0[hi];
                    }
                }
                for (int64_t k = 0; k < nr; k++)
                    rk_nb_anchor_run(A, xa, ra, r[k][0], r[k][1], &wk, step, &wlo, &whi);
            }

            /* Candidates: A's own atoms, then each partner's, ascending. */
            int64_t nq = rk_nb_take(&wk, base, A, 0);
            for (int64_t wd = wlo; wd <= whi; wd++) {
                uint64_t word = wk.cbits[wd];
                wk.cbits[wd] = 0;
                for (; word; word &= word - 1)
                    nq = rk_nb_take(&wk, base, (wd << 6) + __builtin_ctzll(word), nq);
            }

            /* Each row straight into the partners; one that does not fit
             * is not emitted (its writes past cap dropped, the ones
             * before it past at[1] ignored). */
            for (int64_t i = lo_a > first ? lo_a : first; i < hi_a; i++) {
                const int64_t e0 = excl_ptr ? excl_ptr[base + i] : 0;
                const int64_t e1 = excl_ptr ? excl_ptr[base + i + 1] : 0;
                const int64_t row = rk_nb_row(x + 3 * i, i - lo_a + 1, nq, &wk, step, reach2,
                                              excl_idx, e0, e1, partners + m, cap - m);
                if (m + row > cap) {
                    at[0] = base + i;
                    at[1] = m;
                    return row;
                }
                row_ptr[base + i] = m;
                m += row;
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

/* Block-mask selection: which of 8 consecutive entries a stage keeps is
 * one byte m (rk_mask8 of their keep bytes), and pos[m] lists the kept
 * entries' positions in ascending order, padded with 0 to 8, n[m] of
 * them.  rk_select_run writes all 8 of pos[m] (plus the group's start)
 * to the next 8 index slots, whatever m is, and advances its count by
 * n[m]: a group's slots depend on the count before it, not on a compare
 * per entry, and the caller then copies the kept entries through the
 * indices in one loop that vectorizes as gathers.
 *
 * Lemma (block-mask selection): the indices written to slots 0 .. count
 * - 1 are exactly those of the kept entries, in ascending order, so the
 * copies through them are the sequence a per-entry compaction writes,
 * every value an exact copy.  Group g's n[m] leading slots receive its
 * kept positions in order (pos[m] ascends), at the count before g, which
 * is the number kept in the groups before g; the up to 8 - n[m] slots
 * past them hold padding, and the next group's writes start on the first
 * of them.  So after the last group, slots 0 .. count - 1 hold exactly
 * the kept indices, in order, and at most 7 slots past count were
 * written: the index array needs room for the entry count rounded up to
 * a multiple of 8 (RK_WALK_BLOCK is one).  Entries past the block's end
 * have their keep byte cleared (rk_keep_pad), so they are never kept.
 *
 * rk_mask8 reads the 8 keep bytes (each 0 or 1) as one integer x and
 * multiplies by 0x0102040810204080: the byte at bit offset 8 b lands on
 * bit 56 + b of the product's top byte, and every other product of a
 * byte and a multiplier bit falls on a distinct lower bit or past bit
 * 63, so nothing carries in.  Which entry becomes which bit of m
 * depends on the host's byte order; rk_select_init builds pos through
 * rk_mask8 itself, so pos[m] names the right entries on either. */
typedef struct {
    uint8_t pos[256][8];
    uint8_t n[256];
} rk_select;

/* The selection byte of keep[0 .. 8): keep bytes are 0 or 1. */
static inline unsigned rk_mask8(const uint8_t *keep)
{
    uint64_t x;
    memcpy(&x, keep, 8);
    return (unsigned)((x * 0x0102040810204080ull) >> 56);
}

static void rk_select_init(rk_select *t)
{
    for (int p = 0; p < 256; p++) {
        uint8_t keep[8];
        for (int l = 0; l < 8; l++)
            keep[l] = (uint8_t)(p >> l & 1);
        const unsigned m = rk_mask8(keep);
        int k = 0;
        for (int l = 0; l < 8; l++)
            if (keep[l])
                t->pos[m][k++] = (uint8_t)l;
        t->n[m] = (uint8_t)k;
        for (; k < 8; k++)
            t->pos[m][k] = 0;
    }
}

/* The indices k < n with keep[k] set, in ascending order, into idx[0 ..
 * count), 8 entries at a time; returns count.  keep is read in whole
 * groups of 8 (rk_keep_pad clears the last one's tail) and idx takes up
 * to 7 entries past count, so both hold n rounded up to 8.  The caller
 * then copies each kept entry with one loop over idx, which vectorizes
 * as gathers. */
static inline int64_t rk_select_run(const rk_select *t, const uint8_t *keep, int64_t n,
                                    int32_t *restrict idx)
{
    int64_t count = 0;
    for (int64_t k0 = 0; k0 < n; k0 += 8) {
        const unsigned m = rk_mask8(keep + k0);
        for (int l = 0; l < 8; l++)
            idx[count + l] = (int32_t)k0 + t->pos[m][l];
        count += t->n[m];
    }
    return count;
}

/* What one pass over the rows holds on its stack: the spec by value (so
 * its fields sit in registers across the loops), the code step per axis
 * (rk_disp), the position codes as three arrays (the partners' side of
 * every pair is read from them), both segment lookups and the selection
 * table. */
typedef struct {
    rk_pair_spec s;
    double s0, s1, s2;
    const int64_t *sx, *sy, *sz;
    rk_seg_lookup e_seg, d_seg;
    rk_select sel;
} rk_walk_ctx;

/* Sets up one pass over n atoms: the n code rows of w transposed into
 * soa (caller scratch of 3 n int64), a copy that changes no value. */
static void rk_walk_init(rk_walk_ctx *c, const rk_pair_spec *s, const double *L,
                         int64_t n, const int64_t *restrict w,
                         int64_t *restrict soa)
{
    rk_select_init(&c->sel);
    c->s = *s;
    c->s0 = ldexp(L[0], -RK_POS_BITS), c->s1 = ldexp(L[1], -RK_POS_BITS);
    c->s2 = ldexp(L[2], -RK_POS_BITS);
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
 * codes, its charge and its row of the A/B matrices. */
typedef struct {
    int64_t x, y, z;
    double q;
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
 * offset in the dispersion layout; keep is the selection bytes of
 * whichever stage is selecting. */
typedef struct {
    double d0[RK_WALK_BLOCK], d1[RK_WALK_BLOCK], d2[RK_WALK_BLOCK];
    double u[RK_WALK_BLOCK];
    double qq[RK_WALK_BLOCK], ca[RK_WALK_BLOCK], cb[RK_WALK_BLOCK];
    int32_t ie[RK_WALK_BLOCK];
    double te[RK_WALK_BLOCK];
    double pf[RK_WALK_BLOCK];
    int32_t lj[RK_WALK_BLOCK];
    int32_t id[RK_WALK_BLOCK];
    double ul[RK_WALK_BLOCK], td[RK_WALK_BLOCK];
    uint8_t keep[RK_WALK_BLOCK];
} rk_walk_block;

/* Clears the keep bytes of [n, n rounded up to 8): the last group's
 * entries past the block's end never survive. */
static inline void rk_keep_pad(uint8_t *keep, int64_t n)
{
    for (int64_t k = n; k & 7; k++)
        keep[k] = 0;
}

/* The walk's stages below (filter, offsets, tables, quantize) are each
 * compiled once, out of line (RK_ONE_COPY, defined with the rebuild). */

/* Filter over one block of row r's partners pj[0 .. nk), nk <=
 * RK_WALK_BLOCK: the cutoff predicate of geometry.cells.within, operation
 * for operation (d = x_i - x_j by rk_disp), first as a
 * loop over the block that only reads and writes one keep byte per
 * candidate (so it vectorizes, gathering the partners' coordinates),
 * then the survivors' indices selected 8 candidates at a time
 * (rk_select_run), then one loop through them (it vectorizes as gathers)
 * that copies each survivor's partner and displacement and applies
 * KernelTableSet.normalize to its r2 — the block-mask lemma: the order
 * and the exact doubles a per-candidate compaction keeps.  Survivors'
 * partners land in oj (the caller's next free slots, or a block of
 * scratch: never more than the survivors are written), their
 * displacements and clamped u in the block.  Returns how many
 * survived. */
RK_ONE_COPY int64_t rk_walk_filter(const rk_walk_ctx *c, const rk_row *r,
                                   const int32_t *restrict pj, int64_t nk,
                                   int64_t *restrict oj,
                                   rk_walk_block *restrict blk)
{
    const int64_t *restrict sx = c->sx, *restrict sy = c->sy, *restrict sz = c->sz;
    const double cutoff2 = c->s.cutoff2, umax = c->s.umax;
    const int64_t x = r->x, y = r->y, z = r->z;
    double t0[RK_WALK_BLOCK], t1[RK_WALK_BLOCK], t2[RK_WALK_BLOCK], r2[RK_WALK_BLOCK];
    uint8_t *restrict keep = blk->keep;
    for (int64_t k = 0; k < nk; k++) {
        const int64_t j = pj[k];
        t0[k] = rk_disp(x, sx[j], c->s0);
        t1[k] = rk_disp(y, sy[j], c->s1);
        t2[k] = rk_disp(z, sz[j], c->s2);
        r2[k] = (t0[k] * t0[k] + t1[k] * t1[k]) + t2[k] * t2[k];
        keep[k] = r2[k] < cutoff2;
    }
    rk_keep_pad(keep, nk);
    int32_t idx[RK_WALK_BLOCK];
    const int64_t nb = rk_select_run(&c->sel, keep, nk, idx);
    for (int64_t b = 0; b < nb; b++) {
        const int32_t k = idx[b];
        oj[b] = pj[k];
        blk->d0[b] = t0[k];
        blk->d1[b] = t1[k];
        blk->d2[b] = t2[k];
        const double u = r2[k] / cutoff2;
        blk->u[b] = u > umax ? umax : u;
    }
    return nb;
}

/* The segments seg[0 .. n) of u[0 .. n) in one layout: the one-compare
 * lookup where the layout allows it (chosen once, outside the loop, so
 * that loop vectorizes), else the scan. */
RK_ONE_COPY void rk_segments(const rk_seg_lookup *t, const double *starts, int64_t nseg,
                             int64_t n, const double *restrict u, int32_t *restrict seg)
{
    if (t->one)
        for (int64_t b = 0; b < n; b++)
            seg[b] = rk_segment_one(t, u[b]);
    else
        for (int64_t b = 0; b < n; b++) {
            int64_t idx = t->grid[rk_grid_cell(u[b])];
            while (idx + 1 < nseg && starts[idx + 1] <= u[b])
                idx++;
            seg[b] = (int32_t)idx;
        }
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
 * qq * e(te) in segments ie, e_lj zeroed — or, without e_coul (a
 * force-only walk), pf alone.  The coefficients are read through int32
 * segment indices, which a vector unit gathers. */
RK_ONE_COPY void rk_elec_cubics(int64_t nb, const int32_t *restrict ie,
                                const double *restrict te, const double *restrict qq,
                                const double *restrict cf, const double *restrict ce,
                                double *restrict pf, double *restrict e_coul,
                                double *restrict e_lj)
{
    if (!e_coul) {
        for (int64_t b = 0; b < nb; b++)
            pf[b] = qq[b] * rk_horner4_at(cf, 4 * ie[b], te[b]);
        return;
    }
    for (int64_t b = 0; b < nb; b++) {
        const int32_t k = 4 * ie[b];
        e_coul[b] = qq[b] * rk_horner4_at(ce, k, te[b]);
        pf[b] = qq[b] * rk_horner4_at(cf, k, te[b]);
    }
    memset(e_lj, 0, (size_t)nb * sizeof *e_lj);
}

/* The table arithmetic of a block's nb survivors (i, j[b]) of row r,
 * nonbonded_real_space_tabulated's line for line, staged so that each
 * loop does one kind of work.  Stage A: gather what depends on the
 * partner — the charge product (q_i q_j) C with q_i from the row, the LJ
 * A/B coefficients from the row's A/B row — and locate u in the
 * electrostatic layout, in one loop that vectorizes where the layout
 * takes the one-compare lookup (rk_segment_one, chosen per layout
 * outside the loop), writing a keep byte for each pair with A or B
 * nonzero; then list those pairs, 8 at a time (rk_select).  Stage B:
 * the offsets within the segments (rk_offsets, lane-parallel), the two
 * electrostatic cubics and energy, then the dispersion lookup, offsets
 * and four cubics for the listed pairs only.  Leaves the prefactor p
 * (force on i is p * dx) in blk->pf and writes the pairs' two energies;
 * with e_lj == e_coul == NULL (a force-only walk) it computes no energy
 * cubic at all, and p is the same double either way (each is its own
 * expression).  The one copy: the fixed-point walk and the float rows
 * below both call it.
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
    const double qi = r->q, coulomb = s->coulomb;
    const double *restrict ra = r->a, *restrict rb = r->b;
    const int64_t *restrict types = s->types;
    const double *restrict charges = s->charges;
    uint8_t *restrict keep = blk->keep;
    for (int64_t b = 0; b < nb; b++) {
        const int64_t tj = types[j[b]];
        blk->qq[b] = qi * charges[j[b]] * coulomb;
        blk->ca[b] = ra[tj];
        blk->cb[b] = rb[tj];
        keep[b] = blk->ca[b] != 0.0 || blk->cb[b] != 0.0;
    }
    rk_segments(&c->e_seg, s->e_starts, s->e_nseg, nb, blk->u, blk->ie);
    rk_keep_pad(keep, nb);
    const int64_t nl = rk_select_run(&c->sel, keep, nb, blk->lj);
    rk_offsets(nb, blk->u, blk->ie, s->e_starts, s->e_widths, s->e_inv, blk->te);
    rk_elec_cubics(nb, blk->ie, blk->te, blk->qq, s->e_cf, s->e_ce, blk->pf, e_coul, e_lj);
    for (int64_t l = 0; l < nl; l++)
        blk->ul[l] = blk->u[blk->lj[l]];
    rk_segments(&c->d_seg, s->d_starts, s->d_nseg, nl, blk->ul, blk->id);
    rk_offsets(nl, blk->ul, blk->id, s->d_starts, s->d_widths, s->d_inv, blk->td);
    for (int64_t l = 0; l < nl; l++) {
        const int64_t b = blk->lj[l];
        const int32_t id = 4 * blk->id[l];
        const double td = blk->td[l], ca = blk->ca[b], cb = blk->cb[b];
        double f12 = rk_horner4(s->c12f + id, td);
        double f6 = rk_horner4(s->c6f + id, td);
        if (e_lj) {
            double e12 = rk_horner4(s->c12e + id, td);
            double e6 = rk_horner4(s->c6e + id, td);
            e_lj[b] = ca * e12 - cb * e6;
        }
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
 * Energies take the same road (unless e_rows is NULL: a force-only walk,
 * which computes no energy cubic and no energy code, and whose forces,
 * counts and sets are the same bytes): each survivor's e_lj and e_coul is
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
                     const int32_t *restrict partners, const int64_t *restrict w,
                     int64_t *restrict soa, const double *L,
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
    double *el = er ? e_lj : NULL, *ec = er ? e_coul : NULL;
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
                rk_pair_tables(&c, &r, nb, js, &blk, el, ec);
                if (er) {
                    s_lj += rk_energy_codes(nb, e_lj);
                    s_coul += rk_energy_codes(nb, e_coul);
                }
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
        if (er) {
            er[2 * i] = s_lj;
            er[2 * i + 1] = s_coul;
        }
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
                     const int32_t *restrict partners, const int64_t *restrict w,
                     int64_t *restrict soa, const double *L,
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

/* -- minimum image of float differences ------------------------------ */

/* Box.minimum_image, d - L * rint(d / L), for the float differences
 * SETTLE takes (it reads decoded positions, not codes).  Lemma
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
