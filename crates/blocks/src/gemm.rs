//! A native, cache-blocked DGEMM over strided operand views, with an
//! explicit-SIMD register tile chosen per ISA.
//!
//! The original SIP leans on a vendor BLAS for its contraction super
//! instructions ("permute one of the arrays and then apply a DGEMM"). We
//! provide a dependency-free equivalent: a BLIS-style register-tiled,
//! cache-blocked `C = alpha * op(A) * op(B) + beta * C` — except that `op`
//! is more general than BLAS transposes. Operands are read through
//! [`MatView`]s (arbitrary index permutations expressed as per-dimension
//! strides) and C is written through a [`MatLayout`], so a permuted tensor
//! operand is packed straight out of its home buffer and a permuted output
//! is written straight into its home buffer: neither permutation is ever
//! materialized.
//!
//! Structure follows the BLIS three-level blocking: the N dimension is split
//! into NC-wide column blocks (so the packed B panel stays cache-resident
//! instead of spanning all of N), the k dimension into KC-deep panels, and
//! the M dimension into MC-tall panels. Panels of both operands are packed
//! by one routine (`pack`) into slivers as wide as the register tile
//! (`nr` columns of op(B), `mr` rows of op(A), zero-padded at the edges) so
//! the tile runs over contiguous memory.
//!
//! The register tile is a property of the `Kernel`, not of the crate: one
//! descriptor per ISA (AVX-512F 8x16, AVX2+FMA 4x8, NEON 4x8, portable
//! scalar 4x8) carries its own `mr`/`nr`, a full-tile body, an edge body and
//! a dot product. `kernel` resolves the widest one the host supports once
//! per process. Every path of one kernel rounds the same way (fused
//! multiply-add on every SIMD kernel, multiply-then-add on the scalar one),
//! so an element's bits depend on the GEMM's shape and never on which tile
//! it fell in. One GEMM runs on one thread: a super instruction is serial
//! and the SIP's parallelism is across workers, as in the paper.
//! `GemmConfig` holds the cache blocking; only this module's tests and
//! sweep set anything but the defaults.

use crate::view::{AxisGroup, MatLayout, MatView};
use std::sync::OnceLock;

/// Whether an operand participates as itself or transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmLayout {
    /// Use the matrix as stored.
    NoTrans,
    /// Use the transpose of the stored matrix.
    Trans,
}

/// The BLIS cache blocking: an MC x KC packed A panel should fit L2, a
/// KC x NC packed B panel L3, and one KC-deep sliver pair L1. Sanitized to
/// register-tile multiples by `blocking_for`. DESIGN.md §10 has the sweep
/// behind the defaults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GemmConfig {
    /// Rows of op(A) per cache panel (rounded up to a tile-height multiple).
    mc: usize,
    /// Depth per cache panel.
    kc: usize,
    /// Columns of op(B) per cache block (rounded up to a tile-width multiple).
    nc: usize,
}

impl Default for GemmConfig {
    fn default() -> Self {
        GemmConfig {
            mc: 128,
            kc: 256,
            nc: 1024,
        }
    }
}

impl GemmConfig {
    /// The sanitized `(mc, kc, nc)` triple: aligned to `kernel`'s register
    /// tile and nonzero.
    fn blocking_for(&self, kernel: &Kernel) -> (usize, usize, usize) {
        let mc = self.mc.max(1).next_multiple_of(kernel.mr);
        let kc = self.kc.max(1);
        let nc = self.nc.max(1).next_multiple_of(kernel.nr);
        (mc, kc, nc)
    }
}

/// Element counts `(apack, bpack)` of the two pack panels an `m x k` by
/// `k x n` product needs under the default blocking: `(0, 0)` for the
/// `m·n == 1` dot product, which packs nothing.
pub(crate) fn pack_elems(m: usize, n: usize, k: usize) -> (usize, usize) {
    pack_elems_for(kernel(), &GemmConfig::default(), m, n, k)
}

fn pack_elems_for(
    kernel: &Kernel,
    cfg: &GemmConfig,
    m: usize,
    n: usize,
    k: usize,
) -> (usize, usize) {
    if m * n == 1 {
        return (0, 0);
    }
    let (mc, kc, nc) = cfg.blocking_for(kernel);
    let kd = kc.min(k).max(1);
    let a = mc.min(m.max(1).next_multiple_of(kernel.mr)) * kd;
    let b = kd * nc.min(n.max(1).next_multiple_of(kernel.nr));
    (a, b)
}

/// `C(m x n) = alpha * op(A) * op(B) + beta * C` with row-major storage.
/// Single-threaded, like every super instruction: the SIP's parallelism is
/// across workers.
///
/// * `op(A)` is `m x k`: if `ta == NoTrans`, `a` is `m x k`; if `Trans`,
///   `a` is stored `k x m`.
/// * `op(B)` is `k x n`, analogously.
///
/// # Panics
/// Panics if slice lengths don't match the stated dimensions.
#[allow(clippy::too_many_arguments)]
pub fn dgemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    ta: GemmLayout,
    b: &[f64],
    tb: GemmLayout,
    beta: f64,
    c: &mut [f64],
) {
    dgemm_kernel(
        kernel(),
        GemmConfig::default(),
        m,
        n,
        k,
        alpha,
        a,
        ta,
        b,
        tb,
        beta,
        c,
    );
}

/// [`dgemm`] on a chosen kernel and blocking (the conformance tests and the
/// blocking sweep run through here).
#[allow(clippy::too_many_arguments)]
fn dgemm_kernel(
    kernel: &Kernel,
    cfg: GemmConfig,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    ta: GemmLayout,
    b: &[f64],
    tb: GemmLayout,
    beta: f64,
    c: &mut [f64],
) {
    assert_eq!(a.len(), m * k, "A dimension mismatch");
    assert_eq!(b.len(), k * n, "B dimension mismatch");
    assert_eq!(c.len(), m * n, "C dimension mismatch");
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        scale_c(beta, c);
        return;
    }
    let av = MatView::from_matrix(a, m, k, ta);
    let bv = MatView::from_matrix(b, k, n, tb);
    let cl = MatLayout::matrix(m, n, GemmLayout::NoTrans);
    gemm(kernel, cfg, alpha, &av, &bv, beta, c, &cl, None);
}

/// `C = alpha * A * B + beta * C` where each operand is a [`MatView`] — the
/// permute-on-pack path — and C is strided: element `(i, j)` of the product
/// lands at `c[cl.row_group().offset(i) + cl.col_group().offset(j)]`, so an
/// output permutation is folded into the tile write. `cl` must address
/// every element of `c` exactly once (`beta` is applied to the whole slice).
/// `panels` optionally supplies the `(apack, bpack)` scratch, sized by
/// [`pack_elems`]; undersized panels fall back to a local allocation.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`, or if `cl` is not `a.rows() x
/// b.cols()` or reaches past `c`.
pub(crate) fn dgemm_view_into(
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    beta: f64,
    c: &mut [f64],
    cl: &MatLayout,
    panels: Option<(&mut [f64], &mut [f64])>,
) {
    gemm(
        kernel(),
        GemmConfig::default(),
        alpha,
        a,
        b,
        beta,
        c,
        cl,
        panels,
    );
}

/// Applies the beta scaling to C once, up front.
fn scale_c(beta: f64, c: &mut [f64]) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
}

/// The one GEMM every entry point reaches.
#[allow(clippy::too_many_arguments)]
fn gemm(
    kernel: &Kernel,
    cfg: GemmConfig,
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    beta: f64,
    c: &mut [f64],
    cl: &MatLayout,
    panels: Option<(&mut [f64], &mut [f64])>,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k, "inner dimension mismatch");
    assert_eq!(cl.row_group().len(), m, "C row count mismatch");
    assert_eq!(cl.col_group().len(), n, "C column count mismatch");
    assert!(cl.span() <= c.len(), "C layout reaches past its buffer");
    scale_c(beta, c);
    if alpha == 0.0 {
        return;
    }
    if m * n == 1 {
        // A block dot (`total += X(i,j) * X(i,j)`): packing two panels to
        // fill one lane of one tile costs more than the arithmetic.
        c[0] += alpha * dot_views(kernel, a.data(), a.col_group(), b.data(), b.row_group());
        return;
    }
    let (a_need, b_need) = pack_elems_for(kernel, &cfg, m, n, k);
    match panels {
        Some((apack, bpack)) if apack.len() >= a_need && bpack.len() >= b_need => {
            gemm_blocked(kernel, &cfg, alpha, a, b, c, cl, apack, bpack);
        }
        _ => {
            let mut apack = vec![0.0f64; a_need];
            let mut bpack = vec![0.0f64; b_need];
            gemm_blocked(kernel, &cfg, alpha, a, b, c, cl, &mut apack, &mut bpack);
        }
    }
}

/// Depth of one [`Kernel::dot`] call in [`dot_views`]: bounds the stack
/// buffers a strided operand is gathered into.
const DOT_CHUNK: usize = 256;

/// `Σ_p a[ag.offset(p)] * b[bg.offset(p)]`, summed over chunks of
/// [`DOT_CHUNK`] logical indices whatever the layout, so the rounding
/// depends on the length alone: a strided operand is gathered into a
/// contiguous chunk and meets the same [`Kernel::dot`] as a contiguous one.
fn dot_views(kernel: &Kernel, a: &[f64], ag: &AxisGroup, b: &[f64], bg: &AxisGroup) -> f64 {
    let k = ag.len();
    let contiguous = |g: &AxisGroup| g.unit_run() == g.len();
    let mut total = 0.0;
    if contiguous(ag) && contiguous(bg) {
        for (x, y) in a[..k].chunks(DOT_CHUNK).zip(b[..k].chunks(DOT_CHUNK)) {
            total += (kernel.dot)(x, y);
        }
        return total;
    }
    let (mut xs, mut ys) = ([0.0f64; DOT_CHUNK], [0.0f64; DOT_CHUNK]);
    let (mut ac, mut bc) = (ag.cursor(0), bg.cursor(0));
    for p in (0..k).step_by(DOT_CHUNK) {
        let len = DOT_CHUNK.min(k - p);
        for (x, y) in xs[..len].iter_mut().zip(&mut ys[..len]) {
            (*x, *y) = (a[ac.offset()], b[bc.offset()]);
            ac.advance();
            bc.advance();
        }
        total += (kernel.dot)(&xs[..len], &ys[..len]);
    }
    total
}

/// One axis group's offsets, tabulated: `off[i]` is the offset of logical
/// index `start + i`, and indices come in storage-contiguous runs of `run`
/// (aligned to multiples of `run` in absolute index).
#[derive(Clone, Copy)]
struct Span<'t> {
    off: &'t [usize],
    start: usize,
    run: usize,
}

impl<'t> Span<'t> {
    fn slice(&self, from: usize, len: usize) -> Span<'t> {
        Span {
            off: &self.off[from..from + len],
            start: self.start + from,
            run: self.run,
        }
    }
}

/// Computes `C += alpha * A * B` (beta already applied). The jc -> pc -> ic
/// loop nest is the BLIS order: B is packed once per (jc, pc) block, A once
/// per (jc, pc, ic) panel. Every axis group is tabulated once up front
/// (TBLIS-style scatter vectors), so packing and the C write index tables
/// instead of decomposing indices.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    kernel: &Kernel,
    cfg: &GemmConfig,
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    c: &mut [f64],
    cl: &MatLayout,
    apack: &mut [f64],
    bpack: &mut [f64],
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (mr, nr) = (kernel.mr, kernel.nr);
    let (mc, kc, nc) = cfg.blocking_for(kernel);

    let mut table = vec![0usize; 2 * (m + k + n)];
    let mut rest = table.as_mut_slice();
    let mut tabulate = |g: &AxisGroup| {
        let (off, tail) = std::mem::take(&mut rest).split_at_mut(g.len());
        rest = tail;
        g.fill_offsets(0, off);
        Span {
            off,
            start: 0,
            run: g.unit_run(),
        }
    };
    let (a_rows, a_cols) = (tabulate(a.row_group()), tabulate(a.col_group()));
    let (b_rows, b_cols) = (tabulate(b.row_group()), tabulate(b.col_group()));
    let (c_rows, c_cols) = (tabulate(cl.row_group()), tabulate(cl.col_group()));

    for jj in (0..n).step_by(nc) {
        let nb = nc.min(n - jj);
        let n_slivers = nb.div_ceil(nr);
        for p0 in (0..k).step_by(kc) {
            let pb = kc.min(k - p0);
            let bpack = &mut bpack[..n_slivers * nr * pb];
            pack(
                bpack,
                nr,
                b.data(),
                b_cols.slice(jj, nb),
                b_rows.slice(p0, pb),
            );
            for i0 in (0..m).step_by(mc) {
                let ib = mc.min(m - i0);
                let apack = &mut apack[..ib.div_ceil(mr) * mr * pb];
                pack(
                    apack,
                    mr,
                    a.data(),
                    a_rows.slice(i0, ib),
                    a_cols.slice(p0, pb),
                );
                // Tile sweep, B sliver outermost: the nr x pb sliver stays
                // in L1 while the (smaller) A slivers stream past it.
                for (js, bp) in bpack.chunks_exact(nr * pb).enumerate() {
                    let j0 = jj + js * nr;
                    let cols = &c_cols.off[j0..(j0 + nr).min(jj + nb)];
                    let dense = cols.len() == nr && cols.windows(2).all(|w| w[1] == w[0] + 1);
                    for (is, ap) in apack.chunks_exact(mr * pb).enumerate() {
                        let r0 = i0 + is * mr;
                        let rows = &c_rows.off[r0..(r0 + mr).min(i0 + ib)];
                        if dense && rows.len() == mr {
                            (kernel.full)(ap, bp, pb, alpha, c, rows, cols[0]);
                        } else {
                            (kernel.edge)(ap, bp, pb, alpha, c, rows, cols);
                        }
                    }
                }
            }
        }
    }
}

/// Packs `lanes.off.len()` lanes by `depth.off.len()` depth steps of
/// `data` — element `(lane t, depth p)` at `data[lanes.off[t] +
/// depth.off[p]]` — into `w`-wide slivers: sliver `s` occupies
/// `dst[s*w*pb..]`, laid out depth-major with `w` contiguous lane values per
/// depth step, zero-padded past the last lane. Rows of op(A) and columns of
/// op(B) are both "lanes" here, so one routine packs both operands.
///
/// The source's unit-stride axis lies in one of the two groups, which picks
/// the traversal: runs copied along the lanes, runs transposed along the
/// depth, or (when that axis is not innermost in its group) an element
/// gather.
fn pack(dst: &mut [f64], w: usize, data: &[f64], lanes: Span<'_>, depth: Span<'_>) {
    let pb = depth.off.len();
    let nl = lanes.off.len();
    debug_assert_eq!(dst.len(), nl.div_ceil(w) * w * pb);
    for (s, sliver) in dst.chunks_exact_mut(w * pb).enumerate() {
        let t0 = s * w;
        let lane_off = &lanes.off[t0..(t0 + w).min(nl)];
        let nw = lane_off.len();
        if lanes.run > 1 {
            // Lanes are contiguous in runs: each depth step copies whole
            // run pieces into the sliver row.
            let first = lanes.run - (lanes.start + t0) % lanes.run;
            for (row, &d) in sliver.chunks_exact_mut(w).zip(depth.off) {
                let (mut t, mut room) = (0, first);
                while t < nw {
                    let piece = room.min(nw - t);
                    let src = d + lane_off[t];
                    row[t..t + piece].copy_from_slice(&data[src..src + piece]);
                    t += piece;
                    room = lanes.run;
                }
                row[nw..].fill(0.0);
            }
            continue;
        }
        if nw < w {
            sliver.fill(0.0);
        }
        if depth.run > 1 {
            // Depth is contiguous in runs: each lane's run piece is read
            // sequentially and transposed down the sliver, which stays
            // cache-resident meanwhile.
            let (mut p, mut room) = (0, depth.run - depth.start % depth.run);
            while p < pb {
                let piece = room.min(pb - p);
                let rows = &mut sliver[p * w..(p + piece) * w];
                for (lane, &l) in lane_off.iter().enumerate() {
                    let src = &data[l + depth.off[p]..][..piece];
                    for (row, &v) in rows.chunks_exact_mut(w).zip(src) {
                        row[lane] = v;
                    }
                }
                p += piece;
                room = depth.run;
            }
        } else {
            for (row, &d) in sliver.chunks_exact_mut(w).zip(depth.off) {
                for (x, &l) in row.iter_mut().zip(lane_off) {
                    *x = data[l + d];
                }
            }
        }
    }
}

/// `ap`/`bp` are one packed sliver each (`mr·kc` and `nr·kc` values); the
/// tile adds `alpha · ap · bp` to the `mr x nr` elements of `c` at
/// `rows[r] + col0 + t`.
type FullTileFn = fn(&[f64], &[f64], usize, f64, &mut [f64], &[usize], usize);
/// As [`FullTileFn`] for any other tile: `rows.len() <= mr` rows by
/// `cols.len() <= nr` columns, at `rows[r] + cols[t]`.
type EdgeTileFn = fn(&[f64], &[f64], usize, f64, &mut [f64], &[usize], &[usize]);

/// One ISA's register tile. Everything that depends on the tile's shape —
/// packing, blocking, scratch sizes — reads `mr`/`nr` from here.
pub(crate) struct Kernel {
    /// `<isa>-<mr>x<nr>`, as reported by [`active_microkernel`].
    pub(crate) name: &'static str,
    /// Register tile height (rows of op(A) per sliver).
    pub(crate) mr: usize,
    /// Register tile width (columns of op(B) per sliver).
    pub(crate) nr: usize,
    /// A whole tile whose columns are adjacent in C: vector loads/stores.
    full: FullTileFn,
    /// A partial tile, or one whose columns are scattered in C: the same
    /// accumulation, written back element by element.
    edge: EdgeTileFn,
    /// `Σ a[p] * b[p]` over equal-length slices, in this kernel's arithmetic.
    dot: fn(&[f64], &[f64]) -> f64,
}

/// Every kernel compiled for this target, widest first, and whether the
/// running CPU supports it. On x86-64 the binary stays portable (baseline
/// codegen): the SIMD kernels are compiled behind `#[target_feature]` and
/// only entered through a descriptor this list marks supported. On AArch64
/// NEON is part of the baseline ABI.
pub(crate) fn compiled_kernels() -> Vec<(&'static Kernel, bool)> {
    let mut all = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        all.push((&avx512::KERNEL, has!("avx512f")));
        all.push((&avx2::KERNEL, has!("avx2") && has!("fma")));
    }
    #[cfg(target_arch = "aarch64")]
    all.push((&neon::KERNEL, true));
    all.push((&scalar::KERNEL, true));
    all
}

/// The widest kernel the running CPU supports, resolved once per process.
fn kernel() -> &'static Kernel {
    static ACTIVE: OnceLock<&'static Kernel> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        let widest = compiled_kernels().into_iter().find(|&(_, ok)| ok);
        widest.expect("the scalar kernel runs anywhere").0
    })
}

/// Name of the kernel every GEMM in this process runs on (surfaced by the
/// bench grid and the ISA dispatch table in DESIGN.md).
pub fn active_microkernel() -> &'static str {
    kernel().name
}

/// `a * b + c`, fused or not: what separates the SIMD kernels' arithmetic
/// from the scalar kernel's. Inlined into a `#[target_feature]` function it
/// is one `vfmadd`; anywhere else on x86-64 it would be a libm call.
#[inline(always)]
fn madd<const FUSED: bool>(a: f64, b: f64, c: f64) -> f64 {
    if FUSED {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// The edge write: `c[rows[r] + cols[t]] += alpha * tile[r][t]` over the
/// valid corner of an accumulated `_ x nr` tile, rounding as the kernel's
/// vector write does.
#[inline(always)]
fn write_back<const FUSED: bool>(
    tile: &[f64],
    nr: usize,
    alpha: f64,
    c: &mut [f64],
    rows: &[usize],
    cols: &[usize],
) {
    for (&row, acc) in rows.iter().zip(tile.chunks_exact(nr)) {
        for (&col, &v) in cols.iter().zip(acc) {
            let x = &mut c[row + col];
            *x = madd::<FUSED>(alpha, v, *x);
        }
    }
}

/// Independent accumulators of [`dot_body`]: element `p` goes to
/// accumulator `p % DOT_LANES`.
const DOT_LANES: usize = 16;

/// The dot product every kernel instantiates in its own arithmetic.
#[inline(always)]
fn dot_body<const FUSED: bool>(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = [0.0f64; DOT_LANES];
    let (xs, ys) = (a.chunks_exact(DOT_LANES), b.chunks_exact(DOT_LANES));
    let tail = xs.remainder().iter().zip(ys.remainder());
    for (x, y) in xs.zip(ys) {
        for t in 0..DOT_LANES {
            acc[t] = madd::<FUSED>(x[t], y[t], acc[t]);
        }
    }
    for (s, (&x, &y)) in acc.iter_mut().zip(tail) {
        *s = madd::<FUSED>(x, y, *s);
    }
    let mut width = DOT_LANES;
    while width > 1 {
        width /= 2;
        for t in 0..width {
            acc[t] += acc[t + width];
        }
    }
    acc[0]
}

/// Checks a full tile's operands before a kernel body reads and writes
/// them through raw pointers: `ap`/`bp` hold `kc` depth steps of an
/// `mr`/`nr`-wide sliver, and all `mr` C rows have `nr` elements from `col0`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn check_full_tile(
    mr: usize,
    nr: usize,
    ap: &[f64],
    bp: &[f64],
    kc: usize,
    c: &[f64],
    rows: &[usize],
    col0: usize,
) {
    assert!(ap.len() >= mr * kc && bp.len() >= nr * kc, "short sliver");
    assert_eq!(rows.len(), mr, "not a full tile");
    assert!(
        rows.iter().all(|&row| row + col0 + nr <= c.len()),
        "tile row reaches past C"
    );
}

/// Portable tile: fixed-size loops the compiler keeps in registers and
/// vectorizes with whatever the baseline target has. Multiply-then-add
/// throughout (rustc never contracts `a * b + c`).
mod scalar {
    use super::{dot_body, write_back, Kernel};

    const MR: usize = 4;
    const NR: usize = 8;

    pub(super) static KERNEL: Kernel = Kernel {
        name: "scalar-4x8",
        mr: MR,
        nr: NR,
        full,
        edge,
        dot: dot_body::<false>,
    };

    #[inline(always)]
    fn accumulate(ap: &[f64], bp: &[f64], kc: usize) -> [f64; MR * NR] {
        let mut acc = [0.0f64; MR * NR];
        for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
            for (row, &a) in acc.chunks_exact_mut(NR).zip(av) {
                for (x, &b) in row.iter_mut().zip(bv) {
                    *x += a * b;
                }
            }
        }
        acc
    }

    fn full(
        ap: &[f64],
        bp: &[f64],
        kc: usize,
        alpha: f64,
        c: &mut [f64],
        rows: &[usize],
        col0: usize,
    ) {
        let acc = accumulate(ap, bp, kc);
        for (&row, acc) in rows.iter().zip(acc.chunks_exact(NR)) {
            for (x, &v) in c[row + col0..][..NR].iter_mut().zip(acc) {
                *x += alpha * v;
            }
        }
    }

    fn edge(
        ap: &[f64],
        bp: &[f64],
        kc: usize,
        alpha: f64,
        c: &mut [f64],
        rows: &[usize],
        cols: &[usize],
    ) {
        write_back::<false>(&accumulate(ap, bp, kc), NR, alpha, c, rows, cols);
    }
}

/// AVX-512F tile: 8 rows x 2 `zmm` of accumulators (16 of the 32 vector
/// registers), fed per depth step by two 512-bit B loads and one broadcast
/// A value per row.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{check_full_tile, dot_body, write_back, Kernel};
    use core::arch::x86_64::{
        __m512d, _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd, _mm512_setzero_pd,
        _mm512_storeu_pd,
    };

    const MR: usize = 8;
    const NR: usize = 16;

    pub(super) static KERNEL: Kernel = Kernel {
        name: "avx512f-8x16",
        mr: MR,
        nr: NR,
        full,
        edge,
        dot,
    };

    /// `acc[r][v] = Σ_p ap[p·MR + r] · bp[p·NR + 8v..][..8]`.
    ///
    /// # Safety
    /// `ap` must be readable for `MR·kc` values and `bp` for `NR·kc`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn accumulate(kc: usize, mut ap: *const f64, mut bp: *const f64) -> [[__m512d; 2]; MR] {
        let mut acc = [[_mm512_setzero_pd(); 2]; MR];
        for _ in 0..kc {
            // SAFETY: this is depth step p < kc, so `ap` points at the MR
            // values of step p and `bp` at its NR = 16 values, both inside
            // what the caller vouched for.
            unsafe {
                let b0 = _mm512_loadu_pd(bp);
                let b1 = _mm512_loadu_pd(bp.add(8));
                for (r, acc) in acc.iter_mut().enumerate() {
                    let a = _mm512_set1_pd(*ap.add(r));
                    acc[0] = _mm512_fmadd_pd(a, b0, acc[0]);
                    acc[1] = _mm512_fmadd_pd(a, b1, acc[1]);
                }
                ap = ap.add(MR);
                bp = bp.add(NR);
            }
        }
        acc
    }

    #[target_feature(enable = "avx512f")]
    fn full_body(
        ap: &[f64],
        bp: &[f64],
        kc: usize,
        alpha: f64,
        c: &mut [f64],
        rows: &[usize],
        col0: usize,
    ) {
        check_full_tile(MR, NR, ap, bp, kc, c, rows, col0);
        // SAFETY: the slivers hold MR·kc and NR·kc values (checked above).
        let acc = unsafe { accumulate(kc, ap.as_ptr(), bp.as_ptr()) };
        let alpha = _mm512_set1_pd(alpha);
        let c = c.as_mut_ptr();
        for (&row, acc) in rows.iter().zip(&acc) {
            for (v, &x) in acc.iter().enumerate() {
                // SAFETY: row + col0 + NR <= c.len() for every row (checked
                // above) and 8v + 8 <= NR, so the 8 values at this offset
                // are inside C.
                unsafe {
                    let at = c.add(row + col0 + 8 * v);
                    _mm512_storeu_pd(at, _mm512_fmadd_pd(alpha, x, _mm512_loadu_pd(at)));
                }
            }
        }
    }

    #[target_feature(enable = "avx512f")]
    fn edge_body(
        ap: &[f64],
        bp: &[f64],
        kc: usize,
        alpha: f64,
        c: &mut [f64],
        rows: &[usize],
        cols: &[usize],
    ) {
        assert!(ap.len() >= MR * kc && bp.len() >= NR * kc, "short sliver");
        // SAFETY: the slivers hold MR·kc and NR·kc values (checked above).
        let acc = unsafe { accumulate(kc, ap.as_ptr(), bp.as_ptr()) };
        let mut tile = [0.0f64; MR * NR];
        for (acc, out) in acc.iter().zip(tile.chunks_exact_mut(NR)) {
            // SAFETY: `out` is one NR = 16 element row of `tile`.
            unsafe {
                _mm512_storeu_pd(out.as_mut_ptr(), acc[0]);
                _mm512_storeu_pd(out.as_mut_ptr().add(8), acc[1]);
            }
        }
        write_back::<true>(&tile, NR, alpha, c, rows, cols);
    }

    #[target_feature(enable = "avx512f")]
    fn dot_body_avx512(a: &[f64], b: &[f64]) -> f64 {
        dot_body::<true>(a, b)
    }

    // The three entries below are safe functions that execute AVX-512F
    // instructions; they are reachable only through `KERNEL`, which
    // `compiled_kernels` marks supported only after detecting avx512f.

    fn full(
        ap: &[f64],
        bp: &[f64],
        kc: usize,
        alpha: f64,
        c: &mut [f64],
        rows: &[usize],
        col0: usize,
    ) {
        // SAFETY: avx512f was detected (see above); the body checks bounds.
        unsafe { full_body(ap, bp, kc, alpha, c, rows, col0) }
    }

    fn edge(
        ap: &[f64],
        bp: &[f64],
        kc: usize,
        alpha: f64,
        c: &mut [f64],
        rows: &[usize],
        cols: &[usize],
    ) {
        // SAFETY: avx512f was detected (see above); the body checks bounds.
        unsafe { edge_body(ap, bp, kc, alpha, c, rows, cols) }
    }

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        // SAFETY: avx512f was detected (see above); the body is safe code.
        unsafe { dot_body_avx512(a, b) }
    }
}

/// AVX2+FMA tile: 4 rows x 2 `ymm` of accumulators (8 of the 16 vector
/// registers), fed per depth step by two 256-bit B loads and one broadcast
/// A value per row.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{check_full_tile, dot_body, write_back, Kernel};
    use core::arch::x86_64::{
        __m256d, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd,
    };

    const MR: usize = 4;
    const NR: usize = 8;

    pub(super) static KERNEL: Kernel = Kernel {
        name: "avx2+fma-4x8",
        mr: MR,
        nr: NR,
        full,
        edge,
        dot,
    };

    /// `acc[r][v] = Σ_p ap[p·MR + r] · bp[p·NR + 4v..][..4]`.
    ///
    /// # Safety
    /// `ap` must be readable for `MR·kc` values and `bp` for `NR·kc`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn accumulate(kc: usize, mut ap: *const f64, mut bp: *const f64) -> [[__m256d; 2]; MR] {
        let mut acc = [[_mm256_setzero_pd(); 2]; MR];
        for _ in 0..kc {
            // SAFETY: this is depth step p < kc, so `ap` points at the MR
            // values of step p and `bp` at its NR = 8 values, both inside
            // what the caller vouched for.
            unsafe {
                let b0 = _mm256_loadu_pd(bp);
                let b1 = _mm256_loadu_pd(bp.add(4));
                for (r, acc) in acc.iter_mut().enumerate() {
                    let a = _mm256_set1_pd(*ap.add(r));
                    acc[0] = _mm256_fmadd_pd(a, b0, acc[0]);
                    acc[1] = _mm256_fmadd_pd(a, b1, acc[1]);
                }
                ap = ap.add(MR);
                bp = bp.add(NR);
            }
        }
        acc
    }

    #[target_feature(enable = "avx2,fma")]
    fn full_body(
        ap: &[f64],
        bp: &[f64],
        kc: usize,
        alpha: f64,
        c: &mut [f64],
        rows: &[usize],
        col0: usize,
    ) {
        check_full_tile(MR, NR, ap, bp, kc, c, rows, col0);
        // SAFETY: the slivers hold MR·kc and NR·kc values (checked above).
        let acc = unsafe { accumulate(kc, ap.as_ptr(), bp.as_ptr()) };
        let alpha = _mm256_set1_pd(alpha);
        let c = c.as_mut_ptr();
        for (&row, acc) in rows.iter().zip(&acc) {
            for (v, &x) in acc.iter().enumerate() {
                // SAFETY: row + col0 + NR <= c.len() for every row (checked
                // above) and 4v + 4 <= NR, so the 4 values at this offset
                // are inside C.
                unsafe {
                    let at = c.add(row + col0 + 4 * v);
                    _mm256_storeu_pd(at, _mm256_fmadd_pd(alpha, x, _mm256_loadu_pd(at)));
                }
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    fn edge_body(
        ap: &[f64],
        bp: &[f64],
        kc: usize,
        alpha: f64,
        c: &mut [f64],
        rows: &[usize],
        cols: &[usize],
    ) {
        assert!(ap.len() >= MR * kc && bp.len() >= NR * kc, "short sliver");
        // SAFETY: the slivers hold MR·kc and NR·kc values (checked above).
        let acc = unsafe { accumulate(kc, ap.as_ptr(), bp.as_ptr()) };
        let mut tile = [0.0f64; MR * NR];
        for (acc, out) in acc.iter().zip(tile.chunks_exact_mut(NR)) {
            // SAFETY: `out` is one NR = 8 element row of `tile`.
            unsafe {
                _mm256_storeu_pd(out.as_mut_ptr(), acc[0]);
                _mm256_storeu_pd(out.as_mut_ptr().add(4), acc[1]);
            }
        }
        write_back::<true>(&tile, NR, alpha, c, rows, cols);
    }

    #[target_feature(enable = "avx2,fma")]
    fn dot_body_avx2(a: &[f64], b: &[f64]) -> f64 {
        dot_body::<true>(a, b)
    }

    // The three entries below are safe functions that execute AVX2 and FMA
    // instructions; they are reachable only through `KERNEL`, which
    // `compiled_kernels` marks supported only after detecting both.

    fn full(
        ap: &[f64],
        bp: &[f64],
        kc: usize,
        alpha: f64,
        c: &mut [f64],
        rows: &[usize],
        col0: usize,
    ) {
        // SAFETY: avx2 and fma were detected (see above); the body checks
        // bounds.
        unsafe { full_body(ap, bp, kc, alpha, c, rows, col0) }
    }

    fn edge(
        ap: &[f64],
        bp: &[f64],
        kc: usize,
        alpha: f64,
        c: &mut [f64],
        rows: &[usize],
        cols: &[usize],
    ) {
        // SAFETY: avx2 and fma were detected (see above); the body checks
        // bounds.
        unsafe { edge_body(ap, bp, kc, alpha, c, rows, cols) }
    }

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        // SAFETY: avx2 and fma were detected (see above); the body is safe
        // code.
        unsafe { dot_body_avx2(a, b) }
    }
}

/// NEON tile: 4 rows x 4 `float64x2_t` of accumulators (16 of the 32 vector
/// registers), fed per depth step by four 128-bit B loads and one broadcast
/// A value per row. NEON (with fused multiply-add) is baseline on AArch64,
/// so there is nothing to detect and `mul_add` is one instruction anywhere.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{check_full_tile, dot_body, write_back, Kernel};
    use core::arch::aarch64::{float64x2_t, vdupq_n_f64, vfmaq_f64, vld1q_f64, vst1q_f64};

    const MR: usize = 4;
    const NR: usize = 8;

    pub(super) static KERNEL: Kernel = Kernel {
        name: "neon-4x8",
        mr: MR,
        nr: NR,
        full,
        edge,
        dot: dot_body::<true>,
    };

    /// `acc[r][v] = Σ_p ap[p·MR + r] · bp[p·NR + 2v..][..2]`.
    ///
    /// # Safety
    /// `ap` must be readable for `MR·kc` values and `bp` for `NR·kc`.
    #[inline(always)]
    unsafe fn accumulate(
        kc: usize,
        mut ap: *const f64,
        mut bp: *const f64,
    ) -> [[float64x2_t; 4]; MR] {
        // SAFETY: NEON is in the aarch64 baseline; at depth step p < kc,
        // `ap` points at the MR values of step p and `bp` at its NR = 8
        // values, both inside what the caller vouched for.
        unsafe {
            let mut acc = [[vdupq_n_f64(0.0); 4]; MR];
            for _ in 0..kc {
                let b0 = vld1q_f64(bp);
                let b1 = vld1q_f64(bp.add(2));
                let b2 = vld1q_f64(bp.add(4));
                let b3 = vld1q_f64(bp.add(6));
                for (r, acc) in acc.iter_mut().enumerate() {
                    let a = vdupq_n_f64(*ap.add(r));
                    acc[0] = vfmaq_f64(acc[0], a, b0);
                    acc[1] = vfmaq_f64(acc[1], a, b1);
                    acc[2] = vfmaq_f64(acc[2], a, b2);
                    acc[3] = vfmaq_f64(acc[3], a, b3);
                }
                ap = ap.add(MR);
                bp = bp.add(NR);
            }
            acc
        }
    }

    fn full(
        ap: &[f64],
        bp: &[f64],
        kc: usize,
        alpha: f64,
        c: &mut [f64],
        rows: &[usize],
        col0: usize,
    ) {
        check_full_tile(MR, NR, ap, bp, kc, c, rows, col0);
        // SAFETY: the slivers hold MR·kc and NR·kc values (checked above).
        let acc = unsafe { accumulate(kc, ap.as_ptr(), bp.as_ptr()) };
        let c = c.as_mut_ptr();
        for (&row, acc) in rows.iter().zip(&acc) {
            for (v, &x) in acc.iter().enumerate() {
                // SAFETY: row + col0 + NR <= c.len() for every row (checked
                // above) and 2v + 2 <= NR, so the 2 values at this offset
                // are inside C.
                unsafe {
                    let at = c.add(row + col0 + 2 * v);
                    vst1q_f64(at, vfmaq_f64(vld1q_f64(at), vdupq_n_f64(alpha), x));
                }
            }
        }
    }

    fn edge(
        ap: &[f64],
        bp: &[f64],
        kc: usize,
        alpha: f64,
        c: &mut [f64],
        rows: &[usize],
        cols: &[usize],
    ) {
        assert!(ap.len() >= MR * kc && bp.len() >= NR * kc, "short sliver");
        // SAFETY: the slivers hold MR·kc and NR·kc values (checked above).
        let acc = unsafe { accumulate(kc, ap.as_ptr(), bp.as_ptr()) };
        let mut tile = [0.0f64; MR * NR];
        for (acc, out) in acc.iter().zip(tile.chunks_exact_mut(NR)) {
            for (v, &x) in acc.iter().enumerate() {
                // SAFETY: `out` is one NR = 8 element row of `tile` and
                // 2v + 2 <= NR.
                unsafe { vst1q_f64(out.as_mut_ptr().add(2 * v), x) };
            }
        }
        write_back::<true>(&tile, NR, alpha, c, rows, cols);
    }
}

/// Reference (naive triple loop) used to validate [`dgemm`] in tests.
#[allow(clippy::too_many_arguments)]
pub fn naive_gemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    ta: GemmLayout,
    b: &[f64],
    tb: GemmLayout,
    beta: f64,
    c: &mut [f64],
) {
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for p in 0..k {
                let av = match ta {
                    GemmLayout::NoTrans => a[i * k + p],
                    GemmLayout::Trans => a[p * m + i],
                };
                let bv = match tb {
                    GemmLayout::NoTrans => b[p * n + j],
                    GemmLayout::Trans => b[j * k + p],
                };
                s += av * bv;
            }
            c[i * n + j] = alpha * s + beta * c[i * n + j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i % 13) as f64 - 6.0).collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn check_with(
        cfg: GemmConfig,
        m: usize,
        n: usize,
        k: usize,
        ta: GemmLayout,
        tb: GemmLayout,
        alpha: f64,
        beta: f64,
    ) {
        let a = seq(m * k);
        let b = seq(k * n);
        let c0 = seq(m * n);
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        dgemm_kernel(kernel(), cfg, m, n, k, alpha, &a, ta, &b, tb, beta, &mut c1);
        naive_gemm(m, n, k, alpha, &a, ta, &b, tb, beta, &mut c2);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-9, "mismatch {x} vs {y}");
        }
    }

    fn check(m: usize, n: usize, k: usize, ta: GemmLayout, tb: GemmLayout, alpha: f64, beta: f64) {
        check_with(GemmConfig::default(), m, n, k, ta, tb, alpha, beta);
    }

    /// `a · b` into a fresh row-major C through the view entry point.
    fn view_product(
        a: &MatView<'_>,
        b: &MatView<'_>,
        panels: Option<(&mut [f64], &mut [f64])>,
    ) -> Vec<f64> {
        let mut c = vec![0.0; a.rows() * b.cols()];
        let cl = MatLayout::matrix(a.rows(), b.cols(), GemmLayout::NoTrans);
        dgemm_view_into(1.0, a, b, 0.0, &mut c, &cl, panels);
        c
    }

    #[test]
    fn small_nn() {
        check(3, 4, 5, GemmLayout::NoTrans, GemmLayout::NoTrans, 1.0, 0.0);
    }

    #[test]
    fn small_tn() {
        check(3, 4, 5, GemmLayout::Trans, GemmLayout::NoTrans, 1.0, 0.0);
    }

    #[test]
    fn small_nt() {
        check(3, 4, 5, GemmLayout::NoTrans, GemmLayout::Trans, 1.0, 0.0);
    }

    #[test]
    fn small_tt() {
        check(3, 4, 5, GemmLayout::Trans, GemmLayout::Trans, 1.0, 0.0);
    }

    #[test]
    fn alpha_beta() {
        check(4, 4, 4, GemmLayout::NoTrans, GemmLayout::NoTrans, 2.5, -0.5);
        check(4, 4, 4, GemmLayout::Trans, GemmLayout::Trans, -1.0, 1.0);
    }

    #[test]
    fn panel_boundaries() {
        // Sizes straddling MC/KC/MR/NR boundaries.
        check(
            129,
            9,
            257,
            GemmLayout::NoTrans,
            GemmLayout::NoTrans,
            1.0,
            0.0,
        );
        check(
            128,
            8,
            256,
            GemmLayout::Trans,
            GemmLayout::NoTrans,
            1.0,
            1.0,
        );
        check(1, 1, 1, GemmLayout::NoTrans, GemmLayout::NoTrans, 1.0, 0.0);
        check(130, 17, 3, GemmLayout::NoTrans, GemmLayout::Trans, 1.0, 0.0);
        check(5, 11, 7, GemmLayout::Trans, GemmLayout::Trans, 1.5, -2.0);
    }

    #[test]
    fn nc_blocking_boundaries() {
        // Exercise the NC loop: n larger than nc, straddling and exact.
        for nc in [8, 16, 24] {
            let cfg = GemmConfig {
                nc,
                ..GemmConfig::default()
            };
            check_with(
                cfg,
                13,
                61,
                19,
                GemmLayout::NoTrans,
                GemmLayout::NoTrans,
                1.0,
                0.5,
            );
            check_with(
                cfg,
                13,
                61,
                19,
                GemmLayout::Trans,
                GemmLayout::Trans,
                1.0,
                0.0,
            );
            check_with(
                cfg,
                16,
                48,
                32,
                GemmLayout::NoTrans,
                GemmLayout::Trans,
                -1.5,
                1.0,
            );
        }
    }

    #[test]
    fn tiny_cache_blocks_still_correct() {
        // Degenerate mc/kc/nc (sanitized up to tile multiples) stress every
        // panel boundary at once.
        let cfg = GemmConfig {
            mc: 1,
            kc: 1,
            nc: 1,
        };
        check_with(
            cfg,
            7,
            9,
            5,
            GemmLayout::NoTrans,
            GemmLayout::NoTrans,
            1.0,
            0.0,
        );
        check_with(
            cfg,
            7,
            9,
            5,
            GemmLayout::Trans,
            GemmLayout::Trans,
            2.0,
            -1.0,
        );
    }

    #[test]
    fn view_gemm_matches_naive_on_permuted_operand() {
        // A stored as (L, M): contract over L with A read as M x L — the
        // permuted view must equal naive Trans GEMM.
        let (m, n, k) = (9, 7, 11);
        let a = seq(k * m); // stored k x m
        let b = seq(k * n);
        let av = MatView::permuted(&a, &Shape::new(&[k, m]), &[1, 0], 1);
        let bv = MatView::from_matrix(&b, k, n, GemmLayout::NoTrans);
        let c1 = view_product(&av, &bv, None);
        let mut c2 = vec![0.0; m * n];
        naive_gemm(
            m,
            n,
            k,
            1.0,
            &a,
            GemmLayout::Trans,
            &b,
            GemmLayout::NoTrans,
            0.0,
            &mut c2,
        );
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-9, "mismatch {x} vs {y}");
        }
    }

    #[test]
    fn view_gemm_interleaved_permutation() {
        // A stored (M1, L, M2), read as (M1, M2) x L: a truly interleaved
        // row group that no transpose flag can express.
        let (m1, m2, l, n) = (3, 5, 4, 6);
        let shape = Shape::new(&[m1, l, m2]);
        let a = seq(shape.len());
        let b = seq(l * n);
        let av = MatView::permuted(&a, &shape, &[0, 2, 1], 2);
        let bv = MatView::from_matrix(&b, l, n, GemmLayout::NoTrans);
        let m = m1 * m2;
        let c1 = view_product(&av, &bv, None);
        // Reference: materialize the permuted A and run plain GEMM.
        let mut amat = vec![0.0; m * l];
        for i1 in 0..m1 {
            for i2 in 0..m2 {
                for p in 0..l {
                    amat[(i1 * m2 + i2) * l + p] = a[i1 * (l * m2) + p * m2 + i2];
                }
            }
        }
        let mut c2 = vec![0.0; m * n];
        naive_gemm(
            m,
            n,
            l,
            1.0,
            &amat,
            GemmLayout::NoTrans,
            &b,
            GemmLayout::NoTrans,
            0.0,
            &mut c2,
        );
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-9, "mismatch {x} vs {y}");
        }
    }

    #[test]
    fn caller_pack_bufs_are_used_and_match() {
        let (m, n, k) = (37, 29, 41);
        let a = seq(m * k);
        let b = seq(k * n);
        let av = MatView::from_matrix(&a, m, k, GemmLayout::NoTrans);
        let bv = MatView::from_matrix(&b, k, n, GemmLayout::NoTrans);
        let (an, bn) = pack_elems(m, n, k);
        // Deliberately dirty scratch: packing must fully overwrite or pad
        // every element the kernel reads.
        let mut apack = vec![7.5; an + 3];
        let mut bpack = vec![-3.25; bn];
        let c1 = view_product(&av, &bv, Some((&mut apack, &mut bpack)));
        let mut c2 = vec![0.0; m * n];
        naive_gemm(
            m,
            n,
            k,
            1.0,
            &a,
            GemmLayout::NoTrans,
            &b,
            GemmLayout::NoTrans,
            0.0,
            &mut c2,
        );
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-9, "mismatch {x} vs {y}");
        }
    }

    #[test]
    fn edge_tiles_read_only_valid_rows() {
        // Operand slices sized exactly: any read past `rows` would panic in
        // the safe indexing paths. Sweep every MR remainder (incl. rows <
        // MR) and NR remainders.
        for rows in [1, 2, 3, 5, 6, 7, 129, 130, 131] {
            for n in [1, 7, 8, 9] {
                let k = 10;
                check(
                    rows,
                    n,
                    k,
                    GemmLayout::NoTrans,
                    GemmLayout::NoTrans,
                    1.0,
                    0.0,
                );
                check(rows, n, k, GemmLayout::Trans, GemmLayout::NoTrans, 1.0, 1.0);
            }
        }
    }

    #[test]
    fn zero_alpha_keeps_beta_c() {
        let a = seq(4);
        let b = seq(4);
        let mut c = vec![2.0; 4];
        dgemm(
            2,
            2,
            2,
            0.0,
            &a,
            GemmLayout::NoTrans,
            &b,
            GemmLayout::NoTrans,
            0.5,
            &mut c,
        );
        assert!(c.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn identity_multiply() {
        let n = 16;
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let x = seq(n * n);
        let mut c = vec![0.0; n * n];
        dgemm(
            n,
            n,
            n,
            1.0,
            &eye,
            GemmLayout::NoTrans,
            &x,
            GemmLayout::NoTrans,
            0.0,
            &mut c,
        );
        for (u, v) in c.iter().zip(&x) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn active_microkernel_is_the_widest_supported() {
        let (widest, _) = compiled_kernels().into_iter().find(|&(_, ok)| ok).unwrap();
        assert_eq!(active_microkernel(), widest.name);
        println!("active microkernel: {}", active_microkernel());
        for (k, _) in compiled_kernels() {
            assert!(
                k.name.ends_with(&format!("-{}x{}", k.mr, k.nr)),
                "{} does not name its {}x{} tile",
                k.name,
                k.mr,
                k.nr
            );
        }
    }

    /// Every kernel the host supports, and on stdout the ones it does not.
    fn kernels_under_test() -> Vec<&'static Kernel> {
        let mut run = Vec::new();
        for (k, supported) in compiled_kernels() {
            if supported {
                run.push(k);
            } else {
                println!("kernel {}: skipped, this CPU lacks the ISA", k.name);
            }
        }
        run
    }

    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    /// The conformance table: every supported kernel, every tile remainder
    /// in both directions, depths around the unroll and the kc boundary,
    /// three (alpha, beta) pairs and all four layouts, against `naive_gemm`
    /// within k·ε relative — and twice, for identical bits. C is exactly
    /// `m·n` long, so a tile store running past it panics (with debug
    /// assertions, also inside the standard library's slice code).
    #[test]
    fn kernel_conformance_table() {
        use GemmLayout::{NoTrans, Trans};
        let cfg = GemmConfig {
            mc: 16,
            kc: 8,
            nc: 32,
        };
        for kernel in kernels_under_test() {
            let (_, kc, _) = cfg.blocking_for(kernel);
            let mut cases = 0u32;
            for m in 1..=2 * kernel.mr + 1 {
                for n in 1..=2 * kernel.nr + 1 {
                    for k in [1, 2, 7, kc + 1] {
                        let a = noise(m * k, (m * 131 + k) as u64);
                        let b = noise(k * n, (n * 137 + k) as u64);
                        let c0 = noise(m * n, (m * 139 + n) as u64);
                        for (alpha, beta) in [(1.0, 0.0), (-0.5, 1.0), (2.0, 0.25)] {
                            for (ta, tb) in [
                                (NoTrans, NoTrans),
                                (Trans, NoTrans),
                                (NoTrans, Trans),
                                (Trans, Trans),
                            ] {
                                let run = || {
                                    let mut c = c0.clone();
                                    dgemm_kernel(
                                        kernel, cfg, m, n, k, alpha, &a, ta, &b, tb, beta, &mut c,
                                    );
                                    c
                                };
                                let got = run();
                                let mut want = c0.clone();
                                naive_gemm(m, n, k, alpha, &a, ta, &b, tb, beta, &mut want);
                                // |a|, |b|, |c| <= 1/2, so every partial sum is
                                // within k/4 + 1/2 in magnitude.
                                let tol = (k as f64 + 2.0) * f64::EPSILON * (k as f64 / 4.0 + 0.5);
                                for (x, y) in got.iter().zip(&want) {
                                    assert!(
                                        (x - y).abs() <= tol,
                                        "{}: m={m} n={n} k={k} alpha={alpha} beta={beta} \
                                         {ta:?}/{tb:?}: {x} vs {y}",
                                        kernel.name
                                    );
                                }
                                let again = run();
                                assert!(
                                    got.iter()
                                        .zip(&again)
                                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                                    "{}: m={m} n={n} k={k} is not reproducible",
                                    kernel.name
                                );
                                cases += 1;
                            }
                        }
                    }
                }
            }
            println!("kernel {}: {cases} cases conform", kernel.name);
        }
    }

    /// An element's bits depend on the GEMM's shape, never on the tile it
    /// fell in: growing m and n moves element (0, 0) from an edge tile into
    /// a full one without changing it.
    #[test]
    fn full_and_edge_tiles_round_alike() {
        for kernel in kernels_under_test() {
            let (m, n, k) = (2 * kernel.mr, 2 * kernel.nr, 37);
            let a = noise(m * k, 5);
            let b = noise(k * n, 6);
            let cfg = GemmConfig::default();
            let (nt, tr) = (GemmLayout::NoTrans, GemmLayout::Trans);
            let mut big = vec![0.0; m * n];
            dgemm_kernel(kernel, cfg, m, n, k, 1.5, &a, nt, &b, tr, 0.0, &mut big);
            // The same leading rows/columns as a GEMM made of edge tiles only.
            let (ms, ns) = (kernel.mr - 1, kernel.nr - 1);
            let mut small = vec![0.0; ms * ns];
            dgemm_kernel(
                kernel,
                cfg,
                ms,
                ns,
                k,
                1.5,
                &a[..ms * k],
                nt,
                &b[..k * ns],
                tr,
                0.0,
                &mut small,
            );
            for i in 0..ms {
                for j in 0..ns {
                    assert_eq!(
                        small[i * ns + j].to_bits(),
                        big[i * n + j].to_bits(),
                        "{}: ({i},{j})",
                        kernel.name
                    );
                }
            }
        }
    }

    /// Best-of-`rounds` GFLOP/s of an n³ product on `kernel` under `cfg`.
    fn gflops(kernel: &Kernel, cfg: GemmConfig, n: usize, rounds: usize) -> f64 {
        let a = noise(n * n, 1);
        let b = noise(n * n, 2);
        let mut c = vec![0.0; n * n];
        let nt = GemmLayout::NoTrans;
        let mut best = f64::INFINITY;
        for _ in 0..rounds {
            let t0 = std::time::Instant::now();
            dgemm_kernel(kernel, cfg, n, n, n, 1.0, &a, nt, &b, nt, 0.0, &mut c);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        2.0 * (n as f64).powi(3) / best / 1e9
    }

    /// `cargo test --release -p sia-blocks -- --ignored --nocapture
    /// kernel_throughput`: GFLOP/s of every supported kernel at 256³ and
    /// 512³ under the default blocking (the rows of DESIGN.md §10's dispatch
    /// table), then the mc/kc/nc sweep behind those defaults on the active
    /// kernel.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn kernel_throughput() {
        for kernel in kernels_under_test() {
            for n in [256usize, 512] {
                let g = gflops(kernel, GemmConfig::default(), n, 20);
                println!("kernel {:<14} {n}^3: {g:7.2} GFLOP/s", kernel.name);
            }
        }
        println!(
            "sweep on {}: mc kc nc -> GFLOP/s at 256^3, 512^3",
            kernel().name
        );
        for mc in [64, 128, 256] {
            for kc in [128, 192, 256, 384, 512] {
                for nc in [256, 1024] {
                    let cfg = GemmConfig { mc, kc, nc };
                    let (g256, g512) = (
                        gflops(kernel(), cfg, 256, 12),
                        gflops(kernel(), cfg, 512, 6),
                    );
                    println!("  {mc:>3} {kc:>3} {nc:>4} -> {g256:6.2} {g512:6.2}");
                }
            }
        }
    }
}
