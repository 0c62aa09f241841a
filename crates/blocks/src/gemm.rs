//! A native, cache-blocked DGEMM with permute-on-pack operand views.
//!
//! The original SIP leans on a vendor BLAS for its contraction super
//! instructions ("permute one of the arrays and then apply a DGEMM"). We
//! provide a dependency-free equivalent: a BLIS-style register-tiled,
//! cache-blocked `C = alpha * op(A) * op(B) + beta * C` for row-major
//! matrices — except that `op` is more general than BLAS transposes.
//! Operands are read through [`MatView`]s (arbitrary index permutations
//! expressed as per-dimension strides), so a permuted tensor operand is
//! packed straight out of its home buffer: the permutation folds into the
//! pack traversal instead of materializing a reordered copy first.
//!
//! Structure follows the BLIS three-level blocking: the N dimension is split
//! into NC-wide column blocks (so the packed B panel stays cache-resident
//! instead of spanning all of N), the k dimension into KC-deep panels, and
//! the M dimension into MC-tall panels. op(B) panels are packed into NR-wide
//! column slivers and op(A) panels into MR-tall row slivers (both
//! zero-padded at the edges) so the MR x NR microkernel runs over contiguous
//! memory with a full register tile of accumulators. Rows not divisible by
//! MR fall to narrower edge microkernels rather than computing padded rows.
//!
//! The microkernel is selected once per GEMM by [`select_microkernel`]:
//! AVX2+FMA on x86-64 (runtime-detected), NEON `float64x2_t` tiles on
//! AArch64 (baseline there, no detection needed), and a portable unrolled
//! scalar tile everywhere else. One GEMM runs on one thread: a super
//! instruction is serial and the SIP's parallelism is across workers, as in
//! the paper. [`GemmConfig`] tunes the cache blocking.

use crate::view::MatView;

/// Whether an operand participates as itself or transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmLayout {
    /// Use the matrix as stored.
    NoTrans,
    /// Use the transpose of the stored matrix.
    Trans,
}

/// Tuning knobs for [`dgemm_with`] / [`dgemm_view`].
///
/// `mc`/`kc`/`nc` are the BLIS cache-blocking parameters: an MC x KC packed
/// A panel should fit L2, a KC x NC packed B panel L3, and one KC-deep
/// sliver pair L1. They are sanitized to microkernel multiples by
/// [`GemmConfig::blocking`]; the defaults suit the 32 KiB / 1 MiB-class
/// cores the bench grid runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GemmConfig {
    /// Rows of op(A) per cache panel (rounded up to an MR multiple).
    pub mc: usize,
    /// Depth per cache panel.
    pub kc: usize,
    /// Columns of op(B) per cache block (rounded up to an NR multiple).
    pub nc: usize,
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
    /// The sanitized `(mc, kc, nc)` triple: microkernel-aligned and nonzero.
    pub fn blocking(&self) -> (usize, usize, usize) {
        let mc = self.mc.max(1).div_ceil(MR) * MR;
        let kc = self.kc.max(1);
        let nc = self.nc.max(1).div_ceil(NR) * NR;
        (mc, kc, nc)
    }
}

/// Register tile height (rows of the microkernel).
pub const MR: usize = 4;
/// Register tile width (columns of the microkernel).
pub const NR: usize = 8;

/// Caller-provided packing scratch for [`dgemm_view`]: lets the contraction
/// layer route the pack panels through its block pool instead of allocating
/// per call. Size each slice with [`pack_buf_elems`]; undersized buffers
/// fall back to a local allocation.
pub struct PackBufs<'s> {
    /// Scratch for the packed A panel.
    pub apack: &'s mut [f64],
    /// Scratch for the packed B panel.
    pub bpack: &'s mut [f64],
}

/// Element counts `(apack, bpack)` needed to pack an `m x k` by `k x n`
/// product under `cfg`'s blocking.
pub fn pack_buf_elems(cfg: &GemmConfig, m: usize, n: usize, k: usize) -> (usize, usize) {
    let (mc, kc, nc) = cfg.blocking();
    let kd = kc.min(k).max(1);
    let a = mc.min(m.div_ceil(MR) * MR).max(MR) * kd;
    let b = kd * nc.min(n.div_ceil(NR) * NR).max(NR);
    (a, b)
}

/// `C(m x n) = alpha * op(A) * op(B) + beta * C` with row-major storage.
/// Single-threaded, like every super instruction: the SIP's parallelism is
/// across workers. See [`dgemm_with`] for explicit cache blocking.
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
    dgemm_with(GemmConfig::default(), m, n, k, alpha, a, ta, b, tb, beta, c);
}

/// [`dgemm`] with explicit cache blocking.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_with(
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
    scale_c(beta, c);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    let av = MatView::from_matrix(a, m, k, ta);
    let bv = MatView::from_matrix(b, k, n, tb);
    dgemm_view(cfg, alpha, &av, &bv, 1.0, c, None);
}

/// The general entry point: `C = alpha * A * B + beta * C` where each
/// operand is an arbitrary [`MatView`] (plain, transposed, or a permuted
/// tensor) — the permute-on-pack path. `bufs` optionally supplies
/// pool-backed packing scratch (see [`pack_buf_elems`]).
///
/// # Panics
/// Panics if the view dimensions are inconsistent (`a.cols() != b.rows()`)
/// or `c.len() != a.rows() * b.cols()`.
pub fn dgemm_view(
    cfg: GemmConfig,
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    beta: f64,
    c: &mut [f64],
    bufs: Option<PackBufs<'_>>,
) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    assert_eq!(b.rows(), k, "inner dimension mismatch");
    assert_eq!(c.len(), m * n, "C dimension mismatch");
    scale_c(beta, c);
    if alpha == 0.0 {
        return;
    }

    let (mc, kc, nc) = cfg.blocking();
    let (a_need, b_need) = pack_buf_elems(&cfg, m, n, k);
    match bufs {
        Some(bufs) if bufs.apack.len() >= a_need && bufs.bpack.len() >= b_need => {
            gemm_rows(m, n, k, alpha, a, b, c, bufs.apack, bufs.bpack, mc, kc, nc);
        }
        _ => {
            let mut apack = vec![0.0f64; a_need];
            let mut bpack = vec![0.0f64; b_need];
            gemm_rows(m, n, k, alpha, a, b, c, &mut apack, &mut bpack, mc, kc, nc);
        }
    }
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

/// Computes `C += alpha * A * B` over all `rows` rows of `c`. The
/// jc -> pc -> ic loop nest is the BLIS order: B is packed once per (jc, pc)
/// block, A once per (jc, pc, ic) panel.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    rows: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &MatView<'_>,
    b: &MatView<'_>,
    c: &mut [f64],
    apack: &mut [f64],
    bpack: &mut [f64],
    mc: usize,
    kc: usize,
    nc: usize,
) {
    let kernel = select_microkernel();
    let mut jj = 0;
    while jj < n {
        let nb = nc.min(n - jj);
        let n_slivers = nb.div_ceil(NR);
        let mut p0 = 0;
        while p0 < k {
            let pb = kc.min(k - p0);
            pack_b(&mut bpack[..n_slivers * NR * pb], b, p0, pb, jj, nb);
            gemm_panel_rows(
                kernel,
                rows,
                n,
                alpha,
                a,
                &bpack[..n_slivers * NR * pb],
                p0,
                pb,
                jj,
                nb,
                c,
                apack,
                mc,
            );
            p0 += pb;
        }
        jj += nb;
    }
}

/// One (jc, pc) block: the ic loop over `rows`, packing A panels and
/// sweeping the microkernel against the already-packed B panel (`bpack`,
/// sized `nb.div_ceil(NR) * NR * pb`).
#[allow(clippy::too_many_arguments)]
fn gemm_panel_rows(
    kernel: MicroKernelFn,
    rows: usize,
    n: usize,
    alpha: f64,
    a: &MatView<'_>,
    bpack: &[f64],
    p0: usize,
    pb: usize,
    jj: usize,
    nb: usize,
    c: &mut [f64],
    apack: &mut [f64],
    mc: usize,
) {
    let n_slivers = nb.div_ceil(NR);
    let mut i0 = 0;
    while i0 < rows {
        let ib = mc.min(rows - i0);
        pack_a(&mut apack[..ib.div_ceil(MR) * MR * pb], a, i0, ib, p0, pb);
        // Microkernel sweep over the packed panel.
        let mut ii = 0;
        while ii < ib {
            let mr = MR.min(ib - ii);
            let ap = &apack[(ii / MR) * MR * pb..(ii / MR + 1) * MR * pb];
            for js in 0..n_slivers {
                let j0 = js * NR;
                let nr = NR.min(nb - j0);
                let bp = &bpack[js * NR * pb..(js + 1) * NR * pb];
                let crows = &mut c[(i0 + ii) * n..];
                if mr == MR {
                    kernel(ap, bp, pb, alpha, crows, n, jj + j0, mr, nr);
                } else {
                    // Partial row tile: a narrower edge kernel, so the
                    // zero-padded rows cost no FLOPs.
                    microkernel_edge(ap, bp, pb, alpha, crows, n, jj + j0, mr, nr);
                }
            }
            ii += MR;
        }
        i0 += ib;
    }
}

type MicroKernelFn = fn(&[f64], &[f64], usize, f64, &mut [f64], usize, usize, usize, usize);

/// Picks the widest microkernel the running CPU supports. On x86-64 the
/// binary stays portable (baseline codegen) and the AVX2+FMA variant is
/// compiled behind `#[target_feature]`, only entered after runtime
/// detection. On AArch64, NEON is part of the baseline ABI so the NEON
/// kernel is selected unconditionally. Everything else gets the portable
/// unrolled scalar tile.
fn select_microkernel() -> MicroKernelFn {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return microkernel_avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return microkernel_neon;
    }
    #[allow(unreachable_code)]
    microkernel
}

/// Name of the microkernel [`select_microkernel`] resolves to on this host
/// (surfaced by the bench grid and the ISA dispatch table in DESIGN.md).
pub fn active_microkernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx2+fma-4x8";
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return "neon-4x8";
    }
    #[allow(unreachable_code)]
    "scalar-4x8"
}

/// AVX2+FMA instantiation of the register tile: the fixed-size MR x NR
/// loops in [`microkernel_body`] vectorize to FMA on 256-bit registers once
/// the target features are enabled.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn microkernel_avx2(
    ap: &[f64],
    bp: &[f64],
    pb: usize,
    alpha: f64,
    c_rows: &mut [f64],
    n: usize,
    j0: usize,
    mr: usize,
    nr: usize,
) {
    #[target_feature(enable = "avx2,fma")]
    unsafe fn inner(
        ap: &[f64],
        bp: &[f64],
        pb: usize,
        alpha: f64,
        c_rows: &mut [f64],
        n: usize,
        j0: usize,
        mr: usize,
        nr: usize,
    ) {
        microkernel_body(ap, bp, pb, alpha, c_rows, n, j0, mr, nr);
    }
    // Safety: only reachable via select_microkernel's feature detection.
    unsafe { inner(ap, bp, pb, alpha, c_rows, n, j0, mr, nr) }
}

/// NEON instantiation of the register tile: 4 rows x 4 `float64x2_t`
/// accumulators (16 of the 32 vector registers), fed by a broadcast A value
/// per row and four 128-bit B loads per depth step. NEON is baseline on
/// AArch64, so no runtime detection is needed. Partial tiles fall back to
/// the portable body, which writes only the valid corner.
#[cfg(target_arch = "aarch64")]
#[allow(clippy::too_many_arguments)]
fn microkernel_neon(
    ap: &[f64],
    bp: &[f64],
    pb: usize,
    alpha: f64,
    c_rows: &mut [f64],
    n: usize,
    j0: usize,
    mr: usize,
    nr: usize,
) {
    use core::arch::aarch64::{vdupq_n_f64, vfmaq_f64, vld1q_f64, vst1q_f64};
    if mr < MR || nr < NR {
        microkernel_body(ap, bp, pb, alpha, c_rows, n, j0, mr, nr);
        return;
    }
    debug_assert!(ap.len() >= MR * pb && bp.len() >= NR * pb);
    // Safety: NEON is in the aarch64 baseline feature set; all pointer
    // arithmetic stays inside the slices checked just above and the
    // bounds-checked row slices below.
    unsafe {
        let mut acc = [[vdupq_n_f64(0.0); NR / 2]; MR];
        let mut a_ptr = ap.as_ptr();
        let mut b_ptr = bp.as_ptr();
        for _ in 0..pb {
            let b0 = vld1q_f64(b_ptr);
            let b1 = vld1q_f64(b_ptr.add(2));
            let b2 = vld1q_f64(b_ptr.add(4));
            let b3 = vld1q_f64(b_ptr.add(6));
            for r in 0..MR {
                let av = vdupq_n_f64(*a_ptr.add(r));
                acc[r][0] = vfmaq_f64(acc[r][0], av, b0);
                acc[r][1] = vfmaq_f64(acc[r][1], av, b1);
                acc[r][2] = vfmaq_f64(acc[r][2], av, b2);
                acc[r][3] = vfmaq_f64(acc[r][3], av, b3);
            }
            a_ptr = a_ptr.add(MR);
            b_ptr = b_ptr.add(NR);
        }
        let alpha_v = vdupq_n_f64(alpha);
        for (r, row_acc) in acc.iter().enumerate() {
            let crow = &mut c_rows[r * n + j0..r * n + j0 + NR];
            let cp = crow.as_mut_ptr();
            for (v, &av) in row_acc.iter().enumerate() {
                let cur = vld1q_f64(cp.add(2 * v));
                vst1q_f64(cp.add(2 * v), vfmaq_f64(cur, alpha_v, av));
            }
        }
    }
}

/// Portable instantiation of the register tile (unrolled scalar fallback).
#[allow(clippy::too_many_arguments)]
fn microkernel(
    ap: &[f64],
    bp: &[f64],
    pb: usize,
    alpha: f64,
    c_rows: &mut [f64],
    n: usize,
    j0: usize,
    mr: usize,
    nr: usize,
) {
    microkernel_body(ap, bp, pb, alpha, c_rows, n, j0, mr, nr);
}

/// The MR x NR register tile: accumulates `alpha * ap * bp` over `pb` depth
/// steps into `c_rows` (a slice starting at C's row `i`, full row stride
/// `n`), writing only the `mr x nr` valid corner. The depth loop is
/// two-deep unrolled: two independent products per accumulator halve the
/// loop overhead and give the autovectorizer independent FMA chains.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn microkernel_body(
    ap: &[f64],
    bp: &[f64],
    pb: usize,
    alpha: f64,
    c_rows: &mut [f64],
    n: usize,
    j0: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    let mut p = 0;
    while p + 2 <= pb {
        let av0 = &ap[p * MR..(p + 1) * MR];
        let bv0 = &bp[p * NR..(p + 1) * NR];
        let av1 = &ap[(p + 1) * MR..(p + 2) * MR];
        let bv1 = &bp[(p + 1) * NR..(p + 2) * NR];
        // Fixed-size inner loops: the compiler keeps `acc` in registers and
        // vectorizes the NR dimension.
        for r in 0..MR {
            let a0 = av0[r];
            let a1 = av1[r];
            for t in 0..NR {
                acc[r][t] += a0 * bv0[t] + a1 * bv1[t];
            }
        }
        p += 2;
    }
    if p < pb {
        let av = &ap[p * MR..(p + 1) * MR];
        let bv = &bp[p * NR..(p + 1) * NR];
        for r in 0..MR {
            let ar = av[r];
            for t in 0..NR {
                acc[r][t] += ar * bv[t];
            }
        }
    }
    for (r, row_acc) in acc.iter().enumerate().take(mr) {
        let crow = &mut c_rows[r * n + j0..r * n + j0 + nr];
        for (t, cv) in crow.iter_mut().enumerate() {
            *cv += alpha * row_acc[t];
        }
    }
}

/// Edge-tile dispatch: a partial row tile (`mr < MR`) runs a const-generic
/// body sized to exactly `mr` accumulator rows, so the zero-padded rows in
/// the A sliver cost neither FLOPs nor C traffic.
#[allow(clippy::too_many_arguments)]
fn microkernel_edge(
    ap: &[f64],
    bp: &[f64],
    pb: usize,
    alpha: f64,
    c_rows: &mut [f64],
    n: usize,
    j0: usize,
    mr: usize,
    nr: usize,
) {
    match mr {
        1 => edge_body::<1>(ap, bp, pb, alpha, c_rows, n, j0, nr),
        2 => edge_body::<2>(ap, bp, pb, alpha, c_rows, n, j0, nr),
        3 => edge_body::<3>(ap, bp, pb, alpha, c_rows, n, j0, nr),
        _ => microkernel_body(ap, bp, pb, alpha, c_rows, n, j0, mr, nr),
    }
}

/// `M`-row instantiation of the register tile (`M < MR`); the A sliver is
/// still MR-strided, but only the first `M` lanes are read.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn edge_body<const M: usize>(
    ap: &[f64],
    bp: &[f64],
    pb: usize,
    alpha: f64,
    c_rows: &mut [f64],
    n: usize,
    j0: usize,
    nr: usize,
) {
    let mut acc = [[0.0f64; NR]; M];
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(pb) {
        for r in 0..M {
            let ar = av[r];
            for t in 0..NR {
                acc[r][t] += ar * bv[t];
            }
        }
    }
    for (r, row_acc) in acc.iter().enumerate() {
        let crow = &mut c_rows[r * n + j0..r * n + j0 + nr];
        for (t, cv) in crow.iter_mut().enumerate() {
            *cv += alpha * row_acc[t];
        }
    }
}

/// Packs B columns `jj..jj+nb`, depth `p0..p0+pb`, into NR-wide column
/// slivers: sliver `js` occupies `bpack[js*NR*pb ..]`, laid out p-major with
/// NR contiguous values per depth step, zero-padded past column `jj+nb`.
///
/// Three traversals, picked by the view's stride structure:
/// contiguous-column streaming (plain row-major B), contiguous-depth
/// streaming (transposed B), and a cursor-driven gather for permuted tensor
/// operands — the permute-on-pack path.
fn pack_b(bpack: &mut [f64], b: &MatView<'_>, p0: usize, pb: usize, jj: usize, nb: usize) {
    let data = b.data();
    let rows = b.row_group();
    let cols = b.col_group();
    let n_slivers = nb.div_ceil(NR);

    if cols.uniform_stride() == Some(1) {
        // Columns are contiguous in storage: copy NR-wide pieces of each
        // stored row (the classic NoTrans pack), row offsets via cursor so
        // a strided/multi-dim depth group still streams.
        let mut rc = rows.cursor(p0);
        for p in 0..pb {
            let rbase = rc.offset() + jj;
            rc.advance();
            for js in 0..n_slivers {
                let j0 = js * NR;
                let nr = NR.min(nb - j0);
                let sliver = &mut bpack[js * NR * pb..];
                sliver[p * NR..p * NR + nr].copy_from_slice(&data[rbase + j0..rbase + j0 + nr]);
                sliver[p * NR + nr..(p + 1) * NR].fill(0.0);
            }
        }
        return;
    }

    if rows.uniform_stride() == Some(1) {
        // Depth is contiguous in storage (the classic Trans pack): stream
        // each stored column (contiguous) once and scatter down its sliver;
        // the sliver stays cache-resident while each source run is read
        // exactly once, instead of gathering nr values per depth step with
        // a large stride.
        if !nb.is_multiple_of(NR) {
            let last = n_slivers - 1;
            bpack[last * NR * pb..last * NR * pb + NR * pb].fill(0.0);
        }
        let mut cc = cols.cursor(jj);
        for t in 0..nb {
            let base = cc.offset() + p0;
            cc.advance();
            let run = &data[base..base + pb];
            let sliver = &mut bpack[(t / NR) * NR * pb..];
            let lane = t % NR;
            for (p, &v) in run.iter().enumerate() {
                sliver[p * NR + lane] = v;
            }
        }
        return;
    }

    // General permuted operand: walk both axis groups with incremental
    // cursors (one decompose per depth row, O(1) per element after that).
    if !nb.is_multiple_of(NR) {
        let last = n_slivers - 1;
        bpack[last * NR * pb..last * NR * pb + NR * pb].fill(0.0);
    }
    let mut rc = rows.cursor(p0);
    for p in 0..pb {
        let rbase = rc.offset();
        rc.advance();
        let mut cc = cols.cursor(jj);
        for t in 0..nb {
            bpack[(t / NR) * NR * pb + p * NR + (t % NR)] = data[rbase + cc.offset()];
            cc.advance();
        }
    }
}

/// Packs A rows `gi0..gi0+ib`, depth `p0..p0+pb`, into MR-tall row slivers
/// laid out p-major with MR contiguous values per depth step, zero-padded
/// past the last row. Traversal choice mirrors [`pack_b`].
fn pack_a(apack: &mut [f64], a: &MatView<'_>, gi0: usize, ib: usize, p0: usize, pb: usize) {
    let data = a.data();
    let rows = a.row_group();
    let cols = a.col_group();

    if rows.uniform_stride() == Some(1) {
        // Rows are contiguous in storage (the classic Trans pack): stream
        // each stored depth-run once, scattering its MR-wide pieces across
        // the slivers it feeds. Successive depth steps land 32 bytes apart
        // in each sliver, so the write working set is one cache line per
        // sliver — far cheaper than MR-element strided gathers.
        if !ib.is_multiple_of(MR) {
            let last = ib / MR;
            apack[last * MR * pb..(last + 1) * MR * pb].fill(0.0);
        }
        let mut cc = cols.cursor(p0);
        for p in 0..pb {
            let base = cc.offset() + gi0;
            cc.advance();
            let row = &data[base..base + ib];
            let mut ii = 0;
            while ii < ib {
                let mr = MR.min(ib - ii);
                let dst = (ii / MR) * MR * pb + p * MR;
                apack[dst..dst + mr].copy_from_slice(&row[ii..ii + mr]);
                ii += MR;
            }
        }
        return;
    }

    if let Some(cs) = cols.uniform_stride() {
        // Depth offsets are affine (plain NoTrans has cs == 1, grouped
        // folds a larger constant): gather row-by-row with sequential
        // reads along the depth run.
        let mut rc = rows.cursor(gi0);
        let mut ii = 0;
        while ii < ib {
            let mr = MR.min(ib - ii);
            let sliver = &mut apack[(ii / MR) * MR * pb..(ii / MR + 1) * MR * pb];
            if mr < MR {
                sliver.fill(0.0);
            }
            for r in 0..mr {
                let base = rc.offset() + p0 * cs;
                rc.advance();
                for p in 0..pb {
                    sliver[p * MR + r] = data[base + p * cs];
                }
            }
            ii += MR;
        }
        return;
    }

    // General permuted operand: cursor-driven gather, one depth walk per
    // packed row.
    let mut rc = rows.cursor(gi0);
    let mut ii = 0;
    while ii < ib {
        let mr = MR.min(ib - ii);
        let sliver = &mut apack[(ii / MR) * MR * pb..(ii / MR + 1) * MR * pb];
        if mr < MR {
            sliver.fill(0.0);
        }
        for r in 0..mr {
            let rbase = rc.offset();
            rc.advance();
            let mut cc = cols.cursor(p0);
            for p in 0..pb {
                sliver[p * MR + r] = data[rbase + cc.offset()];
                cc.advance();
            }
        }
        ii += MR;
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
        dgemm_with(cfg, m, n, k, alpha, &a, ta, &b, tb, beta, &mut c1);
        naive_gemm(m, n, k, alpha, &a, ta, &b, tb, beta, &mut c2);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-9, "mismatch {x} vs {y}");
        }
    }

    fn check(m: usize, n: usize, k: usize, ta: GemmLayout, tb: GemmLayout, alpha: f64, beta: f64) {
        check_with(GemmConfig::default(), m, n, k, ta, tb, alpha, beta);
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
        let mut c1 = vec![0.0; m * n];
        dgemm_view(GemmConfig::default(), 1.0, &av, &bv, 0.0, &mut c1, None);
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
        let mut c1 = vec![0.0; m * n];
        dgemm_view(GemmConfig::default(), 1.0, &av, &bv, 0.0, &mut c1, None);
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
        let cfg = GemmConfig::default();
        let (an, bn) = pack_buf_elems(&cfg, m, n, k);
        // Deliberately dirty scratch: packing must fully overwrite or pad
        // every element the kernel reads.
        let mut apack = vec![7.5; an + 3];
        let mut bpack = vec![-3.25; bn];
        let mut c1 = vec![0.0; m * n];
        dgemm_view(
            cfg,
            1.0,
            &av,
            &bv,
            0.0,
            &mut c1,
            Some(PackBufs {
                apack: &mut apack,
                bpack: &mut bpack,
            }),
        );
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
    fn active_microkernel_names_something() {
        let name = active_microkernel();
        assert!(name.contains("4x8"), "unexpected kernel name {name}");
    }
}
