//! Block contraction — the SIA's central super instruction.
//!
//! A SIAL statement `C(M,N,I,J) = A(M,N,L,S) * B(L,S,I,J)` contracts two
//! blocks over their shared index variables. Per the paper (§III, footnote 3),
//! the contraction sums over indices common to `A` and `B` wherever they
//! appear, and is "typically implemented by permuting one of the arrays and
//! then applying a DGEMM" — what [`contract`] does, with every permute
//! folded into the DGEMM's operand packing and tile write instead of made
//! as a copy.
//!
//! Index variables are identified by opaque `u32` labels (the compiler uses
//! its index-table ids). [`ContractionPlan::infer`] classifies each label as
//! a left-free, right-free, or contracted index and precomputes the operand
//! permutations, so the plan can be cached per static occurrence of a `*` in
//! the bytecode and reused for every block the loop touches.

use crate::block::Block;
use crate::gemm::{dgemm_view_into, dot_chunked, kernel, pack_elems, scale_c, Kernel};
use crate::pool::BlockPool;
use crate::shape::{Shape, MAX_RANK};
use crate::view::{MatLayout, MatView};
use std::fmt;

/// Errors from planning a contraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractError {
    /// A label occurs more than once within a single operand (traces are not
    /// SIAL contractions; ACES III uses a dedicated super instruction).
    RepeatedLabel { label: u32 },
    /// An output label does not occur in either input.
    UnboundOutput { label: u32 },
    /// A label occurs in both inputs *and* the output (a batch index, which
    /// SIAL's `*` does not define).
    BatchLabel { label: u32 },
    /// An input label that is not contracted is missing from the output.
    DanglingInput { label: u32 },
    /// Operand rank exceeds [`crate::MAX_RANK`].
    RankTooLarge,
}

impl fmt::Display for ContractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractError::RepeatedLabel { label } => {
                write!(f, "index label {label} repeated within one operand")
            }
            ContractError::UnboundOutput { label } => {
                write!(
                    f,
                    "output index label {label} not present in either operand"
                )
            }
            ContractError::BatchLabel { label } => write!(
                f,
                "index label {label} appears in both operands and the output"
            ),
            ContractError::DanglingInput { label } => write!(
                f,
                "operand index label {label} neither contracted nor in the output"
            ),
            ContractError::RankTooLarge => write!(f, "operand rank exceeds MAX_RANK"),
        }
    }
}

impl std::error::Error for ContractError {}

/// A precomputed contraction: which axes of each operand are free or
/// contracted, and the permutations bringing the operands into GEMM form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractionPlan {
    /// Labels of the output, in output order.
    pub c_labels: Vec<u32>,
    /// Labels of operand A, in A's storage order.
    pub a_labels: Vec<u32>,
    /// Labels of operand B, in B's storage order.
    pub b_labels: Vec<u32>,
    /// Permutation bringing A to `[free_a.., contracted..]` order.
    pub a_perm: Vec<usize>,
    /// Permutation bringing B to `[contracted.., free_b..]` order.
    pub b_perm: Vec<usize>,
    /// Permutation applied to the raw GEMM result `[free_a.., free_b..]` to
    /// reach output label order (`out[d] = raw[out_perm[d]]`).
    pub out_perm: Vec<usize>,
    /// Number of contracted axes.
    pub n_contracted: usize,
    /// A block dot: the output is a scalar and both operands store the
    /// contracted axes in one order (`a_perm` and `b_perm` are the
    /// identity), so the contraction is a dot of the two buffers as stored.
    block_dot: bool,
}

impl ContractionPlan {
    /// Infers a plan from the label lists of `C = A * B`.
    ///
    /// Contracted labels are those shared by `A` and `B` and absent from `C`.
    /// Every output label must come from exactly one operand; every
    /// non-contracted input label must appear in the output.
    pub fn infer(
        c_labels: &[u32],
        a_labels: &[u32],
        b_labels: &[u32],
    ) -> Result<Self, ContractError> {
        if a_labels.len() > MAX_RANK || b_labels.len() > MAX_RANK || c_labels.len() > MAX_RANK {
            return Err(ContractError::RankTooLarge);
        }
        for labels in [a_labels, b_labels, c_labels] {
            for (i, &l) in labels.iter().enumerate() {
                if labels[..i].contains(&l) {
                    return Err(ContractError::RepeatedLabel { label: l });
                }
            }
        }

        let in_a = |l: u32| a_labels.contains(&l);
        let in_b = |l: u32| b_labels.contains(&l);
        let in_c = |l: u32| c_labels.contains(&l);

        for &l in c_labels {
            if in_a(l) && in_b(l) {
                return Err(ContractError::BatchLabel { label: l });
            }
            if !in_a(l) && !in_b(l) {
                return Err(ContractError::UnboundOutput { label: l });
            }
        }
        // Contracted labels in A's order of appearance (canonical).
        let contracted: Vec<u32> = a_labels
            .iter()
            .copied()
            .filter(|&l| in_b(l) && !in_c(l))
            .collect();
        for &l in a_labels {
            if !in_c(l) && !contracted.contains(&l) {
                return Err(ContractError::DanglingInput { label: l });
            }
        }
        for &l in b_labels {
            if !in_c(l) && !contracted.contains(&l) {
                return Err(ContractError::DanglingInput { label: l });
            }
        }

        // Free labels ordered as they appear in the output, so that the raw
        // GEMM result needs no further permutation when the output is already
        // in (free_a, free_b) order.
        let free_a: Vec<u32> = c_labels.iter().copied().filter(|&l| in_a(l)).collect();
        let free_b: Vec<u32> = c_labels.iter().copied().filter(|&l| in_b(l)).collect();

        let pos = |labels: &[u32], l: u32| labels.iter().position(|&x| x == l).unwrap();

        let a_perm: Vec<usize> = free_a
            .iter()
            .chain(contracted.iter())
            .map(|&l| pos(a_labels, l))
            .collect();
        let b_perm: Vec<usize> = contracted
            .iter()
            .chain(free_b.iter())
            .map(|&l| pos(b_labels, l))
            .collect();

        // Raw result label order is free_a ++ free_b; out_perm maps it to
        // c_labels order.
        let raw: Vec<u32> = free_a.iter().chain(free_b.iter()).copied().collect();
        let out_perm: Vec<usize> = c_labels.iter().map(|&l| pos(&raw, l)).collect();

        let identity = |perm: &[usize]| perm.iter().enumerate().all(|(d, &p)| d == p);
        Ok(ContractionPlan {
            c_labels: c_labels.to_vec(),
            a_labels: a_labels.to_vec(),
            b_labels: b_labels.to_vec(),
            block_dot: c_labels.is_empty() && identity(&a_perm) && identity(&b_perm),
            a_perm,
            b_perm,
            out_perm,
            n_contracted: contracted.len(),
        })
    }

    /// The shape the output block will have for the given operand shapes.
    pub fn output_shape(&self, a: &Shape, b: &Shape) -> Shape {
        let dim_of = |l: u32| -> usize {
            if let Some(p) = self.a_labels.iter().position(|&x| x == l) {
                a.dim(p)
            } else {
                let p = self.b_labels.iter().position(|&x| x == l).unwrap();
                b.dim(p)
            }
        };
        self.c_labels.iter().map(|&l| dim_of(l)).collect()
    }

    /// Floating-point operations performed by this contraction on blocks of
    /// the given shapes (2·m·n·k, the figure used by the SIP's profiler and
    /// by the trace-driven simulator).
    pub fn flops(&self, a: &Shape, b: &Shape) -> u64 {
        let k: u64 = self.a_perm[self.a_perm.len() - self.n_contracted..]
            .iter()
            .map(|&p| a.dim(p) as u64)
            .product();
        let m: u64 = self.a_perm[..self.a_perm.len() - self.n_contracted]
            .iter()
            .map(|&p| a.dim(p) as u64)
            .product();
        let n: u64 = self.b_perm[self.n_contracted..]
            .iter()
            .map(|&p| b.dim(p) as u64)
            .product();
        2 * m * n * k
    }
}

/// Counters of the contraction hot path: contractions run, and what the
/// GEMM packed and where its pack panels came from. Aggregated per worker
/// into the runtime's unified `Metrics` model (whose `Merge` impl delegates
/// to [`ContractStats::merge`]) and surfaced as the `contract:` section of
/// `--profile`/`--profile-json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContractStats {
    /// Contractions executed.
    pub contractions: u64,
    /// Logical operand bytes routed through the pack stage: `(m·k + k·n) ·
    /// 8` per contraction that packs, independent of cache-block
    /// repacking. A block dot (`m·n == 1`) packs nothing.
    pub packed_bytes: u64,
    /// Pack panels served from the block pool's recycled storage.
    pub pack_pool_hits: u64,
    /// Pack panels that required a fresh allocation (pool cold or absent).
    pub pack_pool_misses: u64,
}

impl ContractStats {
    /// Accumulates another worker's counters into this one.
    pub fn merge(&mut self, other: &ContractStats) {
        self.contractions += other.contractions;
        self.packed_bytes += other.packed_bytes;
        self.pack_pool_hits += other.pack_pool_hits;
        self.pack_pool_misses += other.pack_pool_misses;
    }
}

/// Execution context for contractions: where the GEMM's pack panels come
/// from, and the running counters. One lives per SIP worker (sharing the
/// worker's block pool); [`contract`] uses a throwaway one.
#[derive(Debug, Clone, Default)]
pub struct ContractCtx {
    pool: Option<BlockPool>,
    /// Running counters; reset with [`ContractCtx::take_stats`].
    pub stats: ContractStats,
}

impl ContractCtx {
    /// A context with no pool: pack panels are plainly allocated.
    pub fn new() -> Self {
        ContractCtx::default()
    }

    /// A context drawing pack panels from `pool`.
    pub fn with_pool(pool: BlockPool) -> Self {
        ContractCtx {
            pool: Some(pool),
            ..ContractCtx::default()
        }
    }

    /// Returns the counters accumulated so far and resets them.
    pub fn take_stats(&mut self) -> ContractStats {
        std::mem::take(&mut self.stats)
    }

    /// Draws the two GEMM pack panels from the pool (stale contents allowed:
    /// packing overwrites or zero-pads everything the kernel reads). `None`
    /// when no pool is attached or its budget is exhausted — the GEMM then
    /// falls back to local allocations.
    fn pack_panels(&mut self, a_elems: usize, b_elems: usize) -> Option<(Block, Block)> {
        let pool = self.pool.clone()?;
        let mut get = |elems: usize| -> Option<Block> {
            let hits_before = pool.stats().hits;
            let blk = pool.acquire_scratch(Shape::new(&[elems])).ok();
            if blk.is_some() && pool.stats().hits > hits_before {
                self.stats.pack_pool_hits += 1;
            } else {
                self.stats.pack_pool_misses += 1;
            }
            blk
        };
        let a = get(a_elems)?;
        match get(b_elems) {
            Some(b) => Some((a, b)),
            None => {
                pool.release(a);
                None
            }
        }
    }
}

/// `C = A * B` under `plan`. Allocates the output block.
pub fn contract(plan: &ContractionPlan, a: &Block, b: &Block) -> Block {
    let mut c = Block::zeros(plan.output_shape(a.shape(), b.shape()));
    contract_into_ctx(&mut ContractCtx::new(), plan, a, b, 0.0, &mut c);
    c
}

/// `C = alpha_c * C + A * B` under `plan` (`alpha_c = 1.0` implements the
/// fused contraction-accumulate of SIAL's `+=`). `alpha_c = 0.0` overwrites
/// `C` without reading it, so `C` may arrive holding anything, NaN included.
///
/// The hot path: each operand is read *in place* through a
/// [`MatView::permuted`] over its GEMM-order permutation, so any reorder
/// folds into the GEMM's pack traversal (an operand already in GEMM order,
/// or its transpose, is the degenerate case and reads as a plain matrix).
/// The output is addressed the same way: `plan.out_perm` becomes a
/// [`MatLayout`] over `C`'s own storage and folds into the GEMM's tile
/// write (including the `alpha_c` accumulate, via GEMM's beta), so no
/// operand copy or raw result block is ever materialized. The GEMM's pack
/// panels are drawn from the context's block pool when one is attached.
///
/// A plan classified as a block dot (a scalar output, both operands'
/// contracted axes in one storage order) skips all of that: it scales `C` as the GEMM's beta would and adds the
/// chunked kernel dot of the two buffers, which is the sum the GEMM's
/// `m·n == 1` path computes, bit for bit.
///
/// # Panics
/// Panics if block shapes are inconsistent with the plan.
pub fn contract_into_ctx(
    ctx: &mut ContractCtx,
    plan: &ContractionPlan,
    a: &Block,
    b: &Block,
    alpha_c: f64,
    c: &mut Block,
) {
    assert_eq!(a.shape().rank(), plan.a_labels.len(), "A rank mismatch");
    assert_eq!(b.shape().rank(), plan.b_labels.len(), "B rank mismatch");
    let expect = plan.output_shape(a.shape(), b.shape());
    assert_eq!(*c.shape(), expect, "C shape mismatch");
    ctx.stats.contractions += 1;
    if plan.block_dot {
        block_dot(kernel(), a.data(), b.data(), alpha_c, c.data_mut());
        return;
    }

    let nc = plan.n_contracted;
    let nf_a = plan.a_perm.len() - nc;
    let a_view = MatView::permuted(a.data(), a.shape(), &plan.a_perm, nf_a);
    let b_view = MatView::permuted(b.data(), b.shape(), &plan.b_perm, nc);
    let (m, k, n) = (a_view.rows(), a_view.cols(), b_view.cols());
    // C as the GEMM sees it: raw axis `r` of `[free_a.., free_b..]` is C's
    // stored axis `d` with `out_perm[d] == r`.
    let mut c_axes = [0usize; MAX_RANK];
    for (d, &r) in plan.out_perm.iter().enumerate() {
        c_axes[r] = d;
    }
    let c_layout = MatLayout::permuted(c.shape(), &c_axes[..plan.out_perm.len()], nf_a);
    // The tile write is a vector store only along the column group, so C's
    // unit-stride axis belongs there: when it is one of A's free axes,
    // compute `Cᵀ = Bᵀ·Aᵀ` instead. Each element is the same chain of
    // products either way, so the roles never show in the bits.
    let (a_view, b_view, c_layout) =
        if c_layout.row_group().unit_run() > c_layout.col_group().unit_run() {
            (
                b_view.transposed(),
                a_view.transposed(),
                c_layout.transposed(),
            )
        } else {
            (a_view, b_view, c_layout)
        };

    // Route the GEMM's pack panels through the pool so steady-state
    // contractions allocate nothing. A block dot packs nothing at all.
    let (a_elems, b_elems) = pack_elems(a_view.rows(), b_view.cols(), k);
    let mut panels = None;
    if a_elems + b_elems > 0 {
        ctx.stats.packed_bytes += ((m * k + k * n) * std::mem::size_of::<f64>()) as u64;
        panels = ctx.pack_panels(a_elems, b_elems);
    }
    dgemm_view_into(
        1.0,
        &a_view,
        &b_view,
        alpha_c,
        c.data_mut(),
        &c_layout,
        panels
            .as_mut()
            .map(|(ab, bb)| (ab.data_mut(), bb.data_mut())),
    );
    if let (Some(pool), Some((ab, bb))) = (&ctx.pool, panels) {
        pool.release(ab);
        pool.release(bb);
    }
}

/// `c[0] = alpha_c · c[0] + Σ a[p]·b[p]` on `kernel`: the GEMM's beta
/// scaling, then its block-dot sum (added with the GEMM's alpha of 1, which
/// changes no bit).
fn block_dot(kernel: &Kernel, a: &[f64], b: &[f64], alpha_c: f64, c: &mut [f64]) {
    scale_c(alpha_c, c);
    c[0] += dot_chunked(kernel, a, b);
}

/// Reference contraction by explicit index summation. O(output · contracted)
/// per element — used to validate [`contract`] in unit and property tests.
pub fn naive_contract(plan: &ContractionPlan, a: &Block, b: &Block) -> Block {
    let out_shape = plan.output_shape(a.shape(), b.shape());
    let contracted: Vec<u32> = plan.a_perm[plan.a_perm.len() - plan.n_contracted..]
        .iter()
        .map(|&p| plan.a_labels[p])
        .collect();
    let contracted_dims: Vec<usize> = contracted
        .iter()
        .map(|&l| {
            let p = plan.a_labels.iter().position(|&x| x == l).unwrap();
            a.shape().dim(p)
        })
        .collect();
    let sum_shape = if contracted_dims.is_empty() {
        Shape::scalar()
    } else {
        Shape::new(&contracted_dims)
    };

    let value_of = |labels: &[u32], blk: &Block, env: &dyn Fn(u32) -> usize| -> f64 {
        let idx: Vec<usize> = labels.iter().map(|&l| env(l)).collect();
        blk.get(&idx)
    };

    Block::from_fn(out_shape, |out_idx| {
        let mut total = 0.0;
        for s_idx in sum_shape.indices() {
            let env = |l: u32| -> usize {
                if let Some(p) = plan.c_labels.iter().position(|&x| x == l) {
                    out_idx[p]
                } else {
                    let p = contracted.iter().position(|&x| x == l).unwrap();
                    s_idx[p]
                }
            };
            total += value_of(&plan.a_labels, a, &env) * value_of(&plan.b_labels, b, &env);
        }
        total
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{compiled_kernels, dgemm_view_on};
    use crate::permute::is_identity_permutation;
    use crate::pool::PoolConfig;

    fn ramp(shape: Shape, salt: f64) -> Block {
        let mut v = salt;
        Block::from_fn(shape, |_| {
            v = (v * 1.3 + 0.7) % 5.0 - 2.0;
            v
        })
    }

    fn check(c: &[u32], al: &[u32], bl: &[u32], ash: &[usize], bsh: &[usize]) {
        let plan = ContractionPlan::infer(c, al, bl).unwrap();
        let a = ramp(Shape::new(ash), 0.3);
        let b = ramp(Shape::new(bsh), 1.1);
        let fast = contract(&plan, &a, &b);
        let slow = naive_contract(&plan, &a, &b);
        assert!(
            fast.approx_eq(&slow, 1e-9),
            "mismatch for c={c:?} a={al:?} b={bl:?}"
        );
    }

    #[test]
    fn matrix_multiply() {
        check(&[0, 2], &[0, 1], &[1, 2], &[4, 5], &[5, 3]);
    }

    #[test]
    fn paper_equation_2() {
        // R(M,N,I,J) = V(M,N,L,S) * T(L,S,I,J); labels: M=0 N=1 I=2 J=3 L=4 S=5
        check(
            &[0, 1, 2, 3],
            &[0, 1, 4, 5],
            &[4, 5, 2, 3],
            &[3, 4, 2, 3],
            &[2, 3, 3, 2],
        );
    }

    #[test]
    fn contraction_needing_output_permute() {
        // C(I,M) = A(M,L) * B(L,I): output order interleaves the operands.
        check(&[2, 0], &[0, 1], &[1, 2], &[4, 5], &[5, 3]);
    }

    #[test]
    fn inner_indices_scattered() {
        // Contraction indices not adjacent in either operand.
        check(&[0, 3], &[0, 1, 2], &[2, 3, 1], &[3, 4, 5], &[5, 2, 4]);
    }

    #[test]
    fn full_contraction_to_scalar() {
        let plan = ContractionPlan::infer(&[], &[0, 1], &[0, 1]).unwrap();
        let a = ramp(Shape::new(&[3, 4]), 0.2);
        let b = ramp(Shape::new(&[3, 4]), 0.9);
        let c = contract(&plan, &a, &b);
        assert!((c.as_scalar() - a.dot(&b)).abs() < 1e-9);
    }

    #[test]
    fn outer_product() {
        check(&[0, 1], &[0], &[1], &[4], &[3]);
    }

    #[test]
    fn matvec() {
        check(&[0], &[0, 1], &[1], &[4, 6], &[6]);
    }

    #[test]
    fn six_dim_intermediate() {
        // A(a,b,c,k) * B(k,l,m) -> C(a,b,c,l,m): the paper's §IV-E scenario.
        check(
            &[0, 1, 2, 5, 6],
            &[0, 1, 2, 4],
            &[4, 5, 6],
            &[2, 3, 2, 4],
            &[4, 3, 2],
        );
    }

    #[test]
    fn accumulate_into_existing() {
        let plan = ContractionPlan::infer(&[0, 2], &[0, 1], &[1, 2]).unwrap();
        let a = ramp(Shape::new(&[3, 4]), 0.5);
        let b = ramp(Shape::new(&[4, 2]), 1.5);
        let mut c = Block::filled(Shape::new(&[3, 2]), 2.0);
        contract_into_ctx(&mut ContractCtx::new(), &plan, &a, &b, 1.0, &mut c);
        let mut expect = contract(&plan, &a, &b);
        expect.accumulate(&Block::filled(Shape::new(&[3, 2]), 2.0));
        assert!(c.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn flops_formula() {
        let plan = ContractionPlan::infer(&[0, 2], &[0, 1], &[1, 2]).unwrap();
        assert_eq!(
            plan.flops(&Shape::new(&[4, 5]), &Shape::new(&[5, 3])),
            2 * 4 * 3 * 5
        );
    }

    #[test]
    fn folded_paths_match_naive() {
        // Every combination of operands stored in GEMM order or transposed,
        // checked against the reference.
        for (c, al, bl, ash, bsh) in [
            // A transposed, B identity.
            (
                vec![1u32, 2],
                vec![0u32, 1],
                vec![0u32, 2],
                vec![5usize, 4],
                vec![5usize, 3],
            ),
            // A identity, B transposed.
            (vec![0, 2], vec![0, 1], vec![2, 1], vec![4, 5], vec![3, 5]),
            // Both transposed.
            (vec![1, 2], vec![0, 1], vec![2, 0], vec![5, 4], vec![3, 5]),
            // Rank-4 grouped transpose (paper's eq. 2 shape).
            (
                vec![0, 1, 2, 3],
                vec![4, 5, 0, 1],
                vec![4, 5, 2, 3],
                vec![2, 3, 3, 4],
                vec![2, 3, 3, 2],
            ),
        ] {
            check(&c, &al, &bl, &ash, &bsh);
        }
    }

    #[test]
    fn output_permute_folds_into_the_tile_write_with_zero_scratch() {
        // C(I,M) = A(M,L) * B(L,I): the GEMM's (M,I) order is not C's. The
        // reorder rides the tile write for every alpha_c class, and no
        // scratch block is drawn for it: the pool serves the pack panels
        // and nothing else, and gets every block back.
        let plan = ContractionPlan::infer(&[2, 0], &[0, 1], &[1, 2]).unwrap();
        assert!(!is_identity_permutation(&plan.out_perm));
        let a = ramp(Shape::new(&[4, 5]), 0.3);
        let b = ramp(Shape::new(&[5, 3]), 1.1);
        let pool = BlockPool::new(PoolConfig::default());
        let mut ctx = ContractCtx::with_pool(pool.clone());
        for alpha_c in [0.0, 1.0, 0.5] {
            let base = ramp(Shape::new(&[3, 4]), 2.0);
            let mut c = base.clone();
            contract_into_ctx(&mut ctx, &plan, &a, &b, alpha_c, &mut c);
            let mut expect = naive_contract(&plan, &a, &b);
            expect.axpy(alpha_c, &base);
            assert!(c.approx_eq(&expect, 1e-12), "alpha_c={alpha_c}");
        }
        let (ps, st) = (pool.stats(), ctx.stats);
        assert_eq!(
            ps.hits + ps.misses,
            st.pack_pool_hits + st.pack_pool_misses,
            "no scratch block for the output reorder"
        );
        assert_eq!(ps.live_blocks, 0);
    }

    #[test]
    fn interleaved_permute_folds_into_pack_with_zero_scratch() {
        // C(M,N) = A(M,L,S) * B(L,N,S): B's contracted labels straddle its
        // free one, the case a permute-then-GEMM contraction materializes.
        // Read through a permuted view it runs with ZERO permute scratch:
        // the pool's only traffic is the two pack panels.
        let plan = ContractionPlan::infer(&[0, 1], &[0, 8, 9], &[8, 1, 9]).unwrap();
        let a = ramp(Shape::new(&[4, 3, 5]), 0.3);
        let b = ramp(Shape::new(&[3, 6, 5]), 1.1);
        let pool = BlockPool::new(PoolConfig::default());
        let mut ctx = ContractCtx::with_pool(pool.clone());
        let mut c = Block::zeros(Shape::new(&[4, 6]));
        contract_into_ctx(&mut ctx, &plan, &a, &b, 0.0, &mut c);
        assert!(c.approx_eq(&naive_contract(&plan, &a, &b), 1e-9));

        // m=4, k=15, n=6.
        assert_eq!(ctx.stats.packed_bytes, ((4 * 15 + 15 * 6) * 8) as u64);
        assert_eq!(ctx.stats.pack_pool_misses, 2);
        assert_eq!(pool.stats().misses, 2, "no permute scratch drawn at all");
        assert_eq!(pool.stats().live_blocks, 0);
        // The panels are recycled on reuse.
        contract_into_ctx(&mut ctx, &plan, &a, &b, 0.0, &mut c);
        assert_eq!(ctx.stats.pack_pool_misses, 2, "panels recycled");
        assert_eq!(ctx.stats.pack_pool_hits, 2);
        assert_eq!(pool.stats().live_blocks, 0);
    }

    #[test]
    fn block_dot_packs_nothing() {
        // total += X(i,j) * X(i,j): the GEMM takes its dot shortcut, so no
        // bytes are packed and no pack panel is drawn.
        let plan = ContractionPlan::infer(&[], &[0, 1], &[0, 1]).unwrap();
        let x = ramp(Shape::new(&[7, 9]), 0.6);
        let pool = BlockPool::new(PoolConfig::default());
        let mut ctx = ContractCtx::with_pool(pool.clone());
        let mut total = Block::scalar(1.0);
        contract_into_ctx(&mut ctx, &plan, &x, &x, 1.0, &mut total);
        assert!((total.as_scalar() - (1.0 + x.dot(&x))).abs() < 1e-9);
        let st = ctx.take_stats();
        assert_eq!(st.contractions, 1);
        assert_eq!(st.packed_bytes, 0);
        assert_eq!(st.pack_pool_hits + st.pack_pool_misses, 0);
        assert_eq!(pool.stats().hits + pool.stats().misses, 0);
    }

    /// A block dot's direct path is the GEMM's view path bit for bit — the
    /// views `contract_into_ctx` builds for it, through the same GEMM entry
    /// — on every kernel the host runs, at lengths on both sides of the
    /// kernel's lanes and of the dot's chunks, for every `alpha_c` class.
    #[test]
    fn block_dot_is_the_view_path_bit_for_bit() {
        let plan = ContractionPlan::infer(&[], &[0], &[0]).unwrap();
        assert!(plan.block_dot);
        let vals = |len: usize, salt: usize| -> Vec<f64> {
            (0..len)
                .map(|p| ((p * 7919 + salt) % 1009) as f64 / 37.0 - 13.0)
                .collect()
        };
        let c_layout = MatLayout::permuted(&Shape::scalar(), &[], 0);
        for (kernel, supported) in compiled_kernels() {
            if !supported {
                continue;
            }
            for len in [0, 1, 15, 16, 17, 255, 256, 257, 1024] {
                let (a, b) = (vals(len, 3), vals(len, 500));
                for alpha_c in [0.0, 1.0, 0.5] {
                    let c0 = 2.0f64.sqrt();
                    let mut direct = [c0];
                    block_dot(kernel, &a, &b, alpha_c, &mut direct);
                    let mut viewed = [c0];
                    if len == 0 {
                        // No block has zero elements, so no view of one
                        // exists: the GEMM's dot path would add an empty
                        // sum to the scaled C.
                        scale_c(alpha_c, &mut viewed);
                        viewed[0] += 0.0;
                    } else {
                        let shape = Shape::new(&[len]);
                        let av = MatView::permuted(&a, &shape, &plan.a_perm, 0);
                        let bv = MatView::permuted(&b, &shape, &plan.b_perm, 1);
                        dgemm_view_on(kernel, 1.0, &av, &bv, alpha_c, &mut viewed, &c_layout);
                    }
                    assert_eq!(
                        direct[0].to_bits(),
                        viewed[0].to_bits(),
                        "{} len {len} alpha_c {alpha_c}: {} vs {}",
                        kernel.name,
                        direct[0],
                        viewed[0]
                    );
                }
            }
        }
    }

    /// Only a dot whose operands store the contracted axes in one order is
    /// classified a block dot: `A(i,j) * B(j,i)` reads B transposed and
    /// keeps the view path, which it matches bit for bit.
    #[test]
    fn permuted_dot_takes_the_view_path() {
        assert!(
            ContractionPlan::infer(&[], &[0, 1], &[0, 1])
                .unwrap()
                .block_dot
        );
        assert!(
            !ContractionPlan::infer(&[0], &[0, 1], &[1])
                .unwrap()
                .block_dot
        );
        let plan = ContractionPlan::infer(&[], &[0, 1], &[1, 0]).unwrap();
        assert!(!plan.block_dot);
        let a = ramp(Shape::new(&[5, 7]), 0.4);
        let b = ramp(Shape::new(&[7, 5]), 1.7);
        for alpha_c in [0.0, 1.0, 0.5] {
            let mut c = Block::scalar(0.25);
            contract_into_ctx(&mut ContractCtx::new(), &plan, &a, &b, alpha_c, &mut c);
            let av = MatView::permuted(a.data(), a.shape(), &plan.a_perm, 0);
            let bv = MatView::permuted(b.data(), b.shape(), &plan.b_perm, 2);
            let c_layout = MatLayout::permuted(&Shape::scalar(), &[], 0);
            let mut viewed = [0.25];
            dgemm_view_into(1.0, &av, &bv, alpha_c, &mut viewed, &c_layout, None);
            assert_eq!(c.as_scalar().to_bits(), viewed[0].to_bits());
            let expect = alpha_c * 0.25 + naive_contract(&plan, &a, &b).as_scalar();
            assert!((c.as_scalar() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn ctx_accumulate_with_output_permute() {
        let plan = ContractionPlan::infer(&[2, 0], &[0, 1], &[1, 2]).unwrap();
        let a = ramp(Shape::new(&[4, 5]), 0.5);
        let b = ramp(Shape::new(&[5, 3]), 1.5);
        let base = ramp(Shape::new(&[3, 4]), 2.0);
        let mut c = base.clone();
        let mut ctx = ContractCtx::new();
        contract_into_ctx(&mut ctx, &plan, &a, &b, 1.0, &mut c);
        let mut expect = naive_contract(&plan, &a, &b);
        expect.accumulate(&base);
        assert!(c.approx_eq(&expect, 1e-9));

        // And with a scaling alpha_c.
        let mut c = base.clone();
        contract_into_ctx(&mut ctx, &plan, &a, &b, -0.5, &mut c);
        let mut expect = naive_contract(&plan, &a, &b);
        expect.axpy(-0.5, &base);
        assert!(c.approx_eq(&expect, 1e-9));
    }

    /// The contraction table: every route a label pattern can take through
    /// the GEMM (operand views, permuted output, swapped roles, the dot
    /// shortcut) x every `alpha_c` class, on extents that are multiples of
    /// no register tile, against the index-summation reference.
    #[test]
    fn label_pattern_table_matches_naive() {
        // Labels index into these extents.
        const EXTENTS: [usize; 6] = [3, 5, 9, 17, 5, 3];
        type Row = (&'static str, &'static [u32], &'static [u32], &'static [u32]);
        let table: [Row; 10] = [
            ("identity", &[0, 3], &[0, 2], &[2, 3]),
            ("transpose", &[0, 3], &[2, 0], &[3, 2]),
            ("A permuted", &[0, 1, 3], &[0, 2, 1], &[2, 3]),
            ("B permuted", &[3, 0, 1], &[3, 2, 4], &[2, 0, 4, 1]),
            ("both permuted", &[0, 1, 3, 4], &[0, 2, 1], &[3, 2, 4]),
            // Raw order (17 | 5, 9) -> C(5, 17, 9): C's last axis is B's.
            ("output permuted", &[1, 3, 2], &[3, 0], &[0, 1, 2]),
            // C(n, m): C's last axis is A's, so the GEMM runs as Cᵀ = BᵀAᵀ.
            ("roles swapped", &[2, 3], &[0, 3], &[2, 0]),
            ("m*n == 1", &[], &[2, 0], &[0, 2]),
            ("rank 2 x rank 4", &[1, 2, 3, 4], &[0, 1], &[2, 0, 3, 4]),
            // tmp(i,a,j,b) = V(c,a,d,b) * T(i,c,j,d)
            ("CCSD ladder", &[0, 1, 2, 3], &[4, 1, 5, 3], &[0, 4, 2, 5]),
        ];
        for (name, cl, al, bl) in table {
            check_pattern(name, cl, al, bl, &EXTENTS);
        }
    }

    fn check_pattern(name: &str, cl: &[u32], al: &[u32], bl: &[u32], extents: &[usize]) {
        let plan = ContractionPlan::infer(cl, al, bl).unwrap();
        let shape_of = |labels: &[u32]| {
            let dims: Vec<usize> = labels.iter().map(|&l| extents[l as usize]).collect();
            if dims.is_empty() {
                Shape::scalar()
            } else {
                Shape::new(&dims)
            }
        };
        let a = ramp(shape_of(al), 0.3);
        let b = ramp(shape_of(bl), 1.1);
        let base = ramp(shape_of(cl), 2.3);
        let product = naive_contract(&plan, &a, &b);
        for alpha_c in [0.0, 1.0, 0.5] {
            let mut c = base.clone();
            contract_into_ctx(&mut ContractCtx::new(), &plan, &a, &b, alpha_c, &mut c);
            let mut expect = product.clone();
            expect.axpy(alpha_c, &base);
            assert!(c.approx_eq(&expect, 1e-9), "{name}, alpha_c={alpha_c}");
        }
    }

    #[test]
    fn errors() {
        assert_eq!(
            ContractionPlan::infer(&[0], &[0, 0], &[1]).unwrap_err(),
            ContractError::RepeatedLabel { label: 0 }
        );
        assert_eq!(
            ContractionPlan::infer(&[9], &[0, 1], &[1, 0]).unwrap_err(),
            ContractError::UnboundOutput { label: 9 }
        );
        assert_eq!(
            ContractionPlan::infer(&[0], &[0, 1], &[0, 1]).unwrap_err(),
            ContractError::BatchLabel { label: 0 }
        );
        assert_eq!(
            ContractionPlan::infer(&[0], &[0, 1], &[2]).unwrap_err(),
            ContractError::DanglingInput { label: 1 }
        );
    }
}
