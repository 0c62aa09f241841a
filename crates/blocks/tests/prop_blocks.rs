//! Property tests for the block substrate: the contraction engine against
//! the naive reference, permutation/slice algebra, GEMM, and pool
//! invariants.

use proptest::prelude::*;
use sia_blocks::{
    apply_permutation, contract, contract_into_ctx, dgemm, extract_slice, insert_slice,
    invert_permutation, is_identity_permutation, naive_contract, permute, Block, BlockPool,
    ContractCtx, ContractionPlan, GemmLayout, PoolConfig, Shape, SliceSpec,
};

/// Splitmix-style step used to derive deterministic shuffles/data from a seed.
fn next_rand(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s
}

/// A random contraction: a plan over shuffled labels plus matching operand
/// blocks. Covers 0–2 contracted labels and 0–2 free labels per operand, so
/// it hits outer products, dot products, matrix multiplies, and rank-4
/// tensor contractions, with every operand/output label order.
fn arb_contraction() -> impl Strategy<Value = (ContractionPlan, Block, Block, f64)> {
    arb_contraction_dims(5)
}

/// [`arb_contraction`] with a configurable per-label dimension bound, so the
/// bitwise permute-on-pack property can reach MR/NR edge remainders while
/// the 256-case suite stays fast.
fn arb_contraction_dims(
    max_dim: usize,
) -> impl Strategy<Value = (ContractionPlan, Block, Block, f64)> {
    (
        0usize..3,                                 // contracted labels
        0usize..3,                                 // labels free in A
        0usize..3,                                 // labels free in B
        prop::collection::vec(1usize..max_dim, 6), // dimension per label
        any::<u64>(),                              // shuffle + data seed
        -2.0..2.0f64,                              // alpha_c
    )
        .prop_map(|(n_c, mut a_f, mut b_f, dims, seed, alpha_c)| {
            // Keep both operands at rank >= 1.
            if n_c + a_f == 0 {
                a_f = 1;
            }
            if n_c + b_f == 0 {
                b_f = 1;
            }
            let mut s = seed;
            let mut shuffled = |mut labels: Vec<u32>| {
                for i in (1..labels.len()).rev() {
                    let j = (next_rand(&mut s) % (i as u64 + 1)) as usize;
                    labels.swap(i, j);
                }
                labels
            };
            // Labels: contracted = 0..n_c, A-free = n_c.., B-free after that.
            let a_labels = shuffled((0..(n_c + a_f) as u32).collect());
            let b_labels = shuffled(
                (0..n_c as u32)
                    .chain((n_c + a_f) as u32..(n_c + a_f + b_f) as u32)
                    .collect(),
            );
            let c_labels = shuffled((n_c as u32..(n_c + a_f + b_f) as u32).collect());
            let plan = ContractionPlan::infer(&c_labels, &a_labels, &b_labels)
                .expect("generated labels form a valid contraction");
            let shape_of = |labels: &[u32]| {
                let d: Vec<usize> = labels.iter().map(|&l| dims[l as usize]).collect();
                if d.is_empty() {
                    Shape::scalar()
                } else {
                    Shape::new(&d)
                }
            };
            let mut val = move || (next_rand(&mut s) % 9) as f64 - 4.0;
            let a = Block::from_fn(shape_of(&a_labels), |_| val());
            let b = Block::from_fn(shape_of(&b_labels), |_| val());
            (plan, a, b, alpha_c)
        })
}

fn arb_block(max_rank: usize, max_dim: usize) -> impl Strategy<Value = Block> {
    prop::collection::vec(1..=max_dim, 1..=max_rank).prop_flat_map(|dims| {
        let shape = Shape::new(&dims);
        prop::collection::vec(-4.0..4.0f64, shape.len())
            .prop_map(move |data| Block::from_data(shape, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// permute(permute(b, p), p⁻¹) == b for every permutation.
    #[test]
    fn permute_roundtrips(b in arb_block(4, 5), seed in 0u64..1000) {
        let rank = b.shape().rank();
        // Derive a permutation from the seed.
        let mut perm: Vec<usize> = (0..rank).collect();
        let mut s = seed;
        for i in (1..rank).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            perm.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let inv = invert_permutation(&perm);
        let round = permute(&permute(&b, &perm), &inv);
        prop_assert_eq!(b, round);
    }

    /// Permutation preserves the multiset of values (sum/norm invariant).
    #[test]
    fn permute_preserves_values(b in arb_block(4, 5)) {
        let rank = b.shape().rank();
        let perm: Vec<usize> = (0..rank).rev().collect();
        let p = permute(&b, &perm);
        prop_assert!((b.sum() - p.sum()).abs() < 1e-9);
        prop_assert!((b.norm() - p.norm()).abs() < 1e-9);
    }

    /// The fast contraction (permute→GEMM→permute) equals the naive
    /// index-sum reference for arbitrary matrix-multiply-like label splits.
    #[test]
    fn contract_matches_naive_mmul(
        m in 1usize..5, n in 1usize..5, k in 1usize..5,
        a_data in prop::collection::vec(-2.0..2.0f64, 0..1),
    ) {
        let _ = a_data;
        let plan = ContractionPlan::infer(&[0, 2], &[0, 1], &[1, 2]).unwrap();
        let a = Block::from_fn(Shape::new(&[m, k]), |i| (i[0] * 7 + i[1] * 3) as f64 % 5.0 - 2.0);
        let b = Block::from_fn(Shape::new(&[k, n]), |i| (i[0] * 5 + i[1] * 11) as f64 % 7.0 - 3.0);
        let fast = contract(&plan, &a, &b);
        let slow = naive_contract(&plan, &a, &b);
        prop_assert!(fast.approx_eq(&slow, 1e-9));
    }

    /// Rank-4 tensor contraction with permuted output matches naive.
    #[test]
    fn contract_matches_naive_rank4(
        d1 in 1usize..4, d2 in 1usize..4, d3 in 1usize..4,
        d4 in 1usize..4, d5 in 1usize..4, d6 in 1usize..4,
    ) {
        // C(0,1,4,5) = A(0,2,1,3) * B(4,2,5,3): contracted {2,3}, output
        // interleaved from both operands.
        let plan = ContractionPlan::infer(
            &[0, 1, 4, 5],
            &[0, 2, 1, 3],
            &[4, 2, 5, 3],
        ).unwrap();
        let a = Block::from_fn(
            Shape::new(&[d1, d3, d2, d4]),
            |i| ((i[0] * 3 + i[1] * 5 + i[2] * 7 + i[3] * 11) % 9) as f64 - 4.0,
        );
        let b = Block::from_fn(
            Shape::new(&[d5, d3, d6, d4]),
            |i| ((i[0] * 13 + i[1] * 3 + i[2] * 5 + i[3] * 2) % 11) as f64 - 5.0,
        );
        let fast = contract(&plan, &a, &b);
        let slow = naive_contract(&plan, &a, &b);
        prop_assert!(fast.approx_eq(&slow, 1e-9));
    }

    /// dgemm with all transpose combinations against the naive triple loop.
    #[test]
    fn gemm_matches_reference(
        m in 1usize..12, n in 1usize..12, k in 1usize..12,
        ta in prop::bool::ANY, tb in prop::bool::ANY,
        alpha in -2.0..2.0f64, beta in -2.0..2.0f64,
    ) {
        let la = if ta { GemmLayout::Trans } else { GemmLayout::NoTrans };
        let lb = if tb { GemmLayout::Trans } else { GemmLayout::NoTrans };
        let gen = |len: usize, salt: usize| -> Vec<f64> {
            (0..len).map(|i| ((i * 31 + salt) % 13) as f64 - 6.0).collect()
        };
        let a = gen(m * k, 1);
        let b = gen(k * n, 2);
        let mut c1 = gen(m * n, 3);
        let mut c2 = c1.clone();
        dgemm(m, n, k, alpha, &a, la, &b, lb, beta, &mut c1);
        sia_blocks::gemm::naive_gemm(m, n, k, alpha, &a, la, &b, lb, beta, &mut c2);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    /// Slice-then-insert at the same window is the identity on the block.
    #[test]
    fn slice_insert_identity(b in arb_block(3, 6), seed in 0u64..1000) {
        let rank = b.shape().rank();
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(99991);
            s
        };
        let mut offsets = Vec::new();
        let mut extents = Vec::new();
        for d in 0..rank {
            let dim = b.shape().dim(d);
            let ext = (next() % dim as u64) as usize + 1;
            let off = (next() % (dim - ext + 1) as u64) as usize;
            offsets.push(off);
            extents.push(ext);
        }
        let spec = SliceSpec::new(&offsets, &extents);
        let mut copy = b.clone();
        let slice = extract_slice(&b, &spec).unwrap();
        insert_slice(&mut copy, &spec, &slice).unwrap();
        prop_assert_eq!(b, copy);
    }

    /// Inserting a modified slice changes exactly the window.
    #[test]
    fn insert_touches_only_window(dims in prop::collection::vec(2usize..5, 2..4)) {
        let shape = Shape::new(&dims);
        let b = Block::filled(shape, 1.0);
        let mut target = b.clone();
        let extents: Vec<usize> = dims.iter().map(|&d| d - 1).collect();
        let offsets = vec![1usize; dims.len()];
        let spec = SliceSpec::new(&offsets, &extents);
        let patch = Block::filled(spec.slice_shape(), 9.0);
        insert_slice(&mut target, &spec, &patch).unwrap();
        let mut in_window = 0;
        for idx in shape.indices() {
            let idx = &idx[..shape.rank()];
            let inside = idx.iter().zip(&offsets).zip(&extents)
                .all(|((&i, &o), &e)| i >= o && i < o + e);
            if inside {
                prop_assert_eq!(target.get(idx), 9.0);
                in_window += 1;
            } else {
                prop_assert_eq!(target.get(idx), 1.0);
            }
        }
        prop_assert_eq!(in_window, spec.slice_shape().len());
    }

    /// Pool: acquire/release of random sequences keeps accounting exact and
    /// recycled blocks are always zeroed.
    #[test]
    fn pool_accounting_balanced(ops in prop::collection::vec((1usize..64, prop::bool::ANY), 1..60)) {
        let pool = BlockPool::new(PoolConfig { max_bytes: 1 << 20 });
        let mut live: Vec<Block> = Vec::new();
        for (elems, release_one) in ops {
            if release_one && !live.is_empty() {
                pool.release(live.pop().unwrap());
            } else if let Ok(b) = pool.acquire_raw(Shape::new(&[elems])) {
                prop_assert!(b.data().iter().all(|&x| x == 0.0), "recycled block not zeroed");
                live.push(b);
            }
        }
        let st = pool.stats();
        prop_assert_eq!(st.live_blocks, live.len());
        let live_bytes: usize = live.iter().map(|b| b.len() * 8).sum();
        prop_assert_eq!(st.live_bytes, live_bytes);
        prop_assert!(st.live_bytes + st.free_bytes <= 1 << 20);
    }

    /// Scalar block ops: fill+scale+axpy compose as on scalars.
    #[test]
    fn block_ops_match_scalar_algebra(
        f in -3.0..3.0f64, s in -3.0..3.0f64, alpha in -3.0..3.0f64, o in -3.0..3.0f64,
        dims in prop::collection::vec(1usize..5, 1..4),
    ) {
        let shape = Shape::new(&dims);
        let mut b = Block::zeros(shape);
        b.fill(f);
        b.scale(s);
        let other = Block::filled(shape, o);
        b.axpy(alpha, &other);
        let want = f * s + alpha * o;
        prop_assert!(b.data().iter().all(|&x| (x - want).abs() < 1e-12));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pooled contraction context matches the naive reference
    /// (`C = alpha_c*C + A*B`) for random shapes, label orders, and alpha_c,
    /// and gives every pooled block back.
    #[test]
    fn ctx_contraction_matches_naive((plan, a, b, alpha_c) in arb_contraction()) {
        let out_shape = plan.output_shape(a.shape(), b.shape());
        let c0 = Block::from_fn(out_shape, |i| {
            (i.iter().enumerate().map(|(d, &x)| (d + 2) * x).sum::<usize>() % 7) as f64 - 3.0
        });
        let naive = naive_contract(&plan, &a, &b);
        let expect = Block::from_data(
            out_shape,
            c0.data()
                .iter()
                .zip(naive.data())
                .map(|(&c, &ab)| alpha_c * c + ab)
                .collect(),
        );
        let pool = BlockPool::new(PoolConfig { max_bytes: 1 << 20 });
        let mut ctx = ContractCtx::with_pool(pool.clone());
        let mut c = c0.clone();
        contract_into_ctx(&mut ctx, &plan, &a, &b, alpha_c, &mut c);
        prop_assert!(c.approx_eq(&expect, 1e-9));
        prop_assert_eq!(ctx.take_stats().contractions, 1);
        prop_assert_eq!(pool.stats().live_blocks, 0);
    }

    /// Reading the operands through permuted views equals permuting them
    /// into GEMM order first and contracting the identity-ordered plan —
    /// *bitwise*, for random label orders (covering operands already in
    /// GEMM order, transposed, and interleaved), dimensions from size-1
    /// segments through MR/NR edge remainders, and every alpha_c class.
    #[test]
    fn permute_on_pack_matches_materialized_bitwise(
        (plan, a, b, _) in arb_contraction_dims(13)
    ) {
        // The reference, from public functions only: operands permuted to
        // [free_a.., contracted..] and [contracted.., free_b..], C to the
        // raw [free_a.., free_b..] order.
        let a_gemm = permute(&a, &plan.a_perm);
        let b_gemm = permute(&b, &plan.b_perm);
        let to_raw = invert_permutation(&plan.out_perm);
        let raw_plan = ContractionPlan::infer(
            &apply_permutation(&to_raw, &plan.c_labels),
            &apply_permutation(&plan.a_perm, &plan.a_labels),
            &apply_permutation(&plan.b_perm, &plan.b_labels),
        )
        .unwrap();
        prop_assert!(is_identity_permutation(&raw_plan.a_perm));
        prop_assert!(is_identity_permutation(&raw_plan.b_perm));
        prop_assert!(is_identity_permutation(&raw_plan.out_perm));

        let out_shape = plan.output_shape(a.shape(), b.shape());
        let c0 = Block::from_fn(out_shape, |i| {
            (i.iter().enumerate().map(|(d, &x)| (d + 3) * x).sum::<usize>() % 5) as f64 - 2.0
        });
        for alpha_c in [0.0, 1.0, 0.5] {
            let mut c = c0.clone();
            contract_into_ctx(&mut ContractCtx::new(), &plan, &a, &b, alpha_c, &mut c);
            let mut raw = permute(&c0, &to_raw);
            let mut ctx = ContractCtx::new();
            contract_into_ctx(&mut ctx, &raw_plan, &a_gemm, &b_gemm, alpha_c, &mut raw);
            let materialized = permute(&raw, &plan.out_perm);
            prop_assert_eq!(c.data(), materialized.data(), "alpha_c={}", alpha_c);
        }
    }
}

/// Regression: the canonical rank-2 contraction `C(M,N) = Σ_L A(L,M)*B(L,N)`
/// (and its mirror with B holding the transpose) reads both operands in
/// place — A's transpose is a plain transposed view, B (resp. A) is already
/// in GEMM order — and the identity output order lets the GEMM write
/// straight into C: the pool's only traffic is the GEMM's pack panels.
#[test]
fn rank2_transpose_contractions_avoid_all_permutes() {
    let l = 6;
    let m = 5;
    let n = 4;
    let a_val = |i: &[usize]| ((i[0] * 3 + i[1] * 7) % 11) as f64 - 5.0;
    let b_val = |i: &[usize]| ((i[0] * 5 + i[1] * 2) % 13) as f64 - 6.0;

    // C(M,N) = A(L,M) * B(L,N): labels L=0 (contracted), M=1, N=2.
    let transposed_a = (
        ContractionPlan::infer(&[1, 2], &[0, 1], &[0, 2]).unwrap(),
        Block::from_fn(Shape::new(&[l, m]), a_val),
        Block::from_fn(Shape::new(&[l, n]), b_val),
    );
    // C(M,N) = A(M,L) * B(N,L): same contraction, transposes on the other side.
    let transposed_b = (
        ContractionPlan::infer(&[1, 2], &[1, 0], &[2, 0]).unwrap(),
        Block::from_fn(Shape::new(&[m, l]), a_val),
        Block::from_fn(Shape::new(&[n, l]), b_val),
    );

    let pool = BlockPool::new(PoolConfig { max_bytes: 1 << 20 });
    let mut ctx = ContractCtx::with_pool(pool.clone());
    for (plan, a, b) in [transposed_a, transposed_b] {
        let mut c = Block::zeros(plan.output_shape(a.shape(), b.shape()));
        contract_into_ctx(&mut ctx, &plan, &a, &b, 0.0, &mut c);
        assert!(c.approx_eq(&naive_contract(&plan, &a, &b), 1e-12));
    }
    // Two pack panels per contraction (same m/n/k both times, so the
    // second pair is recycled), no other pool traffic, and everything was
    // returned.
    let ps = pool.stats();
    let st = ctx.take_stats();
    assert_eq!(st.contractions, 2);
    assert_eq!(st.packed_bytes, 2 * ((m * l + l * n) * 8) as u64);
    assert_eq!(st.pack_pool_misses, 2, "first contraction allocates panels");
    assert_eq!(st.pack_pool_hits, 2, "second contraction recycles them");
    assert_eq!(ps.hits + ps.misses, 4, "hot path must not allocate scratch");
    assert_eq!(ps.live_blocks, 0);
}
