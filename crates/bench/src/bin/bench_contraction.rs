//! Contraction hot-path baseline: GEMM throughput (seed kernel replica vs
//! the active register-tile kernel), block-contraction GFLOP/s across
//! segment sizes, and the permute-on-pack grid (shape × transpose class,
//! plus the CCSD ladder on 16⁴ blocks), and the integral kernels that
//! compute `ccsd_dense`'s 16⁴ operand blocks. One GEMM runs on one thread —
//! the SIP's parallelism is across workers — which is the `t1` in the keys.
//! Writes the numbers to `BENCH_contraction.json` at the repo root so
//! future PRs can track the perf trajectory.
//!
//! ```text
//! cargo run --release -p sia-bench --bin bench_contraction [-- --quick]
//! ```
//!
//! `--quick` runs a seconds-long smoke check instead: a chem-shaped
//! contraction with an interleaved operand permutation must agree bitwise
//! with permuting its operands into GEMM order first and contracting the
//! identity-ordered plan, and must give every pool block back. Exits
//! nonzero on failure; used by CI.

use sia_blocks::{
    active_microkernel, apply_permutation, contract_into_ctx, dgemm, invert_permutation, permute,
    Block, BlockPool, ContractCtx, ContractionPlan, GemmLayout, PoolConfig, Shape,
};
use sia_chem::register_integrals;
use sia_runtime::json::Json;
use sia_runtime::{SuperArg, SuperEnv, SuperRegistry};
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// The pre-overhaul GEMM (MC=64/KC=128, scalar 1×8 inner loop, no
/// transpose support), kept verbatim as the seed baseline.
fn seed_dgemm(m: usize, n: usize, k: usize, alpha: f64, a: &[f64], b: &[f64], c: &mut [f64]) {
    const MC: usize = 64;
    const KC: usize = 128;
    const NR: usize = 8;
    c.fill(0.0);
    let mut apack = vec![0.0f64; MC.min(m) * KC.min(k)];
    let mut bpack = vec![0.0f64; KC.min(k) * n];
    let mut p0 = 0;
    while p0 < k {
        let pb = KC.min(k - p0);
        for p in 0..pb {
            for j in 0..n {
                bpack[p * n + j] = b[(p0 + p) * n + j];
            }
        }
        let mut i0 = 0;
        while i0 < m {
            let ib = MC.min(m - i0);
            for i in 0..ib {
                for p in 0..pb {
                    apack[i * pb + p] = a[(i0 + i) * k + (p0 + p)];
                }
            }
            for i in 0..ib {
                let arow = &apack[i * pb..(i + 1) * pb];
                let crow = &mut c[(i0 + i) * n..(i0 + i + 1) * n];
                let mut j0 = 0;
                while j0 < n {
                    let jb = NR.min(n - j0);
                    let mut acc = [0.0f64; NR];
                    for (p, &av) in arow.iter().enumerate() {
                        let brow = &bpack[p * n + j0..p * n + j0 + jb];
                        for (t, &bv) in brow.iter().enumerate() {
                            acc[t] += av * bv;
                        }
                    }
                    for t in 0..jb {
                        crow[j0 + t] += alpha * acc[t];
                    }
                    j0 += jb;
                }
            }
            i0 += ib;
        }
        p0 += pb;
    }
}

/// Mean seconds per call after one warm-up, over enough reps for ~0.3s
/// total (noise is handled by best-of-rounds at the call sites).
fn time(mut f: impl FnMut()) -> f64 {
    f();
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64();
    let reps = ((0.3 / once.max(1e-9)) as usize).clamp(1, 50);
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

fn ramp(shape: Shape) -> Block {
    let mut v = 0.3;
    Block::from_fn(shape, |_| {
        v = (v * 1.3 + 0.7) % 5.0 - 2.0;
        v
    })
}

/// The permute-on-pack grid: every transpose class of `C = A·B` plus the
/// chem-style rank-4 shape whose operand permutation interleaves free and
/// contracted axes.
///
/// Returns `(name, plan, a, b)` rows. `n` sizes the rank-2 shapes (n³
/// FLOP-shaped); `(m, ls, ij)` sizes the chem shape `C(M,I,J) =
/// A(M,L,S)·B(L,I,S,J)` with `dim(L)=dim(S)=ls`, `dim(I)=dim(J)=ij`.
fn grid_shapes(
    n: usize,
    m: usize,
    ls: usize,
    ij: usize,
) -> Vec<(String, ContractionPlan, Block, Block)> {
    let sq = Shape::new(&[n, n]);
    let mut rows = Vec::new();
    // Labels below: M=0, N=1, L=2 (rank 2); M=0, I=1, J=2, L=3, S=4 (chem).
    let nn = ContractionPlan::infer(&[0, 1], &[0, 2], &[2, 1]).unwrap(); // A(M,L)·B(L,N)
    let tn = ContractionPlan::infer(&[0, 1], &[2, 0], &[2, 1]).unwrap(); // A(L,M)·B(L,N)
    let nt = ContractionPlan::infer(&[0, 1], &[0, 2], &[1, 2]).unwrap(); // A(M,L)·B(N,L)
    let tt = ContractionPlan::infer(&[0, 1], &[2, 0], &[1, 2]).unwrap(); // A(L,M)·B(N,L)
    for (name, plan) in [("nn", nn), ("tn", tn), ("nt", nt), ("tt", tt)] {
        rows.push((name.to_string(), plan, ramp(sq), ramp(sq)));
    }
    let chem = ContractionPlan::infer(&[0, 1, 2], &[0, 3, 4], &[3, 1, 4, 2]).unwrap();
    rows.push((
        "chem".to_string(),
        chem,
        ramp(Shape::new(&[m, ls, ls])),
        ramp(Shape::new(&[ls, ij, ls, ij])),
    ));
    rows
}

/// The repo benchmark's own contraction as one more grid row: the CCSD
/// ladder `tmp(i,a,j,b) = V(c,a,d,b)·T(i,c,j,d)` on `seg⁴` blocks, with both
/// operands *and* the output permuted.
fn ladder_shape(seg: usize) -> (String, ContractionPlan, Block, Block) {
    // Labels: i=0, a=1, j=2, b=3, c=4, d=5.
    let plan = ContractionPlan::infer(&[0, 1, 2, 3], &[4, 1, 5, 3], &[0, 4, 2, 5]).unwrap();
    let blk = ramp(Shape::cube(4, seg));
    ("ladder".to_string(), plan, blk.clone(), blk)
}

/// `C = A·B` the way the paper describes it: both operands permuted into
/// GEMM order, the identity-ordered plan contracted into the raw
/// `[free_a.., free_b..]` order, and that result permuted into `C`'s order.
fn permute_then_contract(plan: &ContractionPlan, a: &Block, b: &Block) -> Block {
    let to_raw = invert_permutation(&plan.out_perm);
    let raw_plan = ContractionPlan::infer(
        &apply_permutation(&to_raw, &plan.c_labels),
        &apply_permutation(&plan.a_perm, &plan.a_labels),
        &apply_permutation(&plan.b_perm, &plan.b_labels),
    )
    .expect("a reordered plan is a plan");
    let (a, b) = (permute(a, &plan.a_perm), permute(b, &plan.b_perm));
    let mut raw = Block::zeros(raw_plan.output_shape(a.shape(), b.shape()));
    contract_into_ctx(&mut ContractCtx::new(), &raw_plan, &a, &b, 0.0, &mut raw);
    permute(&raw, &plan.out_perm)
}

/// CI smoke: the chem workload, read through permuted views, must agree
/// bitwise with permute-then-contract and leave no pool block live. Exits
/// nonzero on failure.
fn quick_smoke() {
    let (_, plan, a, b) = grid_shapes(32, 32, 8, 8).pop().unwrap();
    let pool = BlockPool::new(PoolConfig {
        max_bytes: 64 << 20,
    });
    let mut out = Block::zeros(plan.output_shape(a.shape(), b.shape()));
    let mut ctx = ContractCtx::with_pool(pool.clone());
    contract_into_ctx(&mut ctx, &plan, &a, &b, 0.0, &mut out);
    let stats = ctx.take_stats();
    println!(
        "quick: microkernel={} packed_bytes={} pack_pool_misses={} live_blocks={}",
        active_microkernel(),
        stats.packed_bytes,
        stats.pack_pool_misses,
        pool.stats().live_blocks
    );
    if out.data() != permute_then_contract(&plan, &a, &b).data() {
        eprintln!("FAIL: the chem contraction disagrees with permute-then-contract");
        std::process::exit(1);
    }
    if pool.stats().live_blocks != 0 {
        eprintln!("FAIL: the contraction kept a pool block");
        std::process::exit(1);
    }
    println!("quick smoke passed");
}

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        quick_smoke();
        return;
    }
    let gf = |flops: f64, secs: f64| flops / secs / 1e9;
    let mut report: Vec<(String, Json)> = vec![("microkernel".into(), active_microkernel().into())];
    println!("microkernel: {}", active_microkernel());

    // ---- raw GEMM at 512^3 and 256^3: seed kernel vs the active kernel -----
    let n = 512usize;
    let a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64).collect();
    let b = a.clone();
    let mut c = vec![0.0f64; n * n];
    let flops = 2.0 * (n as f64).powi(3);

    let seed = gf(flops, time(|| seed_dgemm(n, n, n, 1.0, &a, &b, &mut c)));
    println!("gemm 512^3 seed kernel   : {seed:.2} GFLOP/s");
    report.push(("gemm_512_seed_gflops".into(), seed.into()));

    let (nn, no) = (GemmLayout::NoTrans, 0.0);
    let g = gf(
        flops,
        time(|| dgemm(n, n, n, 1.0, &a, nn, &b, nn, no, &mut c)),
    );
    println!("gemm 512^3 {:<14}: {g:.2} GFLOP/s", active_microkernel());
    report.push(("gemm_512_t1_gflops".into(), g.into()));
    println!("speedup vs seed: {:.2}x", g / seed);
    // 256^3 is the GEMM behind every contraction of 16^4 blocks.
    let h = 256usize;
    let g256 = gf(
        2.0 * (h as f64).powi(3),
        time(|| {
            dgemm(
                h,
                h,
                h,
                1.0,
                &a[..h * h],
                nn,
                &b[..h * h],
                nn,
                no,
                &mut c[..h * h],
            )
        }),
    );
    println!("gemm 256^3 {:<14}: {g256:.2} GFLOP/s", active_microkernel());
    report.push(("gemm_256_t1_gflops".into(), g256.into()));

    // ---- block contraction across segment sizes ----------------------------
    // The paper's R(M,N,I,J) = V(M,N,L,S)·T(L,S,I,J) on one block pair.
    let plan = ContractionPlan::infer(&[0, 1, 2, 3], &[0, 1, 4, 5], &[4, 5, 2, 3]).unwrap();
    let pool = BlockPool::new(PoolConfig {
        max_bytes: 512 << 20,
    });
    for seg in [8usize, 16, 32] {
        let va = ramp(Shape::cube(4, seg));
        let vb = ramp(Shape::cube(4, seg));
        let mut out = Block::zeros(plan.output_shape(va.shape(), vb.shape()));
        let mut ctx = ContractCtx::with_pool(pool.clone());
        let g = gf(
            plan.flops(va.shape(), vb.shape()) as f64,
            time(|| contract_into_ctx(&mut ctx, &plan, &va, &vb, 0.0, &mut out)),
        );
        println!("contraction rank4 seg={seg:<2} : {g:.2} GFLOP/s");
        report.push((format!("contract_seg{seg}_gflops"), g.into()));
    }

    // ---- permute-on-pack grid: shape × transpose class ---------------------
    // Operands read in place through permuted views, timed best-of-rounds:
    // extra rounds wash out scheduler noise on small hosts.
    let grid = grid_shapes(512, 256, 24, 16)
        .into_iter()
        .chain([ladder_shape(16)]);
    for (name, plan, ga, gb) in grid {
        let flops = plan.flops(ga.shape(), gb.shape()) as f64;
        let mut out = Block::zeros(plan.output_shape(ga.shape(), gb.shape()));
        let mut ctx = ContractCtx::with_pool(pool.clone());
        let secs = (0..3)
            .map(|_| time(|| contract_into_ctx(&mut ctx, &plan, &ga, &gb, 0.0, &mut out)))
            .fold(f64::INFINITY, f64::min);
        let g = gf(flops, secs);
        println!("grid {name:<6}: {g:.2} GFLOP/s");
        report.push((format!("grid_{name}_t1_gflops"), g.into()));
    }

    // ---- integral kernels: one 16^4 block at a nonzero segment offset -------
    // Median µs per call: a block's kernel time is short enough that a mean
    // would be the scheduler's.
    let mut reg = SuperRegistry::new();
    register_integrals(&mut reg, 16, 16);
    let env = SuperEnv {
        worker: 0,
        workers: 1,
    };
    for name in ["compute_integrals", "compute_screened_integrals"] {
        let mut args = [SuperArg::Block {
            segs: vec![2, 4, 1, 5],
            block: Block::zeros(Shape::cube(4, 16)),
        }];
        let mut call = || {
            let t0 = Instant::now();
            reg.invoke(name, &mut args, &env).expect("a 16^4 block");
            t0.elapsed().as_secs_f64() * 1e6
        };
        call();
        let mut us: Vec<f64> = (0..301).map(|_| call()).collect();
        us.sort_by(f64::total_cmp);
        let median = us[us.len() / 2];
        println!("{name} 16^4: {median:.1} us");
        report.push((format!("{name}_16_us"), median.into()));
    }

    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    report.push(("host_cpus".into(), cpus.into()));

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_contraction.json");
    match fs::write(&path, Json::obj(report).to_string()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
