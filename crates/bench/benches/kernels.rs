//! Micro-benchmarks of the computational super instructions: the block
//! contraction (permute→GEMM→permute) across segment sizes — the paper's
//! central tuning parameter — plus raw GEMM and permutation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sia_blocks::{
    contract, contract_into_ctx, dgemm, permute, Block, BlockPool, ContractCtx, ContractionPlan,
    GemmLayout, PoolConfig, Shape,
};

fn ramp(shape: Shape) -> Block {
    let mut v = 0.3;
    Block::from_fn(shape, |_| {
        v = (v * 1.3 + 0.7) % 5.0 - 2.0;
        v
    })
}

/// The paper's contraction: R(M,N,I,J) = V(M,N,L,S)·T(L,S,I,J) on one block
/// pair, at several segment sizes (§III: "one super instruction … requires
/// 2·100³ to 2·2500³ floating point operations").
fn bench_block_contraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_contraction_rank4");
    for seg in [4usize, 8, 12, 16] {
        let plan = ContractionPlan::infer(&[0, 1, 2, 3], &[0, 1, 4, 5], &[4, 5, 2, 3]).unwrap();
        let a = ramp(Shape::cube(4, seg));
        let b = ramp(Shape::cube(4, seg));
        let flops = plan.flops(a.shape(), b.shape());
        group.throughput(Throughput::Elements(flops));
        group.bench_with_input(BenchmarkId::from_parameter(seg), &seg, |bench, _| {
            bench.iter(|| contract(&plan, black_box(&a), black_box(&b)));
        });
    }
    group.finish();
}

/// Matrix-multiply-shaped contraction (rank 2), closest to raw DGEMM.
fn bench_matrix_contraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_contraction_rank2");
    for n in [32usize, 64, 128, 256] {
        let plan = ContractionPlan::infer(&[0, 2], &[0, 1], &[1, 2]).unwrap();
        let a = ramp(Shape::new(&[n, n]));
        let b = ramp(Shape::new(&[n, n]));
        group.throughput(Throughput::Elements(2 * (n as u64).pow(3)));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| contract(&plan, black_box(&a), black_box(&b)));
        });
    }
    group.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("dgemm");
    for n in [64usize, 128, 256] {
        let a: Vec<f64> = (0..n * n).map(|i| (i % 13) as f64 - 6.0).collect();
        let b = a.clone();
        group.throughput(Throughput::Elements(2 * (n as u64).pow(3)));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            let mut out = vec![0.0f64; n * n];
            bench.iter(|| {
                dgemm(
                    n,
                    n,
                    n,
                    1.0,
                    black_box(&a),
                    GemmLayout::NoTrans,
                    black_box(&b),
                    GemmLayout::NoTrans,
                    0.0,
                    &mut out,
                );
            });
        });
    }
    group.finish();
}

/// Transpose folding on vs off, on the fold-friendly `C(M,N) = A(L,M)*B(L,N)`
/// shape: the ablation shows what the planner saves over always materializing
/// operands in GEMM order.
fn bench_fold_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("contract_fold");
    for n in [64usize, 128, 256] {
        let plan = ContractionPlan::infer(&[1, 2], &[0, 1], &[0, 2]).unwrap();
        let a = ramp(Shape::new(&[n, n]));
        let b = ramp(Shape::new(&[n, n]));
        let pool = BlockPool::new(PoolConfig {
            max_bytes: 64 << 20,
        });
        group.throughput(Throughput::Elements(2 * (n as u64).pow(3)));
        for fold in [true, false] {
            let name = if fold { "fold" } else { "no_fold" };
            let mut ctx = ContractCtx::with_pool(pool.clone()).fold_transposes(fold);
            let mut out = Block::zeros(plan.output_shape(a.shape(), b.shape()));
            group.bench_with_input(BenchmarkId::new(name, n), &n, |bench, _| {
                bench.iter(|| {
                    contract_into_ctx(&mut ctx, &plan, black_box(&a), black_box(&b), 0.0, &mut out)
                });
            });
        }
    }
    group.finish();
}

/// The permutation the contraction engine leans on (SIAL's `V1(K,J,I) =
/// V2(I,J,K)`).
fn bench_permute(c: &mut Criterion) {
    let mut group = c.benchmark_group("permute_rank4");
    for seg in [8usize, 16] {
        let b = ramp(Shape::cube(4, seg));
        group.throughput(Throughput::Bytes((b.len() * 8) as u64));
        group.bench_with_input(BenchmarkId::new("reverse", seg), &seg, |bench, _| {
            bench.iter(|| permute(black_box(&b), &[3, 2, 1, 0]));
        });
        group.bench_with_input(BenchmarkId::new("swap_pairs", seg), &seg, |bench, _| {
            bench.iter(|| permute(black_box(&b), &[2, 3, 0, 1]));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_block_contraction,
    bench_matrix_contraction,
    bench_gemm,
    bench_fold_ablation,
    bench_permute
);
criterion_main!(benches);
