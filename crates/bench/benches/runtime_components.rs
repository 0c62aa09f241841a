//! Micro-benchmarks of the SIP's management machinery: block cache, guided
//! scheduler, iteration-space enumeration, bytecode wire codec, block pool,
//! and fabric round trips.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sia_blocks::{Block, BlockPool, PoolConfig, Shape};
use sia_bytecode::{ArrayId, BoolExpr, CmpOp, IndexId, ScalarExpr};
use sia_fabric::{Message, Rank};
use sia_runtime::cache::BlockCache;
use sia_runtime::scheduler::{GuidedScheduler, IterationSpace};
use sia_runtime::{BlockKey, Payload};
use std::time::Duration;

fn bench_block_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_cache");
    group.bench_function("fill_lookup_evict_1k", |b| {
        b.iter(|| {
            let mut cache = BlockCache::new(128);
            for i in 0..1000i64 {
                let key = BlockKey::new(ArrayId(0), &[i % 300, i / 300]);
                if cache.lookup(&key).is_none() {
                    cache.fill(key, Payload::Data(Block::zeros(Shape::new(&[8])).into()));
                }
            }
            black_box(cache.stats())
        });
    });
    group.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("guided_scheduler");
    for total in [10_000u64, 1_000_000] {
        group.bench_with_input(BenchmarkId::from_parameter(total), &total, |b, &total| {
            b.iter(|| {
                let mut s = GuidedScheduler::new(total, 256, 2);
                let mut chunks = 0u64;
                while let Some(r) = s.next_chunk() {
                    chunks += 1;
                    black_box(r);
                }
                chunks
            });
        });
    }
    group.finish();
}

fn bench_iteration_space(c: &mut Criterion) {
    let mut group = c.benchmark_group("iteration_space");
    // Triangular filter over a 64×64 space (the Fock build's shape).
    let clause = BoolExpr::Cmp(
        ScalarExpr::IndexVal(IndexId(0)),
        CmpOp::Le,
        ScalarExpr::IndexVal(IndexId(1)),
    );
    group.throughput(Throughput::Elements(64 * 64));
    group.bench_function("triangle_64x64", |b| {
        b.iter(|| {
            IterationSpace::enumerate(
                &[IndexId(0), IndexId(1)],
                &[(1, 64), (1, 64)],
                std::slice::from_ref(&clause),
                &|_| 0.0,
                &|_| 0,
            )
        });
    });
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    // A representative compiled program (the paper's contraction).
    let src = r#"
sial bench
aoindex M = 1, n
aoindex N = 1, n
aoindex L = 1, n
aoindex S = 1, n
moindex I = 1, o
moindex J = 1, o
distributed T(L,S,I,J)
distributed R(M,N,I,J)
temp V(M,N,L,S)
temp t(M,N,I,J)
scalar s
pardo M, N, I, J
  t(M,N,I,J) = 0.0
  do L
    do S
      get T(L,S,I,J)
      execute compute_integrals V(M,N,L,S)
      t(M,N,I,J) += V(M,N,L,S) * T(L,S,I,J)
    enddo S
  enddo L
  put R(M,N,I,J) = t(M,N,I,J)
endpardo M, N, I, J
sip_barrier
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let bytes = sia_bytecode::encode_program(&program);
    let mut group = c.benchmark_group("wire_codec");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode", |b| {
        b.iter(|| sia_bytecode::encode_program(black_box(&program)));
    });
    group.bench_function("decode", |b| {
        b.iter(|| sia_bytecode::decode_program(black_box(&bytes)).unwrap());
    });
    group.bench_function("compile_from_source", |b| {
        b.iter(|| sial_frontend::compile(black_box(src)).unwrap());
    });
    group.finish();
}

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_pool");
    group.bench_function("acquire_release_recycled", |b| {
        let pool = BlockPool::new(PoolConfig {
            max_bytes: 64 << 20,
        });
        let shape = Shape::cube(4, 8);
        // Prime the size class.
        pool.release(Block::zeros(shape));
        b.iter(|| {
            let blk = pool.acquire_raw(shape).unwrap();
            pool.release(black_box(blk));
        });
    });
    group.finish();
}

struct Ping(Vec<u8>);
impl Message for Ping {
    fn approx_bytes(&self) -> usize {
        self.0.len()
    }
}

fn bench_fabric(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric");
    for size in [1024usize, 64 * 1024] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(
            BenchmarkId::new("same_thread_roundtrip", size),
            &size,
            |b, &size| {
                let (mut eps, _stats) = sia_fabric::build::<Ping>(2);
                let b2 = eps.pop().unwrap();
                let a = eps.pop().unwrap();
                b.iter(|| {
                    a.send(Rank(1), Ping(vec![0u8; size])).unwrap();
                    let env = b2.recv_timeout(Duration::from_secs(1)).unwrap();
                    black_box(env.msg.0.len())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_block_cache,
    bench_scheduler,
    bench_iteration_space,
    bench_wire,
    bench_pool,
    bench_fabric
);
criterion_main!(benches);
