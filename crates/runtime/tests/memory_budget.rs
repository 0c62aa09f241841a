//! Budget-enforcement and zero-copy accounting tests: a run must complete
//! under an enforced `memory_budget` set to the dry-run prediction + 10%,
//! the per-worker high-water mark must respect the ceiling, and the
//! in-process fast path must share handles instead of deep-copying blocks.

use sia_bytecode::ConstBindings;
use sia_runtime::{RuntimeError, SegmentConfig, Sip, SipConfig};

fn config(workers: usize, cache_blocks: usize) -> SipConfig {
    SipConfig::builder()
        .workers(workers)
        .io_servers(1)
        .segments(SegmentConfig {
            default: 4,
            nsub: 2,
            ..Default::default()
        })
        .cache_blocks(cache_blocks)
        .prefetch_depth(2)
        .collect_distributed(true)
        .build()
        .unwrap()
}

fn bindings(pairs: &[(&str, i64)]) -> ConstBindings {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// Put every block of a distributed array, then get every block back: a
/// workload that exercises the home store, the remote-copy cache, and the
/// prefetcher all at once.
const PUT_GET_SRC: &str = r#"
sial putget
aoindex i = 1, n
aoindex j = 1, n
distributed X(i,j)
temp t(i,j)
temp u(i,j)
pardo i, j
  t(i,j) = i + 10.0 * j
  put X(i,j) = t(i,j)
endpardo i, j
sip_barrier
pardo i, j
  get X(i,j)
  u(i,j) = X(i,j)
endpardo i, j
endsial
"#;

#[test]
fn run_completes_at_dry_run_estimate_plus_ten_percent() {
    let program = sial_frontend::compile(PUT_GET_SRC).unwrap();
    let binds = bindings(&[("n", 6)]);

    // Predict, then enforce the prediction + 10% as a hard runtime ceiling.
    let estimate = Sip::new(config(3, 8))
        .dry_run(program.clone(), &binds)
        .unwrap();
    let budget = estimate.per_worker_bytes + estimate.per_worker_bytes / 10;

    let mut cfg = config(3, 8);
    cfg.memory_budget = Some(budget);
    let out = Sip::new(cfg).run(program, &binds).unwrap();

    assert_eq!(
        out.profile.dry_run_estimate_bytes,
        estimate.per_worker_bytes
    );
    assert_eq!(out.profile.metrics.memory.budget_bytes, budget);
    assert!(
        out.profile.metrics.memory.high_water_bytes <= budget,
        "high water {} exceeded enforced budget {budget}",
        out.profile.metrics.memory.high_water_bytes
    );
    assert!(out.profile.metrics.memory.high_water_bytes > 0);

    // The run still computed the right thing.
    for i in 1..=6i64 {
        for j in 1..=6i64 {
            let b = &out.collected["X"][&vec![i, j]];
            assert!(b
                .data()
                .iter()
                .all(|&v| (v - (i as f64 + 10.0 * j as f64)).abs() < 1e-12));
        }
    }
}

#[test]
fn in_process_fast_path_is_zero_copy() {
    // Serving home blocks, filling the cache, and delivering through the
    // in-process fabric must all share one Arc allocation. The manager's
    // clone counters prove it: shares happened, deep copies did not.
    let program = sial_frontend::compile(PUT_GET_SRC).unwrap();
    let out = Sip::new(config(3, 8))
        .run(program, &bindings(&[("n", 5)]))
        .unwrap();

    let m = &out.profile.metrics.memory;
    assert!(
        m.clones_avoided > 0,
        "expected shared handles on the serve/cache path, stats: {m:?}"
    );
    assert!(m.bytes_clone_avoided > 0);
    assert_eq!(
        m.deep_copies, 0,
        "no super instructions ran, so nothing may deep-copy: {m:?}"
    );
}

#[test]
fn budget_below_estimate_is_rejected_before_spawning() {
    let program = sial_frontend::compile(PUT_GET_SRC).unwrap();
    let binds = bindings(&[("n", 6)]);
    let estimate = Sip::new(config(2, 8))
        .dry_run(program.clone(), &binds)
        .unwrap();

    let mut cfg = config(2, 8);
    cfg.memory_budget = Some(estimate.per_worker_bytes / 2);
    match Sip::new(cfg).run(program, &binds).unwrap_err() {
        RuntimeError::Infeasible { .. } => {}
        other => panic!("expected Infeasible, got {other}"),
    }
}

/// [`PUT_GET_SRC`] with the get sweep reading `X` transposed and copying
/// it into `Y`. The aligned `put Y(i,j)` anchors the sweep's owner-compute
/// affinity (a sweep that only read would anchor on `X(j,i)` and read
/// locally); a row of `X` lies in one worker's slab, so whichever worker
/// runs iteration `(i, j)`, on two workers half of its gets are remote.
const TRANSPOSED_GET_SRC: &str = r#"
sial putget_transposed
aoindex i = 1, n
aoindex j = 1, n
distributed X(i,j)
distributed Y(i,j)
temp t(i,j)
temp u(i,j)
pardo i, j
  t(i,j) = i + 10.0 * j
  put X(i,j) = t(i,j)
endpardo i, j
sip_barrier
pardo i, j
  get X(j,i)
  u(i,j) = X(j,i)
  put Y(i,j) = u(i,j)
endpardo i, j
sip_barrier
endsial
"#;

#[test]
fn tight_cache_evicts_by_bytes_and_still_completes() {
    // A two-block cache forces byte-accurate LRU eviction on the get sweep;
    // the run must still finish and the eviction counter must move.
    let program = sial_frontend::compile(TRANSPOSED_GET_SRC).unwrap();
    let out = Sip::new(config(2, 2))
        .run(program, &bindings(&[("n", 6)]))
        .unwrap();
    let cache = &out.profile.metrics.cache;
    assert!(
        cache.evictions > 0,
        "two-block cache over 36 remote blocks must evict, got {cache:?}"
    );
    for i in 1..=6i64 {
        for j in 1..=6i64 {
            let b = &out.collected["X"][&vec![i, j]];
            assert!(b
                .data()
                .iter()
                .all(|&v| (v - (i as f64 + 10.0 * j as f64)).abs() < 1e-12));
        }
    }
}
