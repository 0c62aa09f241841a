//! Memory-layer baseline: zero-copy share accounting on the put/get hot
//! path, the runtime high-water mark against the dry-run prediction, the
//! cost of enforcing a `memory_budget` ceiling, and a handle-vs-deep-copy
//! micro-benchmark. Writes the numbers to `BENCH_memory.json` at the repo
//! root so future PRs can track the memory trajectory.
//!
//! ```text
//! cargo run --release -p sia-bench --bin bench_memory
//! ```

use sia_blocks::{Block, BlockHandle, Shape};
use sia_bytecode::ConstBindings;
use sia_runtime::json::Json;
use sia_runtime::{SegmentConfig, Sip, SipConfig};
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// Put every block of a distributed array, then sweep it back with gets:
/// the serve → fabric → cache-fill → consume chain that the block manager
/// turned zero-copy.
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

fn config(workers: usize, cache_blocks: usize, budget: Option<u64>) -> SipConfig {
    let mut b = SipConfig::builder()
        .workers(workers)
        .io_servers(1)
        .segments(SegmentConfig {
            default: 8,
            nsub: 2,
            ..Default::default()
        })
        .cache_blocks(cache_blocks)
        .prefetch_depth(2)
        .collect_distributed(false);
    if let Some(bytes) = budget {
        b = b.memory_budget(bytes);
    }
    b.build().unwrap()
}

fn bindings(n: i64) -> ConstBindings {
    [("n".to_string(), n)].into_iter().collect()
}

/// Median seconds per run over `reps` timed runs after one warm-up.
fn run_secs(cfg: &SipConfig, n: i64, reps: usize) -> f64 {
    let program = sial_frontend::compile(PUT_GET_SRC).unwrap();
    let mut times = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let t0 = Instant::now();
        Sip::new(cfg.clone())
            .run(program.clone(), &bindings(n))
            .unwrap();
        if rep > 0 {
            times.push(t0.elapsed().as_secs_f64());
        }
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() {
    let n = 12i64;
    let workers = 4usize;
    let program = sial_frontend::compile(PUT_GET_SRC).unwrap();

    // ---- zero-copy accounting on the serve/cache path ----------------------
    let out = Sip::new(config(workers, 16, None))
        .run(program.clone(), &bindings(n))
        .unwrap();
    let m = &out.profile.metrics.memory;
    println!(
        "put/get n={n}: {} clones avoided ({} KiB uncopied), {} deep copies, high water {} KiB/worker",
        m.clones_avoided,
        m.bytes_clone_avoided / 1024,
        m.deep_copies,
        m.high_water_bytes / 1024,
    );
    let mut report = vec![
        ("clones_avoided", m.clones_avoided.into()),
        ("bytes_clone_avoided", m.bytes_clone_avoided.into()),
        ("deep_copies", m.deep_copies.into()),
        ("high_water_bytes", m.high_water_bytes.into()),
    ];

    // ---- high water vs dry-run prediction ----------------------------------
    let estimate = Sip::new(config(workers, 16, None))
        .dry_run(program.clone(), &bindings(n))
        .unwrap();
    let ratio = m.high_water_bytes as f64 / estimate.per_worker_bytes.max(1) as f64;
    println!(
        "dry run predicted {} KiB/worker; high water is {:.1}% of prediction",
        estimate.per_worker_bytes / 1024,
        ratio * 100.0,
    );
    report.push(("dry_run_estimate_bytes", estimate.per_worker_bytes.into()));
    report.push(("high_water_vs_estimate", ratio.into()));

    // ---- budget-enforcement overhead ---------------------------------------
    // The same workload free-running vs under an enforced ceiling at the
    // dry-run prediction + 10%.
    let reps = 5;
    let free = run_secs(&config(workers, 16, None), n, reps);
    let budget = estimate.per_worker_bytes + estimate.per_worker_bytes / 10;
    let capped = run_secs(&config(workers, 16, Some(budget)), n, reps);
    println!(
        "run free: {:.1} ms, under budget ceiling: {:.1} ms ({:+.1}% overhead)",
        free * 1e3,
        capped * 1e3,
        (capped / free - 1.0) * 100.0,
    );
    report.push(("run_free_ms", (free * 1e3).into()));
    report.push(("run_budgeted_ms", (capped * 1e3).into()));

    // ---- eviction pressure under a tight cache -----------------------------
    let out = Sip::new(config(workers, 2, None))
        .run(program.clone(), &bindings(n))
        .unwrap();
    let c = &out.profile.metrics.cache;
    println!(
        "tight cache (2 blocks): {} evictions, {} refetches, {} hits",
        c.evictions, c.refetches, c.hits,
    );
    report.push(("tight_cache_evictions", c.evictions.into()));
    report.push(("tight_cache_refetches", c.refetches.into()));

    // ---- handle share vs deep copy micro-benchmark -------------------------
    let block = Block::filled(Shape::cube(2, 512), 1.5); // 2 MiB
    let handle = BlockHandle::new(block.clone());
    let iters = 20_000usize;
    let t0 = Instant::now();
    let mut keep = Vec::with_capacity(iters);
    for _ in 0..iters {
        keep.push(handle.clone());
    }
    let share_ns = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
    drop(keep);
    let copies = 200usize;
    let t0 = Instant::now();
    for _ in 0..copies {
        std::hint::black_box(block.clone());
    }
    let copy_ns = t0.elapsed().as_secs_f64() * 1e9 / copies as f64;
    println!(
        "2 MiB block: share {share_ns:.0} ns vs deep copy {copy_ns:.0} ns ({:.0}x)",
        copy_ns / share_ns.max(1e-9),
    );
    report.push(("share_2mib_ns", share_ns.into()));
    report.push(("deep_copy_2mib_ns", copy_ns.into()));
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    report.push(("host_cpus", cpus.into()));

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_memory.json");
    match fs::write(&path, Json::obj(report).to_string()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
