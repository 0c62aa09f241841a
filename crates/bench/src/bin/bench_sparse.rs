//! Block-sparse screening baseline: the screened MP2 workload run dense
//! (threshold 0) versus screened (threshold 1e-10), the realized dry-run
//! footprint against both the dense estimate and the measured high-water
//! mark, and the fabric traffic screening saves. Writes the numbers to
//! `BENCH_sparse.json` at the repo root so future PRs can track the
//! screening trajectory.
//!
//! ```text
//! cargo run --release -p sia-bench --bin bench_sparse
//! ```

use sia_chem::molecules::Molecule;
use sia_chem::workloads::{mp2_energy_screened, screened_vd_density};
use sia_runtime::json::Json;
use sia_runtime::{RunOutput, Sip, SipConfig};
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// Big enough that screening has a tail of negligible blocks to drop, small
/// enough that the dense baseline still runs in seconds.
const MOLECULE: Molecule = Molecule {
    name: "bench-sparse",
    formula: "He3",
    electrons: 6,
    n_occ: 6,
    n_ao: 18,
    open_shell: false,
};
const SEG: usize = 2;
const THRESHOLD: f64 = 1e-10;

/// Cache sized to what this workload actually fills, so the dry-run
/// estimate (which charges the cache at capacity) and the measured high
/// water compare like-for-like.
const CACHE_BLOCKS: usize = 2;

fn config(threshold: f64) -> SipConfig {
    SipConfig::builder()
        .workers(4)
        .io_servers(0)
        .cache_blocks(CACHE_BLOCKS)
        .collect_distributed(true)
        .sparsity_threshold(threshold)
        .build()
        .unwrap()
}

/// Runs the workload `reps` times after a warm-up; returns the median
/// seconds and the last run's output.
fn timed_runs(threshold: f64, reps: usize) -> (f64, RunOutput) {
    let w = mp2_energy_screened(&MOLECULE, SEG);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..=reps {
        let t0 = Instant::now();
        let out = w.run_real(config(threshold)).unwrap();
        if rep > 0 {
            times.push(t0.elapsed().as_secs_f64());
        }
        last = Some(out);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], last.unwrap())
}

fn main() {
    let reps = 3;

    // ---- dense vs screened: wall clock, energy, resident blocks ------------
    let (dense_s, dense) = timed_runs(0.0, reps);
    let (sparse_s, sparse) = timed_runs(THRESHOLD, reps);
    let (e_d, e_s) = (dense.scalars["emp2"], sparse.scalars["emp2"]);
    let total = dense.collected["Vd"].len();
    let kept = sparse.collected.get("Vd").map_or(0, |b| b.len());
    let dropped_frac = (total - kept) as f64 / total.max(1) as f64;
    println!(
        "{} MP2 (threshold {THRESHOLD:e}): dense {:.1} ms, screened {:.1} ms ({:.2}x)",
        MOLECULE.name,
        dense_s * 1e3,
        sparse_s * 1e3,
        dense_s / sparse_s.max(1e-12),
    );
    println!(
        "energy dense {e_d:.12} vs screened {e_s:.12} (|Δ| = {:.2e}); \
         {kept}/{total} Vd blocks resident ({:.1}% dropped)",
        (e_d - e_s).abs(),
        dropped_frac * 100.0,
    );
    let mut report = vec![
        ("dense_ms", (dense_s * 1e3).into()),
        ("screened_ms", (sparse_s * 1e3).into()),
        ("energy_abs_delta", (e_d - e_s).abs().into()),
        ("vd_blocks_total", total.into()),
        ("vd_blocks_kept", kept.into()),
        ("vd_dropped_frac", dropped_frac.into()),
    ];

    // ---- screening counters -------------------------------------------------
    let sp = &sparse.profile.metrics.sparse;
    println!(
        "screening: {} contractions skipped, {} KiB never shipped, {} flops avoided",
        sp.blocks_skipped,
        sp.bytes_not_shipped / 1024,
        sp.flops_avoided,
    );
    report.push(("blocks_skipped", sp.blocks_skipped.into()));
    report.push(("bytes_not_shipped", sp.bytes_not_shipped.into()));
    report.push(("flops_avoided", sp.flops_avoided.into()));

    // ---- realized dry-run estimate vs dense and vs measurement -------------
    let w = mp2_energy_screened(&MOLECULE, SEG);
    let density = screened_vd_density(&MOLECULE, SEG, THRESHOLD);
    let mut cfg = SipConfig::builder()
        .workers(4)
        .io_servers(0)
        .cache_blocks(CACHE_BLOCKS)
        .sparsity_threshold(THRESHOLD)
        .sparsity_density("Vd", density)
        .build()
        .unwrap();
    cfg.segments = w.segments();
    let est = Sip::new(cfg)
        .dry_run(w.compile().unwrap(), &w.bindings)
        .unwrap();
    let realized_frac = est.per_worker_bytes as f64 / est.dense_per_worker_bytes.max(1) as f64;
    let high_water = sparse.profile.metrics.memory.high_water_bytes;
    let est_vs_measured = est.per_worker_bytes as f64 / high_water.max(1) as f64;
    println!(
        "dry run: realized {} KiB/worker = {:.1}% of dense {} KiB; \
         measured high water {} KiB ({:.2}x of estimate)",
        est.per_worker_bytes / 1024,
        realized_frac * 100.0,
        est.dense_per_worker_bytes / 1024,
        high_water / 1024,
        est_vs_measured,
    );
    report.push(("vd_model_density", density.into()));
    report.push(("realized_per_worker_bytes", est.per_worker_bytes.into()));
    report.push(("dense_per_worker_bytes", est.dense_per_worker_bytes.into()));
    report.push(("realized_frac", realized_frac.into()));
    report.push(("high_water_bytes", high_water.into()));
    report.push(("estimate_vs_measured", est_vs_measured.into()));

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sparse.json");
    match fs::write(&path, Json::obj(report).to_string()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
