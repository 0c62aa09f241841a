//! A scaling study at supercomputer scale, without the supercomputer.
//!
//! Demonstrates the trace-driven simulation path: compile a SIAL workload,
//! extract its dry-run trace, and replay it against several historical
//! machine models over a sweep of processor counts — the machinery behind
//! every figure harness in `crates/bench`.
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use sia::chem::{ccsd_iteration, RDX};
use sia::sim::machine::{CRAY_XT4, CRAY_XT5, SUN_OPTERON_IB};
use sia::sim::{simulate, SimConfig};

fn main() {
    let workload = ccsd_iteration(&RDX, 20, 1);
    let trace = workload.trace(256, 1).expect("trace");
    println!(
        "trace: {:.2} Tflop total, {:.1} GiB moved, {} phases",
        trace.total_flops() as f64 / 1e12,
        trace.total_bytes() as f64 / (1 << 30) as f64,
        trace.phases.len()
    );

    println!(
        "\n{:<34} {:>7} {:>12} {:>10} {:>8}",
        "machine", "procs", "time", "speedup", "wait"
    );
    for machine in [SUN_OPTERON_IB, CRAY_XT4, CRAY_XT5] {
        let mut base: Option<f64> = None;
        for procs in [256u64, 512, 1024, 2048, 4096] {
            let r = simulate(&trace, &SimConfig::sip(machine, procs));
            let base = *base.get_or_insert(r.total_time);
            println!(
                "{:<34} {:>7} {:>10.1} s {:>9.2}x {:>7.1}%",
                machine.name,
                procs,
                r.total_time,
                base / r.total_time,
                r.wait_fraction * 100.0
            );
        }
        println!();
    }

    // Per-phase breakdown at one configuration: where does the time go?
    let r = simulate(&trace, &SimConfig::sip(CRAY_XT5, 1024));
    println!("phase breakdown on {} at 1024 procs:", CRAY_XT5.name);
    for p in &r.phases {
        if p.time > 1e-4 {
            println!(
                "  {:<16} {:>10.2} s  ({:.1} GiB moved)",
                p.label,
                p.time,
                p.bytes as f64 / (1 << 30) as f64
            );
        }
    }
}
