//! The dry run as a planning tool.
//!
//! §V-B: "the master inspects the SIAL program in 'dry-run' mode … This
//! feature allows the user to avoid wasting valuable supercomputing
//! resources on an infeasible computation. If the … computation is not
//! feasible with the available memory, this is reported to the user along
//! with the number of processors that would be sufficient."
//!
//! This example sizes a CCSD amplitude store for the paper's molecules
//! without running anything, then shows the feasibility gate firing.
//!
//! ```text
//! cargo run --release --example dry_run_planner
//! ```

use sia::chem::{ccsd_iteration, molecules};
use sia::runtime::dryrun;
use sia::{RuntimeError, SipConfig};

fn main() {
    let seg = 24;
    println!(
        "{:<22} {:>10} {:>14} {:>20}",
        "molecule", "T2 (GiB)", "per-worker@256", "workers for 1 GiB"
    );
    for m in molecules::ALL {
        let workload = ccsd_iteration(m, seg, 1);
        let layout = workload.layout(256, 2).expect("layout");
        let config = SipConfig::builder()
            .workers(256)
            .io_servers(2)
            .cache_blocks(64)
            .build()
            .expect("valid config");
        let est = dryrun::estimate(&layout, &config);
        let sufficient = dryrun::sufficient_workers(&layout, &config, 1 << 30)
            .map(|w| w.to_string())
            .unwrap_or_else(|| "never".into());
        println!(
            "{:<22} {:>10.1} {:>11.1} MiB {:>20}",
            m.name,
            m.t2_bytes() as f64 / (1 << 30) as f64,
            est.per_worker_bytes as f64 / (1 << 20) as f64,
            sufficient
        );
    }

    // The gate in action: ask for a run that cannot fit and get the
    // actionable refusal instead of an OOM hours in.
    println!("\nfeasibility gate:");
    let workload = ccsd_iteration(&molecules::WATER_21, seg, 1);
    let config = SipConfig::builder()
        .workers(8)
        .io_servers(1)
        .memory_budget(512 << 20)
        .segment_size(seg)
        .build()
        .expect("valid config");
    match workload.run_real(config) {
        Err(RuntimeError::Infeasible {
            needed_per_worker,
            budget,
            sufficient_workers,
        }) => {
            println!(
                "  refused before launch: needs {:.1} GiB/worker against a {:.1} GiB budget;\n  \
                 the dry run suggests {} workers would suffice — exactly the report §V-B describes",
                needed_per_worker as f64 / (1 << 30) as f64,
                budget as f64 / (1 << 30) as f64,
                sufficient_workers
            );
        }
        Err(other) => panic!("unexpected error: {other}"),
        Ok(_) => panic!("expected the dry run to refuse this configuration"),
    }
}
