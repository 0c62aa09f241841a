//! Modelled strong scaling of the planned schedule against hash placement:
//! extrapolates the planner's byte classes for a broadcast-shaped workload
//! through the analytic `comm_model` at simulated rank counts up to 16k.
//! A simulation-only claim about scale; the runtime has one placement.
//! Writes `BENCH_scaling.json` at the repo root.
//!
//! ```text
//! cargo run --release -p sia-bench --bin bench_scaling [-- --assert]
//! ```
//!
//! With `--assert` the bin exits nonzero unless the modeled planned time
//! beats hash at every simulated scale ≥ 1024 ranks — the CI smoke gate.

use sia_runtime::json::Json;
use sia_runtime::{Sip, SipConfig};
use sia_sim::machine;
use sia_sim::{hash_cost, planned_cost, CommCost, CommWorkload};
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

/// A broadcast-heavy contraction shape: `F(M)` is indexed by a strict
/// subset of the pardo indices, so every worker re-reads the same blocks
/// across its `N` iterations — the pattern the modelled tree schedule
/// targets.
const PROGRAM: &str = "\
sial scaling
aoindex M = 1, n
aoindex N = 1, n
distributed F(M)
distributed R(M,N)
temp f(M)
temp q(M,N)
pardo M
f(M) = 0.5
put F(M) = f(M)
endpardo
sip_barrier
pardo M, N
get F(M)
f(M) = F(M)
q(M,N) = 0.0
put R(M,N) = q(M,N)
endpardo
endsial
";

const WORKERS: usize = 4;
const N: i64 = 12;
const SEG: usize = 4;
const RANKS: [u64; 3] = [64, 1024, 16384];

fn main() -> ExitCode {
    let assert_mode = std::env::args().any(|a| a == "--assert");

    let program = sial_frontend::compile(PROGRAM).unwrap();
    let mut bindings = sia_bytecode::ConstBindings::new();
    bindings.insert("n".into(), N);
    let config = SipConfig::builder()
        .workers(WORKERS)
        .io_servers(0)
        .segment_size(SEG)
        .build()
        .unwrap();
    let (_, plan) = Sip::new(config).plan(program, &bindings).unwrap();
    let w = CommWorkload {
        aligned_put_bytes: plan.summary.aligned_put_bytes,
        broadcast_bytes: plan.summary.broadcast_bytes,
        broadcast_blocks: plan.summary.broadcast_blocks,
        other_bytes: plan.summary.other_bytes,
    };
    let m = machine::CRAY_XT5;

    let mut planned_wins_at_scale = true;
    let mut scales = Vec::new();
    for &ranks in &RANKS {
        let h = hash_cost(&w, ranks, &m);
        let p = planned_cost(&w, ranks, &m);
        println!(
            "model  @ {ranks:>5} ranks: hash {:.0} msgs / {:.4} s, planned {:.0} msgs / {:.4} s",
            h.messages, h.seconds, p.messages, p.seconds
        );
        if ranks >= 1024 && p.seconds >= h.seconds {
            planned_wins_at_scale = false;
        }
        let cost = |c: &CommCost| {
            Json::obj([
                ("bytes", c.bytes.into()),
                ("messages", c.messages.into()),
                ("seconds", c.seconds.into()),
            ])
        };
        scales.push(Json::obj([
            ("ranks", ranks.into()),
            ("hash", cost(&h)),
            ("planned", cost(&p)),
        ]));
    }
    let workload = Json::obj([
        ("aligned_put_bytes", w.aligned_put_bytes.into()),
        ("broadcast_bytes", w.broadcast_bytes.into()),
        ("broadcast_blocks", w.broadcast_blocks.into()),
        ("other_bytes", w.other_bytes.into()),
    ]);
    let report = Json::obj([
        ("workers_planned", WORKERS.into()),
        ("workload", workload),
        ("machine", m.name.into()),
        ("scales", Json::Arr(scales)),
    ]);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scaling.json");
    match fs::write(&path, report.to_string()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    if assert_mode {
        if !planned_wins_at_scale {
            eprintln!("FAIL: modeled planned time does not beat hash at ≥ 1024 ranks");
            return ExitCode::FAILURE;
        }
        println!("assertions passed");
    }
    ExitCode::SUCCESS
}
