//! Strong-scaling comparison of hash vs planned placement: runs the
//! broadcast-shaped workload for real at small scale (measured fabric
//! message/byte counts under both placements), then extrapolates the
//! planner's byte classes through the analytic `comm_model` at simulated
//! rank counts up to 16k. Writes `BENCH_scaling.json` at the repo root.
//!
//! ```text
//! cargo run --release -p sia-bench --bin bench_scaling [-- --assert]
//! ```
//!
//! With `--assert` the bin exits nonzero unless (a) the planned placement
//! moves no more fabric messages than hash in the real run and (b) the
//! modeled planned time beats hash at every simulated scale ≥ 1024 ranks —
//! the CI smoke gate.

use sia_runtime::json::Json;
use sia_runtime::{Placement, RunOutput, Sip, SipConfig};
use sia_sim::machine;
use sia_sim::{hash_cost, planned_cost, CommCost, CommWorkload};
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

/// A broadcast-heavy contraction shape: `F(M)` is indexed by a strict
/// subset of the pardo indices, so every worker re-reads the same blocks
/// across its `N` iterations — the pattern the multicast schedule targets.
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

fn config(placement: Placement) -> SipConfig {
    SipConfig::builder()
        .workers(WORKERS)
        .io_servers(0)
        .segment_size(SEG)
        .placement(placement)
        .build()
        .unwrap()
}

fn run(placement: Placement) -> RunOutput {
    let program = sial_frontend::compile(PROGRAM).unwrap();
    let mut bindings = sia_bytecode::ConstBindings::new();
    bindings.insert("n".into(), N);
    Sip::new(config(placement)).run(program, &bindings).unwrap()
}

fn main() -> ExitCode {
    let assert_mode = std::env::args().any(|a| a == "--assert");

    // ---- measured: the same program under both placements ------------------
    let hash_out = run(Placement::Hash);
    let planned_out = run(Placement::Planned);
    let (hm, pm) = (hash_out.traffic.messages, planned_out.traffic.messages);
    let reduction = 1.0 - pm as f64 / hm.max(1) as f64;
    println!(
        "measured @ {WORKERS} workers: hash {hm} msgs / {} B, planned {pm} msgs / {} B \
         ({:.1}% fewer messages)",
        hash_out.traffic.bytes,
        planned_out.traffic.bytes,
        reduction * 100.0
    );

    // ---- modeled: extrapolate the plan's byte classes -----------------------
    let program = sial_frontend::compile(PROGRAM).unwrap();
    let mut bindings = sia_bytecode::ConstBindings::new();
    bindings.insert("n".into(), N);
    let (_, plan) = Sip::new(config(Placement::Planned))
        .plan(program, &bindings)
        .unwrap();
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
        ("workers_measured", WORKERS.into()),
        ("measured_hash_messages", hm.into()),
        ("measured_planned_messages", pm.into()),
        ("measured_message_reduction", reduction.into()),
        ("measured_hash_bytes", hash_out.traffic.bytes.into()),
        ("measured_planned_bytes", planned_out.traffic.bytes.into()),
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
        if pm > hm {
            eprintln!("FAIL: planned placement sent more messages than hash ({pm} > {hm})");
            return ExitCode::FAILURE;
        }
        if reduction < 0.30 {
            eprintln!(
                "FAIL: planned message reduction {:.1}% below the 30% bar",
                reduction * 100.0
            );
            return ExitCode::FAILURE;
        }
        if !planned_wins_at_scale {
            eprintln!("FAIL: modeled planned time does not beat hash at ≥ 1024 ranks");
            return ExitCode::FAILURE;
        }
        println!("assertions passed");
    }
    ExitCode::SUCCESS
}
