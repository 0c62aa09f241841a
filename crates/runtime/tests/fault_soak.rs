//! Fault-injection soak tests: seeded fabric faults plus a scheduled worker
//! crash must not change program results, and a killed served-array run must
//! resume from its epoch manifest.
//!
//! The soak program uses only `put =` (Replace) into unique keys, so its
//! collected output is bitwise-deterministic even fault-free — any deviation
//! under faults is a real retry/recovery bug, not floating-point reordering.
//! It fills `X(i,j)`, then copies it transposed into `Y(i,j)` through `get
//! X(j,i)`. Every put is aligned with its iteration, so owner-compute keeps
//! it on the rank; the gets are what crosses the fabric, where the faults
//! are. They also make each worker's second pardo wait on the others'
//! replies, so the worker a crash schedule names runs its iterations
//! instead of idling while two others drain a pardo of local puts.

use sia_bytecode::ConstBindings;
use sia_runtime::{CrashSchedule, FaultConfig, FaultPlan, RunOutput, Sip, SipConfig};

const SOAK: &str = "sial soak
aoindex i = 1, n
aoindex j = 1, n
distributed X(i,j)
distributed Y(i,j)
temp t(i,j)
temp u(i,j)
pardo i, j
  t(i,j) = 100.0 * i + j
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
";

fn soak_config(n_workers: usize, fault: Option<FaultConfig>) -> SipConfig {
    let mut b = SipConfig::builder()
        .workers(n_workers)
        .io_servers(0)
        .segment_size(4)
        .collect_distributed(true);
    if let Some(f) = fault {
        b = b.fault(f);
    }
    b.build().unwrap()
}

fn run_soak(n: i64, config: SipConfig) -> RunOutput {
    let program = sial_frontend::compile(SOAK).unwrap();
    let bindings: ConstBindings = [("n".to_string(), n)].into_iter().collect();
    Sip::new(config).run(program, &bindings).unwrap()
}

fn assert_bitwise_equal(a: &RunOutput, b: &RunOutput) {
    assert_eq!(
        a.collected.keys().collect::<Vec<_>>(),
        b.collected.keys().collect::<Vec<_>>()
    );
    for (name, blocks) in &a.collected {
        let other = &b.collected[name];
        assert_eq!(blocks.len(), other.len(), "{name}: block count");
        for (key, block) in blocks {
            let ob = &other[key];
            let bits: Vec<u64> = block.data().iter().map(|x| x.to_bits()).collect();
            let obits: Vec<u64> = ob.data().iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, obits, "{name}{key:?}: bitwise mismatch");
        }
    }
}

/// Drops, duplicates, and delays at a few percent each: retries and dedup
/// must reconstruct the exact fault-free answer.
#[test]
fn seeded_fault_plan_preserves_results_bitwise() {
    let clean = run_soak(6, soak_config(3, None));

    let mut plan = FaultPlan::seeded(0xC0FFEE);
    plan.drop = 0.05;
    plan.duplicate = 0.02;
    plan.delay = 0.02;
    let faulty = run_soak(6, soak_config(3, Some(FaultConfig::new(plan))));

    assert_bitwise_equal(&clean, &faulty);
    assert!(
        faulty.profile.metrics.fabric.perturbed() > 0,
        "the plan must actually have perturbed traffic: {:?}",
        faulty.profile.metrics.fabric
    );
    // Which envelopes the plan hits depends on who was granted which chunk:
    // a duplicated ack or a delay asks nothing of anybody (1–4 % of runs
    // perturb nothing else), but a drop is always answered by a retry.
    assert!(
        faulty.profile.metrics.fabric.dropped == 0 || faulty.profile.metrics.fault.retries() > 0,
        "a dropped message must be retried: {:?} {:?}",
        faulty.profile.metrics.fabric,
        faulty.profile.metrics.fault
    );
}

/// One worker dies mid-pardo on top of a lossy fabric: the master requeues
/// its unacked chunks to survivors and the result is still bitwise-exact.
#[test]
fn worker_crash_mid_pardo_recovers_bitwise() {
    let clean = run_soak(6, soak_config(3, None));

    let mut plan = FaultPlan::seeded(0xBAD5EED);
    plan.drop = 0.03;
    let mut fault = FaultConfig::new(plan);
    fault.crash = Some(CrashSchedule {
        worker: 1,
        after_iterations: 3,
    });
    let faulty = run_soak(6, soak_config(3, Some(fault)));

    assert_bitwise_equal(&clean, &faulty);
    assert_eq!(faulty.profile.metrics.recovery.ranks_died, 1);
    assert!(
        faulty.profile.metrics.recovery.requeued_chunks >= 1,
        "the corpse's unacked chunk must be requeued: {:?}",
        faulty.profile.metrics.recovery
    );
    assert!(
        faulty.profile.metrics.fabric.crashed,
        "fabric must record the kill"
    );
}

/// The fabric delivers everything and one worker dies: the master learns of
/// the death from the fabric's verdict, not by waiting out a silence, so the
/// only thing that can end one of its receives on a deadline is the resend
/// of its restore flight — never a function of how long the run took.
#[test]
fn a_crash_is_detected_without_a_clock() {
    let clean = run_soak(6, soak_config(3, None));

    let mut fault = FaultConfig::new(FaultPlan::seeded(7));
    fault.crash = Some(CrashSchedule {
        worker: 1,
        after_iterations: 3,
    });
    let faulty = run_soak(6, soak_config(3, Some(fault)));

    assert_bitwise_equal(&clean, &faulty);
    assert_eq!(faulty.profile.metrics.fabric.perturbed(), 0);
    let recovery = &faulty.profile.metrics.recovery;
    assert_eq!(recovery.ranks_died, 1);
    assert!(recovery.requeued_chunks >= 1, "{recovery:?}");
    let master = &faulty.traffic_per_rank[0];
    assert!(
        master.deadline_wakeups <= recovery.restore_resends,
        "master: {} timer wake-ups for {} restore resends",
        master.deadline_wakeups,
        recovery.restore_resends
    );
}

/// A drop-only plan (no crash scheduled) over a program with accumulates:
/// values are checked numerically since accumulate ordering is not bitwise
/// stable, and no rank may be declared dead.
#[test]
fn lossy_fabric_with_accumulates_sums_exactly() {
    let src = "sial acc
aoindex i = 1, n
aoindex k = 1, 1
distributed X(k,k)
temp one(k,k)
pardo i, k
  one(k,k) = 0.25
  put X(k,k) += one(k,k)
endpardo i, k
sip_barrier
endsial
";
    let program = sial_frontend::compile(src).unwrap();
    let bindings: ConstBindings = [("n".to_string(), 10i64)].into_iter().collect();
    let mut plan = FaultPlan::seeded(42);
    plan.drop = 0.05;
    plan.duplicate = 0.03;
    let config = SipConfig::builder()
        .workers(2)
        .io_servers(0)
        .segment_size(2)
        .collect_distributed(true)
        .fault(FaultConfig::new(plan))
        .build()
        .unwrap();
    let out = Sip::new(config).run(program, &bindings).unwrap();
    let block = &out.collected["X"][&vec![1, 1]];
    // 10 contributions of 0.25 each; duplicated puts must be suppressed,
    // dropped puts retried — the sum is exact in binary floating point.
    assert!(
        block.data().iter().all(|&x| x == 2.5),
        "got {:?}",
        &block.data()[..2.min(block.data().len())]
    );
    assert_eq!(out.profile.metrics.recovery.ranks_died, 0);
}
