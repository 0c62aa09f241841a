//! Time is a deadline, not a poll: a rank blocks until its next message or
//! its next due timer, and a fault-free rank holds no timer at all. Counted
//! from outside through `RunOutput::traffic_per_rank[..].deadline_wakeups` —
//! the blocking receives that ended on their deadline instead of a message.

use sia::chem::register_integrals;
use sia::{ConstBindings, FaultConfig, FaultPlan, RunOutput, Sip, SipConfig, SuperRegistry};

const SERVED: &str = "sial served_rt
aoindex i = 1, n
aoindex j = 1, n
served V(i,j)
distributed X(i,j)
temp t(i,j)
temp u(i,j)
pardo i, j
  t(i,j) = 100.0 * i + j
  prepare V(i,j) = t(i,j)
endpardo i, j
server_barrier
pardo i, j
  request V(i,j)
  u(i,j) = V(i,j)
  put X(i,j) = u(i,j)
endpardo i, j
sip_barrier
endsial
";

fn run(src: &str, binds: &[(&str, i64)], fault: Option<FaultConfig>) -> RunOutput {
    let mut config = SipConfig::builder()
        .workers(2)
        .io_servers(1)
        .segment_size(4)
        .server_cache_blocks(2) // force disk traffic
        .collect_distributed(true);
    if let Some(f) = fault {
        config = config.fault(f);
    }
    let mut registry = SuperRegistry::new();
    register_integrals(&mut registry, 4, 2);
    let bindings: ConstBindings = binds.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    Sip::new(config.build().unwrap())
        .with_registry(registry)
        .run(sial_frontend::compile(src).unwrap(), &bindings)
        .unwrap()
}

fn contraction(fault: Option<FaultConfig>) -> RunOutput {
    let src = include_str!("../programs/contraction.sial");
    run(src, &[("norb", 4), ("nocc", 2)], fault)
}

/// Every collected block, bit for bit.
fn block_bits(out: &RunOutput) -> Vec<(&String, &Vec<i64>, Vec<u64>)> {
    let arrays = out.collected.iter();
    arrays
        .flat_map(|(name, blocks)| {
            blocks.iter().map(move |(segs, block)| {
                let bits = block.data().iter().map(|x| x.to_bits()).collect();
                (name, segs, bits)
            })
        })
        .collect()
}

/// Fault-free, nothing but a message moves the master or a worker; the I/O
/// server's only timer is write-behind, and each expiry of it is one flush.
#[test]
fn fault_free_ranks_never_wake_for_a_timer() {
    let served = run(SERVED, &[("n", 4)], None);
    assert!(served.profile.metrics.server.disk_writes > 0);
    for out in [contraction(None), served] {
        let (server, compute) = out.traffic_per_rank.split_last().unwrap();
        for (rank, t) in compute.iter().enumerate() {
            assert_eq!(t.deadline_wakeups, 0, "rank {rank} woke for a timer");
        }
        let flushes = out.profile.metrics.server.disk_writes;
        assert!(
            server.deadline_wakeups <= flushes + 1,
            "I/O server: {} timer wake-ups for {flushes} flushes",
            server.deadline_wakeups
        );
    }
}

/// Arming fault tolerance on a perfect fabric changes no bit of the result,
/// and the only timer it adds is the retry clock: a rank wakes on a deadline
/// only to resend, however long the run takes.
#[test]
fn armed_fault_tolerance_holds_only_the_retry_clock() {
    let clean = contraction(None);
    let armed = contraction(Some(FaultConfig::new(FaultPlan::seeded(1))));

    assert_eq!(block_bits(&clean), block_bits(&armed));
    assert_eq!(armed.profile.metrics.fabric.perturbed(), 0);
    let retries = armed.profile.metrics.fault.retries();
    for (rank, t) in armed.traffic_per_rank.iter().enumerate() {
        assert!(
            t.deadline_wakeups <= retries,
            "rank {rank}: {} timer wake-ups for {retries} retries",
            t.deadline_wakeups
        );
    }
}
