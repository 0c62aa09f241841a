//! Placement tests: distributed blocks live in slabs of block ordinals and
//! the master hands an iteration to the worker homing the block it writes,
//! or in a pardo that writes none, the block it reads (owner-compute). That must be invisible in the results — collected
//! blocks and scalars bitwise-identical to the same program on one worker,
//! where every block is homed and read locally — must keep aligned puts
//! off the fabric, and the fault machinery (retry, dedup, crash recovery)
//! must hold with envelope batching active.
//!
//! Values in these programs are small integers scaled by powers of two, so
//! every sum is exact in f64 regardless of the order the schedule produces
//! — any bitwise deviation is a real protocol bug.

use proptest::prelude::*;
use sia_bytecode::{ConstBindings, Instruction};
use sia_runtime::{CrashSchedule, EventKind, FaultConfig, FaultPlan, RunOutput, Sip, SipConfig};

/// `F(M)` is indexed by a strict subset of the `pardo M, N` indices: every
/// worker needs each F block once per N-column — the broadcast shape.
const BCAST: &str = "sial bcast
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
sip_barrier
endsial
";

/// Contraction shape with a do-loop get (not broadcast-shaped) plus a
/// pardo-aligned put (the owner-compute affinity path) and a scalar
/// reduction.
const CONTRACT: &str = "sial ctr
aoindex M = 1, n
aoindex N = 1, n
aoindex L = 1, n
distributed T(L,N)
distributed R(M,N)
temp t(L,N)
temp v(M,L)
temp p(M,N)
temp acc(M,N)
scalar rnorm
pardo L, N
t(L,N) = L + 10.0 * N
put T(L,N) = t(L,N)
endpardo L, N
sip_barrier
pardo M, N
acc(M,N) = 0.0
do L
get T(L,N)
v(M,L) = 2.0
p(M,N) = v(M,L) * T(L,N)
acc(M,N) += p(M,N)
enddo L
put R(M,N) = acc(M,N)
endpardo M, N
sip_barrier
pardo M, N
get R(M,N)
rnorm += R(M,N) * R(M,N)
endpardo M, N
sip_barrier
execute sip_allreduce rnorm
endsial
";

fn config(workers: usize, seg: usize) -> SipConfig {
    SipConfig::builder()
        .workers(workers)
        .io_servers(0)
        .segment_size(seg)
        .collect_distributed(true)
        .build()
        .unwrap()
}

fn run(src: &str, n: i64, config: SipConfig) -> RunOutput {
    let program = sial_frontend::compile(src).unwrap();
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
    assert_eq!(
        a.scalars.keys().collect::<Vec<_>>(),
        b.scalars.keys().collect::<Vec<_>>()
    );
    for (name, v) in &a.scalars {
        assert_eq!(
            v.to_bits(),
            b.scalars[name].to_bits(),
            "scalar {name}: {} vs {}",
            v,
            b.scalars[name]
        );
    }
}

#[test]
fn multi_worker_matches_one_worker_bitwise_on_broadcast_shape() {
    let one = run(BCAST, 8, config(1, 4));
    let four = run(BCAST, 8, config(4, 4));
    assert_bitwise_equal(&one, &four);
}

#[test]
fn multi_worker_matches_one_worker_bitwise_on_contraction() {
    let one = run(CONTRACT, 6, config(1, 3));
    let three = run(CONTRACT, 6, config(3, 3));
    // All values are exact integers in f64, so the reduction is
    // order-independent: n=6 seg=3 gives ‖R‖² = 744874704 exactly.
    assert_eq!(one.scalars["rnorm"], 744_874_704.0);
    assert_bitwise_equal(&one, &three);
}

/// `putget_fine`'s shape at n = 32: a fill, then ten repetitions of a
/// transposed get, copy and put of every block, and a block dot.
const PUTGET: &str = "sial putget
aoindex i = 1, n
aoindex j = 1, n
index r = 1, reps
distributed A(i,j)
distributed B(i,j)
temp t(i,j)
temp u(i,j)
scalar total
pardo i, j
  t(i,j) = 0.5 * i + 0.25 * j
  put A(i,j) = t(i,j)
endpardo i, j
sip_barrier
do r
  pardo i, j
    get A(j,i)
    u(i,j) = A(j,i)
    put B(i,j) = u(i,j)
  endpardo i, j
  sip_barrier
  pardo i, j
    get B(i,j)
    total += B(i,j) * B(i,j)
  endpardo i, j
  sip_barrier
enddo r
execute sip_allreduce total
endsial
";

/// The pcs of `src`'s pardos, in program order.
fn pardo_pcs(src: &str) -> Vec<u32> {
    let program = sial_frontend::compile(src).unwrap();
    (program.code.iter().enumerate())
        .filter(|(_, ins)| matches!(ins, Instruction::PardoStart { .. }))
        .map(|(pc, _)| pc as u32)
        .collect()
}

/// The iterations a traced run's master granted for the pardos at `pcs`,
/// and how many of them it stole from another worker's bucket.
fn granted(out: &RunOutput, pcs: &[u32]) -> (u64, u64) {
    let trace = out.trace.as_ref().expect("a traced run");
    let (mut iterations, mut stolen) = (0, 0);
    for e in trace.ranks.iter().flat_map(|r| &r.events) {
        if let EventKind::Grant {
            pc,
            iterations: n,
            stolen: s,
            ..
        } = e.kind
        {
            if pcs.contains(&pc) {
                iterations += u64::from(n);
                stolen += u64::from(s);
            }
        }
    }
    (iterations, stolen)
}

/// Owner-compute: the master hands each iteration of `pardo i, j { …; put
/// X(i,j) }` to the worker homing `X(i,j)`, so the put stays local. The
/// only remote puts are those of iterations stolen from the other worker's
/// bucket to balance the tail, which the master's grant events count; of
/// the 11 264 aligned puts on two workers (1 024 fill + 10 × 1 024 copies)
/// at most 15 % cross the fabric.
#[test]
fn owner_compute_keeps_aligned_puts_local() {
    let program = sial_frontend::compile(PUTGET).unwrap();
    let bindings: ConstBindings = [("n".to_string(), 32), ("reps".to_string(), 10)].into();
    let config = SipConfig::builder()
        .workers(2)
        .io_servers(0)
        .segment_size(4)
        .trace(true)
        .build()
        .unwrap();
    let out = Sip::new(config).run(program, &bindings).unwrap();
    // The fill and the copy sweep anchor on their puts; the read sweep
    // puts nothing.
    let pardos = pardo_pcs(PUTGET);
    let (iterations, stolen) = granted(&out, &pardos[..2]);
    let aligned_puts = 32 * 32 * 11;
    assert_eq!(iterations, aligned_puts, "the grants cover every put");
    let remote = out.profile.metrics.comm.puts_acked;
    assert!(
        remote <= stolen,
        "{remote} remote puts, {stolen} stolen iterations"
    );
    assert!(
        remote as f64 <= 0.15 * aligned_puts as f64,
        "{remote} of {aligned_puts} aligned puts went remote"
    );
    assert!(
        out.profile.metrics.plan.coalesced_messages > 0,
        "envelope batching must coalesce staged fetches: {:?}",
        out.profile.metrics.plan
    );
}

/// A fill, then twenty repetitions of a sweep that only reads.
const READ_SWEEP: &str = "sial readsweep
aoindex i = 1, n
aoindex j = 1, n
index r = 1, 20
distributed X(i,j)
temp t(i,j)
scalar total
pardo i, j
  t(i,j) = 0.5 * i + 0.25 * j
  put X(i,j) = t(i,j)
endpardo i, j
sip_barrier
do r
  pardo i, j
    get X(i,j)
    total += X(i,j) * X(i,j)
  endpardo i, j
  sip_barrier
enddo r
execute sip_allreduce total
endsial
";

/// A pardo that puts no distributed array anchors its affinity on its
/// aligned `get X(i,j)`: each iteration runs where its block lives, so the
/// only remote reads are those of iterations stolen from the other
/// worker's bucket, which the master's grant events count. Of the 20 480
/// reads on two workers at most 15 % cross the fabric: 1–10 % in 40 runs
/// beside the other placement tests. A worker descheduled at a sweep's
/// tail loses much of that sweep to steals, so twenty sweeps, not one,
/// decide the share.
#[test]
fn owner_compute_keeps_aligned_reads_local() {
    let traced = SipConfig::builder()
        .workers(2)
        .io_servers(0)
        .segment_size(4)
        .collect_distributed(true)
        .trace(true)
        .build()
        .unwrap();
    let out = run(READ_SWEEP, 32, traced);
    let (iterations, stolen) = granted(&out, &pardo_pcs(READ_SWEEP)[1..]);
    let sweep_iterations = 20 * 32 * 32;
    assert_eq!(iterations, sweep_iterations, "the grants cover every sweep");
    // The fill only puts: every fetch of the run is the sweeps'.
    let fetches = out.profile.metrics.comm.fetches;
    assert!(
        fetches <= stolen,
        "{fetches} fetches, {stolen} stolen iterations"
    );
    assert!(
        fetches as f64 <= 0.15 * sweep_iterations as f64,
        "{fetches} of {sweep_iterations} aligned reads went remote"
    );
    assert_bitwise_equal(&run(READ_SWEEP, 32, config(1, 4)), &out);
}

/// Seeded drops/dups/delays with batching active: dropped fetches retry,
/// batched envelopes retry as units, and per-message OpId dedup still
/// suppresses duplicates — the collected result stays bitwise-exact under
/// every seed.
///
/// How many faultable envelopes a rank sends depends on thread timing, and
/// a 9 % plan can leave the handful of one small run untouched (0xCAFE's
/// streams perturb nothing before a worker's fourth send), so the "it
/// really was perturbed" half is asserted over the list: the other seeds
/// perturb the first faultable envelope any worker sends.
#[test]
fn planned_placement_survives_seeded_faults_bitwise() {
    let clean = run(BCAST, 8, config(3, 4));

    let mut perturbed = 0;
    for seed in [0xCAFE, 0xD477, 0xD488, 0xD9B3] {
        let mut plan = FaultPlan::seeded(seed);
        plan.drop = 0.05;
        plan.duplicate = 0.02;
        plan.delay = 0.02;
        let cfg = SipConfig::builder()
            .workers(3)
            .io_servers(0)
            .segment_size(4)
            .collect_distributed(true)
            .fault(FaultConfig::new(plan))
            .build()
            .unwrap();
        let faulty = run(BCAST, 8, cfg);
        assert_bitwise_equal(&clean, &faulty);
        perturbed += faulty.profile.metrics.fabric.perturbed();
    }
    assert!(
        perturbed > 0,
        "the plans must actually have perturbed traffic"
    );
}

/// A worker crash mid-pardo: the dead rank's homes re-hash to survivors and
/// the master requeues its chunks, acknowledged ones included — still
/// exact.
#[test]
fn planned_placement_survives_worker_crash_bitwise() {
    let clean = run(BCAST, 8, config(3, 4));

    let mut plan = FaultPlan::seeded(0x5EEDED);
    plan.drop = 0.03;
    let mut fault = FaultConfig::new(plan);
    fault.crash = Some(CrashSchedule {
        worker: 1,
        after_iterations: 3,
    });
    let cfg = SipConfig::builder()
        .workers(3)
        .io_servers(0)
        .segment_size(4)
        .collect_distributed(true)
        .fault(fault)
        .build()
        .unwrap();
    let faulty = run(BCAST, 8, cfg);

    assert_bitwise_equal(&clean, &faulty);
    assert_eq!(faulty.profile.metrics.recovery.ranks_died, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary problem sizes, worker counts, and segment sizes, the
    /// run is observationally identical to one worker's — bitwise on every
    /// collected block and scalar.
    #[test]
    fn multi_worker_equals_one_worker_for_arbitrary_shapes(
        n in 2i64..10,
        workers in 1usize..5,
        seg in 2usize..5,
    ) {
        let one = run(BCAST, n, config(1, seg));
        let many = run(BCAST, n, config(workers, seg));
        assert_bitwise_equal(&one, &many);
    }
}
