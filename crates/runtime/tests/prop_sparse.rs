//! Property tests for block-sparse arrays: a sparse declaration at threshold
//! zero stores bitwise-identical blocks to a dense one; a positive threshold
//! loses at most the screened norm bounds; and fabric faults (drops,
//! duplicates, delays) must neither resurrect a dropped block nor change
//! results.
//!
//! The fill uses strictly positive per-block values, so "skipped" and
//! "computed-as-zero" are the only two outcomes a contraction can have —
//! there is no `-0.0` ambiguity to excuse a bitwise mismatch with.

use proptest::prelude::*;
use sia_bytecode::ConstBindings;
use sia_runtime::{FaultConfig, FaultPlan, RunOutput, Sip, SipConfig};

/// Multi-worker `total +=` reductions pick up pardo chunks dynamically, so
/// the summation order — and hence the last ulp of the scalar — varies from
/// run to run even for a dense program. Block payloads stay bitwise
/// deterministic (each is a pure function of its key), so the strong
/// assertions below compare blocks by bits and scalars to within
/// summation-reorder noise.
const REORDER_EPS: f64 = 1e-12;

/// Bitwise comparison of every collected block: same key sets, same payload
/// bits. This is the property typed absence must preserve — which blocks
/// exist and exactly what they hold.
fn assert_blocks_bitwise_equal(a: &RunOutput, b: &RunOutput) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        a.collected.keys().collect::<Vec<_>>(),
        b.collected.keys().collect::<Vec<_>>()
    );
    for (name, blocks) in &a.collected {
        let other = &b.collected[name];
        prop_assert_eq!(
            blocks.keys().collect::<Vec<_>>(),
            other.keys().collect::<Vec<_>>(),
            "{}: resident-block sets differ",
            name
        );
        for (key, block) in blocks {
            let bits: Vec<u64> = block.data().iter().map(|x| x.to_bits()).collect();
            let obits: Vec<u64> = other[key].data().iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(bits, obits, "{}{:?}: bitwise mismatch", name, key);
        }
    }
    Ok(())
}

/// Fills `A(i,k)` with per-block values `1/(i·i·k·k)` — a decaying, strictly
/// positive pattern where far blocks fall under small thresholds — then
/// reduces `Σ A·A` through the contraction path.
fn sparse_src(sparse: bool) -> String {
    let decl = if sparse {
        "sparse distributed"
    } else {
        "distributed"
    };
    format!(
        "sial sp\n\
         aoindex i = 1, n\n\
         aoindex k = 1, n\n\
         {decl} A(i,k)\n\
         temp t(i,k)\n\
         scalar total\n\
         pardo i, k\n\
           t(i,k) = 1.0 / (i * i * k * k)\n\
           put A(i,k) = t(i,k)\n\
         endpardo i, k\n\
         sip_barrier\n\
         pardo i, k\n\
           get A(i,k)\n\
           total += A(i,k) * A(i,k)\n\
         endpardo i, k\n\
         sip_barrier\n\
         execute sip_allreduce total\n\
         endsial\n"
    )
}

fn run(src: &str, n: i64, workers: usize, threshold: f64, fault: Option<FaultConfig>) -> RunOutput {
    let program = sial_frontend::compile(src).unwrap();
    let bindings: ConstBindings = [("n".to_string(), n)].into_iter().collect();
    let mut b = SipConfig::builder()
        .workers(workers)
        .io_servers(0)
        .segment_size(2)
        .collect_distributed(true)
        .sparsity_threshold(threshold);
    if let Some(f) = fault {
        b = b.fault(f);
    }
    Sip::new(b.build().unwrap())
        .run(program, &bindings)
        .unwrap()
}

/// A broadcast-shaped sparse operand: `F(i)` is read by every `k`, so each
/// worker fetches it from its home — present blocks as data replies,
/// screened-absent blocks as norm records, staged to the same consumers and
/// coalesced into shared `Batch` envelopes.
fn broadcast_src() -> String {
    "sial mb\n\
     aoindex i = 1, n\n\
     aoindex k = 1, n\n\
     sparse distributed F(i)\n\
     temp t(i)\n\
     scalar total\n\
     pardo i\n\
       t(i) = 1.0 / (i * i * i * i)\n\
       put F(i) = t(i)\n\
     endpardo i\n\
     sip_barrier\n\
     pardo i, k\n\
       get F(i)\n\
       total += F(i) * F(i)\n\
     endpardo i, k\n\
     sip_barrier\n\
     execute sip_allreduce total\n\
     endsial\n"
        .to_string()
}

/// The 2-D cousin of [`broadcast_src`]: `F(i,j)` blocks carry seg² doubles,
/// so payload bytes dominate control-message noise — the shape the traffic
/// pin below needs to measure byte savings without flapping.
fn broadcast2_src() -> String {
    "sial mb2\n\
     aoindex i = 1, n\n\
     aoindex j = 1, n\n\
     aoindex k = 1, n\n\
     sparse distributed F(i,j)\n\
     temp t(i,j)\n\
     scalar total\n\
     pardo i, j\n\
       t(i,j) = 1.0 / ((i * i + j * j) * (i * i + j * j))\n\
       put F(i,j) = t(i,j)\n\
     endpardo i, j\n\
     sip_barrier\n\
     pardo i, j, k\n\
       get F(i,j)\n\
       total += F(i,j) * F(i,j)\n\
     endpardo i, j, k\n\
     sip_barrier\n\
     execute sip_allreduce total\n\
     endsial\n"
        .to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At threshold zero the sparse kind is a pure representation change:
    /// every stored block is bitwise-equal to the dense declaration's, for
    /// any size and worker count, and with one worker (deterministic chunk
    /// order) the reduced scalar matches bit-for-bit too.
    #[test]
    fn threshold_zero_is_bitwise_dense(n in 2i64..7, workers in 1usize..4) {
        let dense = run(&sparse_src(false), n, workers, 0.0, None);
        let sparse = run(&sparse_src(true), n, workers, 0.0, None);
        assert_blocks_bitwise_equal(&dense, &sparse)?;
        let (d, s) = (dense.scalars["total"], sparse.scalars["total"]);
        if workers == 1 {
            prop_assert_eq!(d.to_bits(), s.to_bits(), "dense {} vs sparse {}", d, s);
        } else {
            prop_assert!((d - s).abs() <= REORDER_EPS, "dense {d} vs sparse {s}");
        }
    }

    /// A positive threshold loses at most one norm-bound per block pair:
    /// each dropped put forfeits under `t²` of the reduction, each skipped
    /// contraction under `t` (Cauchy–Schwarz), so the dense/sparse gap is
    /// bounded by `blocks · t`.
    #[test]
    fn positive_threshold_error_is_bounded(
        n in 2i64..7,
        workers in 1usize..4,
        threshold in prop::sample::select(vec![1e-6, 1e-4, 1e-2]),
    ) {
        let dense = run(&sparse_src(true), n, workers, 0.0, None);
        let sparse = run(&sparse_src(true), n, workers, threshold, None);
        let blocks = dense.collected["A"].len() as f64;
        let gap = (dense.scalars["total"] - sparse.scalars["total"]).abs();
        prop_assert!(
            gap <= blocks * threshold + 1e-15,
            "gap {gap} exceeds {blocks} blocks × threshold {threshold}"
        );
        // Sparse totals never exceed dense ones here: screening only
        // removes strictly positive contributions.
        prop_assert!(sparse.scalars["total"] <= dense.scalars["total"] + 1e-15);
    }

    /// Seeded fabric faults against a screening run: retries and duplicate
    /// deliveries must not resurrect a dropped block (the home re-screens
    /// every redelivered payload) and must not change the reduction.
    #[test]
    fn faults_do_not_resurrect_dropped_blocks(
        n in 3i64..6,
        seed in 1u64..65,
    ) {
        let threshold = 1e-3;
        let clean = run(&sparse_src(true), n, 3, threshold, None);
        let mut plan = FaultPlan::seeded(seed);
        plan.drop = 0.05;
        plan.duplicate = 0.05;
        plan.delay = 0.02;
        let faulty = run(
            &sparse_src(true), n, 3, threshold, Some(FaultConfig::new(plan)),
        );
        assert_blocks_bitwise_equal(&clean, &faulty)?;
        let (c, f) = (clean.scalars["total"], faulty.scalars["total"]);
        prop_assert!(
            (c - f).abs() <= REORDER_EPS,
            "faults changed the screened reduction: clean {c} vs faulty {f}"
        );
    }

    /// Regression: batched absent/real interleavings. A sparse
    /// broadcast operand's homes answer with real payloads and
    /// typed-absent norm records through the same staged envelopes; seeded
    /// drops, duplicates, and delays then retry fetches and deliver
    /// duplicate and late replies (a late-flushed `Batch`, a delayed
    /// duplicate). A norm record must never supersede a payload already
    /// cached — if it did, consumers would read absent-zero for a present
    /// block and the reduction would drift far beyond summation-reorder
    /// noise.
    #[test]
    fn batched_absent_real_interleavings_keep_payloads(
        n in 4i64..9,
        seed in 1u64..49,
    ) {
        let threshold = 1e-2;
        let src = broadcast_src();
        let clean = run(&src, n, 3, threshold, None);
        let mut plan = FaultPlan::seeded(seed);
        plan.drop = 0.05;
        plan.duplicate = 0.10;
        plan.delay = 0.10;
        plan.max_delay_ops = 8;
        let faulty = run(&src, n, 3, threshold, Some(FaultConfig::new(plan)));
        assert_blocks_bitwise_equal(&clean, &faulty)?;
        let (c, f) = (clean.scalars["total"], faulty.scalars["total"]);
        prop_assert!(
            (c - f).abs() <= REORDER_EPS,
            "interleaved absent/real delivery changed the reduction: clean {c} vs faulty {f}"
        );
        // The same program on one worker, where every block is homed and
        // read locally, is the ground truth both must match.
        let one = run(&src, n, 1, threshold, None);
        assert_blocks_bitwise_equal(&one, &clean)?;
        prop_assert!((one.scalars["total"] - c).abs() <= REORDER_EPS);
    }
}

/// Regression pin: on the screened broadcast shape, the homes answer
/// fetches of screened blocks with norm records instead of full payloads:
/// the consumers credit the bytes they did not pull, the run ships fewer
/// bytes than the unscreened one, and the result matches one worker's.
#[test]
fn screened_broadcast_ships_norm_records_not_payloads() {
    // The 2-D operand: enough blocks (and enough bytes per block) that the
    // data-path savings dominate control-message noise — chunk grants vary
    // a little with worker interleaving run to run, so a pin on a shape
    // with a few-dozen-byte margin would flip sign.
    let n = 8;
    let threshold = 1e-2;
    let src = broadcast2_src();
    let one = run(&src, n, 1, threshold, None);
    let screened = run(&src, n, 3, threshold, None);
    assert_blocks_bitwise_equal(&one, &screened).unwrap();
    assert!(
        (one.scalars["total"] - screened.scalars["total"]).abs() <= REORDER_EPS,
        "the worker count changed the screened reduction"
    );
    // Screening must actually fire on this shape: consumers that learned of
    // an absence credit the bytes they did not have to pull.
    let sp = &screened.profile.metrics.sparse;
    assert!(
        sp.bytes_not_shipped > 0,
        "screened broadcast shipped every block: {sp:?}"
    );
    let unscreened = run(&src, n, 3, 0.0, None);
    assert!(
        screened.traffic.bytes < unscreened.traffic.bytes,
        "absent records should cut fetched bytes: screened {} vs unscreened {}",
        screened.traffic.bytes,
        unscreened.traffic.bytes
    );
}

/// Deterministic spot check: with the decaying fill, a mid-range threshold
/// really does drop blocks (the property tests above would pass vacuously
/// if screening never fired).
#[test]
fn screening_actually_fires() {
    let n = 6;
    let dense = run(&sparse_src(true), n, 2, 0.0, None);
    let sparse = run(&sparse_src(true), n, 2, 1e-2, None);
    let (total, kept) = (dense.collected["A"].len(), sparse.collected["A"].len());
    assert!(
        kept < total,
        "threshold 1e-2 should drop some of the {total} blocks"
    );
    let sp = &sparse.profile.metrics.sparse;
    assert!(sp.blocks_skipped > 0, "contractions must skip: {sp:?}");
    assert!(sp.flops_avoided > 0);
}
