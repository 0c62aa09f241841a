//! Property tests for the SIP: scheduler partitioning, where-clause
//! filtering vs brute force, accumulate-commutativity under real concurrent
//! execution, and dry-run consistency.

use proptest::prelude::*;
use sia_bytecode::{BoolExpr, CmpOp, ConstBindings, IndexId, ScalarExpr};
use sia_runtime::scheduler::{decode_ordinal, GuidedScheduler, IterationSpace};
use sia_runtime::{Sip, SipConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Guided chunks partition [0, total) exactly once with non-increasing
    /// sizes.
    #[test]
    fn guided_partitions_exactly(total in 0u64..5000, workers in 1usize..64, factor in 1usize..5) {
        let mut s = GuidedScheduler::new(total, workers, factor);
        let mut next_expected = 0u64;
        let mut last_size = u64::MAX;
        while let Some(r) = s.next_chunk() {
            prop_assert_eq!(r.start, next_expected, "chunks must be contiguous");
            prop_assert!(r.end > r.start);
            let size = r.end - r.start;
            prop_assert!(size <= last_size, "guided sizes must not increase");
            last_size = size;
            next_expected = r.end;
        }
        prop_assert_eq!(next_expected, total, "all work assigned");
        prop_assert_eq!(s.remaining(), 0);
    }

    /// Where-clause enumeration equals brute-force filtering of the cross
    /// product, for random rectangular ranges and a random linear clause:
    /// the surviving ordinals decode, in order, to exactly the index values
    /// that pass.
    #[test]
    fn iteration_space_matches_brute_force(
        lo1 in 1i64..4, len1 in 1i64..5,
        lo2 in 1i64..4, len2 in 1i64..5,
        bound in 0i64..12,
        strict in prop::bool::ANY,
    ) {
        let ranges = [(lo1, lo1 + len1 - 1), (lo2, lo2 + len2 - 1)];
        let op = if strict { CmpOp::Lt } else { CmpOp::Le };
        let clause = BoolExpr::Cmp(
            ScalarExpr::Bin(
                sia_bytecode::BinOp::Add,
                Box::new(ScalarExpr::IndexVal(IndexId(0))),
                Box::new(ScalarExpr::IndexVal(IndexId(1))),
            ),
            op,
            ScalarExpr::Lit(bound as f64),
        );
        let space = IterationSpace::enumerate(
            &[IndexId(0), IndexId(1)],
            &ranges,
            std::slice::from_ref(&clause),
            &|_| 0.0,
            &|_| 0,
        )
        .unwrap();
        let mut brute = Vec::new();
        for i in ranges[0].0..=ranges[0].1 {
            for j in ranges[1].0..=ranges[1].1 {
                let pass = if strict { i + j < bound } else { i + j <= bound };
                if pass {
                    brute.push(vec![i, j]);
                }
            }
        }
        let decoded: Vec<Vec<i64>> = (0..space.len() as u64)
            .map(|i| {
                let mut vals = vec![0; ranges.len()];
                decode_ordinal(&ranges, space.ordinal(i), |d, v| vals[d] = v);
                vals
            })
            .collect();
        prop_assert_eq!(decoded, brute);
    }

    /// Concurrent `put +=` into one block commutes: for any number of
    /// contributions and workers, the total is exact (run on the real SIP).
    #[test]
    fn accumulate_commutes_under_real_concurrency(
        n in 1i64..12,
        workers in 1usize..4,
        value in prop::sample::select(vec![0.25f64, 1.0, 2.0, -0.5]),
    ) {
        let src = format!(
            "sial acc\naoindex i = 1, {n}\naoindex k = 1, 1\ndistributed X(k,k)\ntemp one(k,k)\npardo i, k\none(k,k) = {value}\nput X(k,k) += one(k,k)\nendpardo i, k\nsip_barrier\nendsial\n"
        );
        let program = sial_frontend::compile(&src).unwrap();
        let config = SipConfig::builder()
            .workers(workers)
            .io_servers(0)
            .segment_size(2)
            .collect_distributed(true)
            .build()
            .unwrap();
        let out = Sip::new(config).run(program, &ConstBindings::new()).unwrap();
        let block = &out.collected["X"][&vec![1, 1]];
        let want = n as f64 * value;
        prop_assert!(
            block.data().iter().all(|&x| (x - want).abs() < 1e-9),
            "got {:?}, want {want}", block.data()
        );
    }

    /// Dry-run estimates never underestimate the *distributed-store* bytes a
    /// real run leaves resident (checked via collected blocks).
    #[test]
    fn dry_run_upper_bounds_distributed_residency(n in 1i64..5, workers in 1usize..4) {
        let src = format!(
            "sial mem\naoindex i = 1, {n}\ndistributed X(i,i)\ntemp t(i,i)\npardo i\nt(i,i) = 1.0\nput X(i,i) = t(i,i)\nendpardo i\nsip_barrier\nendsial\n"
        );
        let program = sial_frontend::compile(&src).unwrap();
        let config = SipConfig::builder()
            .workers(workers)
            .io_servers(0)
            .segment_size(3)
            .collect_distributed(true)
            .build()
            .unwrap();
        let sip = Sip::new(config);
        let estimate = sip.dry_run(program.clone(), &ConstBindings::new()).unwrap();
        let out = sip.run(program, &ConstBindings::new()).unwrap();
        let actual_bytes: u64 = out
            .collected
            .values()
            .flat_map(|blocks| blocks.values())
            .map(|b| b.len() as u64 * 8)
            .sum();
        // The estimate is per worker; total distributed ≤ estimate × workers.
        prop_assert!(
            estimate.per_worker_bytes * workers as u64 >= actual_bytes,
            "estimate {} × {workers} < actual {actual_bytes}",
            estimate.per_worker_bytes
        );
    }

    /// Scalar expressions inside SIAL agree with host-side arithmetic for
    /// random operand values routed through index variables.
    #[test]
    fn index_arithmetic_in_conditions(hi in 2i64..9, threshold in 1i64..10) {
        // Count blocks where 2·i − 1 > threshold via an if statement.
        let src = format!(
            "sial cond\naoindex i = 1, {hi}\nscalar count\npardo i\nif 2.0 * i - 1.0 > {threshold}.0\ncount += 1.0\nendif\nendpardo i\nsip_barrier\nexecute sip_allreduce count\nendsial\n"
        );
        let program = sial_frontend::compile(&src).unwrap();
        let config = SipConfig::builder()
            .workers(2)
            .io_servers(0)
            .segment_size(2)
            .build()
            .unwrap();
        let out = Sip::new(config).run(program, &ConstBindings::new()).unwrap();
        let want = (1..=hi).filter(|i| 2 * i - 1 > threshold).count() as f64;
        prop_assert!((out.scalars["count"] - want).abs() < 1e-12);
    }
}
