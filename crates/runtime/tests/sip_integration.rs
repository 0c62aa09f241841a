//! End-to-end tests: SIAL source → compile → run on the SIP → check results
//! against independently computed references.

use sia_bytecode::ConstBindings;
use sia_runtime::{RuntimeError, SegmentConfig, Sip, SipConfig, SuperRegistry};
use std::collections::BTreeMap;

fn config(workers: usize) -> SipConfig {
    SipConfig::builder()
        .workers(workers)
        .io_servers(1)
        .segments(SegmentConfig {
            default: 4,
            nsub: 2,
            ..Default::default()
        })
        .cache_blocks(64)
        .prefetch_depth(2)
        .collect_distributed(true)
        .build()
        .unwrap()
}

fn bindings(pairs: &[(&str, i64)]) -> ConstBindings {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// A registry with a deterministic synthetic integral generator: element
/// (i,j,..) of block (S1,S2,..) gets a reproducible value from its global
/// coordinates.
fn test_registry(seg: usize) -> SuperRegistry {
    let mut reg = SuperRegistry::new();
    reg.register("compute_integrals", move |args, _env| {
        let segs: Vec<i64> = args[0].segs()?.to_vec();
        let block = args[0].block_mut()?;
        let shape = *block.shape();
        let mut vals = Vec::with_capacity(block.len());
        for idx in shape.indices() {
            let mut v = 0.0;
            for (d, &s) in segs.iter().enumerate() {
                let global = (s as usize - 1) * seg + idx[d];
                v += ((global * (d + 3)) % 17) as f64 * 0.25 - 1.0;
            }
            vals.push(v);
        }
        block.data_mut().copy_from_slice(&vals);
        Ok(())
    });
    reg
}

/// Global element value produced by the `compute_integrals` test kernel.
fn integral_value(seg: usize, global: &[usize]) -> f64 {
    let mut v = 0.0;
    for (d, &g) in global.iter().enumerate() {
        let _ = seg;
        v += ((g * (d + 3)) % 17) as f64 * 0.25 - 1.0;
    }
    v
}

#[test]
fn distributed_put_get_roundtrip() {
    let src = r#"
sial roundtrip
aoindex i = 1, n
aoindex j = 1, n
distributed X(i,j)
temp t(i,j)
pardo i, j
  t(i,j) = i + 10.0 * j
  put X(i,j) = t(i,j)
endpardo i, j
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(config(3))
        .run(program, &bindings(&[("n", 3)]))
        .unwrap();
    let x = &out.collected["X"];
    assert_eq!(x.len(), 9);
    for i in 1..=3i64 {
        for j in 1..=3i64 {
            let b = &x[&vec![i, j]];
            assert_eq!(b.shape().dims(), &[4, 4]);
            assert!(b
                .data()
                .iter()
                .all(|&v| (v - (i as f64 + 10.0 * j as f64)).abs() < 1e-12));
        }
    }
}

#[test]
fn accumulate_put_is_atomic_across_workers() {
    // Every pardo iteration accumulates 1.0 into the SAME block; the result
    // must be the iteration count regardless of scheduling.
    let src = r#"
sial accum
aoindex i = 1, n
aoindex k = 1, 1
distributed X(k,k)
temp t(k,k)
temp one(k,k)
pardo i, k
  one(k,k) = 1.0
  put X(k,k) += one(k,k)
endpardo i, k
sip_barrier
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(config(4))
        .run(program, &bindings(&[("n", 25)]))
        .unwrap();
    let x = &out.collected["X"][&vec![1, 1]];
    assert!(x.data().iter().all(|&v| (v - 25.0).abs() < 1e-12));
    let _ = &out.warnings; // accumulates need no barrier: no misuse warnings
    assert!(
        out.warnings.iter().all(|w| !w.contains("barrier misuse")),
        "{:?}",
        out.warnings
    );
}

#[test]
fn paper_contraction_matches_reference() {
    // The §IV-D example: R(M,N,I,J) = Σ_{L,S} V(M,N,L,S)·T(L,S,I,J), with V
    // computed on demand and T built from a deterministic fill.
    let src = r#"
sial ccsd_term
aoindex M = 1, norb
aoindex N = 1, norb
aoindex L = 1, norb
aoindex S = 1, norb
moindex I = 1, nocc
moindex J = 1, nocc
distributed T(L,S,I,J)
distributed R(M,N,I,J)
temp V(M,N,L,S)
temp tmp(M,N,I,J)
temp tmpsum(M,N,I,J)
temp seed(L,S,I,J)
pardo L, S, I, J
  seed(L,S,I,J) = L + 2.0 * S + 3.0 * I + 4.0 * J
  put T(L,S,I,J) = seed(L,S,I,J)
endpardo L, S, I, J
sip_barrier
pardo M, N, I, J
  tmpsum(M,N,I,J) = 0.0
  do L
    do S
      get T(L,S,I,J)
      execute compute_integrals V(M,N,L,S)
      tmp(M,N,I,J) = V(M,N,L,S) * T(L,S,I,J)
      tmpsum(M,N,I,J) += tmp(M,N,I,J)
    enddo S
  enddo L
  put R(M,N,I,J) = tmpsum(M,N,I,J)
endpardo M, N, I, J
sip_barrier
endsial
"#;
    let norb = 2usize;
    let nocc = 2usize;
    let seg = 2usize;
    let mut cfg = config(3);
    cfg.segments.default = seg;
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(cfg)
        .with_registry(test_registry(seg))
        .run(
            program,
            &bindings(&[("norb", norb as i64), ("nocc", nocc as i64)]),
        )
        .unwrap();

    // Reference: dense arrays of size (norb*seg)^2 × (nocc*seg)^2.
    let n = norb * seg;
    let _o = nocc * seg;
    let t = |l: usize, s: usize, i: usize, j: usize| -> f64 {
        // seed block (L,S,I,J) filled with L + 2S + 3I + 4J (segment numbers).
        let lb = l / seg + 1;
        let sb = s / seg + 1;
        let ib = i / seg + 1;
        let jb = j / seg + 1;
        lb as f64 + 2.0 * sb as f64 + 3.0 * ib as f64 + 4.0 * jb as f64
    };
    // The registry kernel computes globals as (segment-1)*seg + local index,
    // i.e. 0-based.
    let v =
        |m: usize, nn: usize, l: usize, s: usize| -> f64 { integral_value(seg, &[m, nn, l, s]) };
    // Check every element of every collected R block.
    let r = &out.collected["R"];
    assert_eq!(r.len(), norb * norb * nocc * nocc);
    for (key, block) in r {
        let (mb, nb, ib, jb) = (
            key[0] as usize,
            key[1] as usize,
            key[2] as usize,
            key[3] as usize,
        );
        for idx in block.shape().indices() {
            let m = (mb - 1) * seg + idx[0];
            let nn = (nb - 1) * seg + idx[1];
            let i = (ib - 1) * seg + idx[2];
            let j = (jb - 1) * seg + idx[3];
            let mut want = 0.0;
            for l in 0..n {
                for s in 0..n {
                    want += v(m, nn, l, s) * t(l, s, i, j);
                }
            }
            let got = block.get(&idx[..4]);
            assert!(
                (got - want).abs() < 1e-9,
                "R[{m},{nn},{i},{j}] = {got}, want {want}"
            );
        }
    }
}

#[test]
fn served_arrays_roundtrip_through_io_servers() {
    let src = r#"
sial served_rt
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
"#;
    let program = sial_frontend::compile(src).unwrap();
    let mut cfg = config(2);
    cfg.io_servers = 2;
    cfg.server_cache_blocks = 2; // force disk traffic
    let out = Sip::new(cfg).run(program, &bindings(&[("n", 3)])).unwrap();
    for i in 1..=3i64 {
        for j in 1..=3i64 {
            let b = &out.collected["X"][&vec![i, j]];
            assert!(b
                .data()
                .iter()
                .all(|&v| (v - (100.0 * i as f64 + j as f64)).abs() < 1e-12));
        }
    }
}

#[test]
fn permutation_assignment_transposes() {
    let src = r#"
sial permute
aoindex i = 1, n
aoindex j = 1, n
distributed X(i,j)
temp a(i,j)
temp b(j,i)
pardo i, j
  execute compute_integrals a(i,j)
  b(j,i) = a(i,j)
  put X(j,i) = b(j,i)
endpardo i, j
sip_barrier
endsial
"#;
    let seg = 4usize;
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(config(2))
        .with_registry(test_registry(seg))
        .run(program, &bindings(&[("n", 2)]))
        .unwrap();
    for ib in 1..=2usize {
        for jb in 1..=2usize {
            let b = &out.collected["X"][&vec![jb as i64, ib as i64]];
            for r in 0..seg {
                for c in 0..seg {
                    // X(j,i) element (r,c) = a(i,j) element (c,r); globals
                    // are 0-based in the kernel.
                    let gi = (ib - 1) * seg + c;
                    let gj = (jb - 1) * seg + r;
                    let want = integral_value(seg, &[gi, gj]);
                    assert!((b.get(&[r, c]) - want).abs() < 1e-12);
                }
            }
        }
    }
}

#[test]
fn scalar_reduction_and_allreduce() {
    // total = Σ_blocks Σ_elements x² via per-worker partial sums + allreduce.
    let src = r#"
sial reduce
aoindex i = 1, n
distributed X(i)
temp t(i)
scalar total
pardo i
  t(i) = 3.0
  put X(i) = t(i)
endpardo i
sip_barrier
pardo i
  get X(i)
  total += X(i) * X(i)
endpardo i
sip_barrier
execute sip_allreduce total
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(config(3))
        .run(program, &bindings(&[("n", 6)]))
        .unwrap();
    // 6 segments × 4 elements × 9.0.
    assert!((out.scalars["total"] - 6.0 * 4.0 * 9.0).abs() < 1e-9);
}

#[test]
fn checkpoint_save_restore() {
    let src = r#"
sial ckpt
aoindex i = 1, n
distributed X(i)
temp t(i)
temp z(i)
pardo i
  t(i) = 7.5
  put X(i) = t(i)
endpardo i
sip_barrier
blocks_to_list X "snap"
pardo i
  z(i) = 0.0
  put X(i) = z(i)
endpardo i
sip_barrier
list_to_blocks X "snap"
sip_barrier
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(config(2))
        .run(program, &bindings(&[("n", 4)]))
        .unwrap();
    for i in 1..=4i64 {
        let b = &out.collected["X"][&vec![i]];
        assert!(
            b.data().iter().all(|&v| (v - 7.5).abs() < 1e-12),
            "block {i} should be restored to 7.5, got {:?}",
            b.data()
        );
    }
}

#[test]
fn dry_run_rejects_infeasible_and_suggests_workers() {
    let src = r#"
sial big
laindex i = 1, 64
distributed D(i,i,i)
temp t(i,i,i)
pardo i
  t(i,i,i) = 0.0
  put D(i,i,i) = t(i,i,i)
endpardo i
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let mut cfg = config(2);
    cfg.cache_blocks = 1;
    // 64³ blocks × 4³ doubles × 8 = 134 MB total; budget of 8 MB per worker
    // needs ≥ 17 workers.
    cfg.memory_budget = Some(8 << 20);
    let err = Sip::new(cfg).run(program, &bindings(&[])).unwrap_err();
    match err {
        RuntimeError::Infeasible {
            sufficient_workers, ..
        } => {
            assert!(sufficient_workers > 2, "got {sufficient_workers}");
            assert!(sufficient_workers < 100);
        }
        other => panic!("expected Infeasible, got {other}"),
    }
}

/// A pardo whose iteration space has more than 2^64 iterations
/// (131 072⁴ = 2^68) is refused with one typed error by the run and by the
/// dry-run planner alike: the planner's trace walker counts the space with
/// the master's checked product, so it neither overflows nor wraps to an
/// empty plan.
#[test]
fn an_iteration_space_past_2_64_is_refused_by_run_and_plan() {
    const SRC: &str = "sial huge
aoindex i = 1, n
aoindex j = 1, n
aoindex k = 1, n
aoindex l = 1, n
temp t(i)
pardo i, j, k, l
  t(i) = 1.0
endpardo i, j, k, l
endsial
";
    let cfg = SipConfig::builder()
        .workers(2)
        .io_servers(0)
        .segment_size(1)
        .build()
        .unwrap();
    let binds = bindings(&[("n", 131_072)]);
    let sip = Sip::new(cfg);
    let refused = |err: RuntimeError| {
        assert!(
            matches!(&err, RuntimeError::BadProgram(m) if m.contains("exceeds 2^64")),
            "{err}"
        );
    };
    refused(
        sip.plan(sial_frontend::compile(SRC).unwrap(), &binds)
            .unwrap_err(),
    );
    refused(
        sip.run(sial_frontend::compile(SRC).unwrap(), &binds)
            .unwrap_err(),
    );
}

#[test]
fn barrier_misuse_detected() {
    // Replace-put and get of the same array with no separating barrier.
    let src = r#"
sial misuse
aoindex i = 1, n
distributed X(i)
temp t(i)
temp u(i)
pardo i
  t(i) = 1.0
  put X(i) = t(i)
endpardo i
pardo i
  get X(i)
  u(i) = X(i)
endpardo i
sip_barrier
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    // Run a few times: the race needs get and put of the same block in one
    // epoch, which the home detects deterministically since both happen.
    let out = Sip::new(config(2))
        .run(program, &bindings(&[("n", 8)]))
        .unwrap();
    assert!(
        out.warnings.iter().any(|w| w.contains("barrier misuse")),
        "expected a misuse warning, got {:?}",
        out.warnings
    );
}

/// `X` written, then read, then written again with a Replace. `between`
/// separates the read from the second write: a collective orders them —
/// every fetch served before any put is sent — inside one epoch; a barrier
/// puts them in two.
fn read_then_replace(between: &str) -> String {
    format!(
        "sial misuse
aoindex i = 1, n
distributed X(i)
temp t(i)
temp u(i)
scalar s
pardo i
  t(i) = 1.0
  put X(i) = t(i)
endpardo i
sip_barrier
pardo i
  get X(i)
  u(i) = X(i)
endpardo i
{between}
pardo i
  t(i) = 2.0
  put X(i) = t(i)
endpardo i
sip_barrier
endsial
"
    )
}

fn misuse_warnings(src: &str) -> Vec<String> {
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(config(2))
        .run(program, &bindings(&[("n", 8)]))
        .unwrap();
    (out.warnings.into_iter())
        .filter(|w| w.contains("barrier misuse"))
        .collect()
}

/// `barrier_misuse_detected`'s other direction: a peer's fetch is served
/// first, and a Replace-put lands on the block later in the same epoch. The
/// collective orders the two inside that epoch.
#[test]
fn replace_after_a_served_read_is_detected() {
    let warnings = misuse_warnings(&read_then_replace("execute sip_allreduce s"));
    assert!(!warnings.is_empty(), "expected a misuse warning");
    assert!(
        warnings
            .iter()
            .all(|w| w.contains("replaced after being read")),
        "{warnings:?}"
    );
}

#[test]
fn a_barrier_between_read_and_replace_silences_both_directions() {
    let fenced = misuse_warnings(&read_then_replace("sip_barrier"));
    assert!(fenced.is_empty(), "{fenced:?}");
    let put_then_get = "sial fenced
aoindex i = 1, n
distributed X(i)
temp t(i)
temp u(i)
pardo i
  t(i) = 1.0
  put X(i) = t(i)
endpardo i
sip_barrier
pardo i
  get X(i)
  u(i) = X(i)
endpardo i
sip_barrier
endsial
";
    let fenced = misuse_warnings(put_then_get);
    assert!(fenced.is_empty(), "{fenced:?}");
}

/// An unguarded `do L` that runs past an array's declared segments
/// addresses blocks the array does not have. A `get`, a `put` or a local
/// write there fails the run with the typed error, raised by the rank that
/// asked — on one worker, whose homes are all its own, and on three, where
/// most are a peer's — and no home serves or stores a block for it.
#[test]
fn an_access_past_the_declared_segments_fails_typed() {
    let program = |access: &str| {
        format!(
            "sial overrun
aoindex i = 1, n
aoindex L = 1, m
distributed X(i)
local Y(i)
temp t(i)
temp u(i)
pardo i
  t(i) = 1.0
  put X(i) = t(i)
endpardo i
sip_barrier
pardo i
  do L
{access}
  enddo L
endpardo i
sip_barrier
endsial
"
        )
    };
    for access in [
        "    get X(L)\n    u(L) = X(L)",
        "    t(L) = 2.0\n    put X(L) = t(L)",
        "    t(L) = 2.0\n    Y(L) = t(L)",
    ] {
        let src = program(access);
        for workers in [1, 3] {
            let compiled = sial_frontend::compile(&src).unwrap();
            let err = Sip::new(config(workers))
                .run(compiled, &bindings(&[("n", 4), ("m", 6)]))
                .expect_err("an access past the declared segments");
            let msg = err.to_string();
            assert!(
                msg.contains("B0[5]") || msg.contains("B1[5]"),
                "{workers} workers, `{access}`: {msg}"
            );
            assert!(
                msg.contains("outside the array's declared segments"),
                "{workers} workers, `{access}`: {msg}"
            );
        }
        // Inside the declared segments the same program runs.
        let compiled = sial_frontend::compile(&src).unwrap();
        (Sip::new(config(3)).run(compiled, &bindings(&[("n", 4), ("m", 4)])))
            .unwrap_or_else(|e| panic!("`{access}` in range: {e}"));
    }
}

#[test]
fn subindex_slice_insert_roundtrip() {
    // Build a local block, slice each sub-block through a subindexed temp,
    // accumulate it back, and verify doubling.
    let src = r#"
sial subidx
aoindex i = 1, n
aoindex j = 1, n
local Xi(i,j)
temp Xii(ii,j)
subindex ii of i
distributed OUT(i,j)
temp t(i,j)
pardo j
  do i
    execute compute_integrals t(i,j)
    Xi(i,j) = t(i,j)
    do ii in i
      Xii(ii,j) = Xi(ii,j)
      Xi(ii,j) = Xii(ii,j)
    enddo ii
    t(i,j) = Xi(i,j)
    put OUT(i,j) = t(i,j)
  enddo i
endpardo j
sip_barrier
endsial
"#;
    let seg = 4usize;
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(config(2))
        .with_registry(test_registry(seg))
        .run(program, &bindings(&[("n", 2)]))
        .unwrap();
    // Slice-then-insert is the identity, so OUT == integrals.
    for ib in 1..=2usize {
        for jb in 1..=2usize {
            let b = &out.collected["OUT"][&vec![ib as i64, jb as i64]];
            for r in 0..seg {
                for c in 0..seg {
                    let wi = (ib - 1) * seg + r;
                    let wj = (jb - 1) * seg + c;
                    let want = integral_value(seg, &[wi, wj]);
                    assert!((b.get(&[r, c]) - want).abs() < 1e-12);
                }
            }
        }
    }
}

#[test]
fn where_clause_limits_work() {
    let src = r#"
sial tri
aoindex i = 1, n
aoindex j = 1, n
distributed X(i,j)
temp t(i,j)
pardo i, j where i < j
  t(i,j) = 1.0
  put X(i,j) = t(i,j)
endpardo i, j
sip_barrier
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(config(2))
        .run(program, &bindings(&[("n", 4)]))
        .unwrap();
    // Only the strict upper triangle was written: 6 of 16 blocks.
    assert_eq!(out.collected.get("X").map(BTreeMap::len).unwrap_or(0), 6);
    assert_eq!(out.profile.iterations, 6);
}

#[test]
fn procedures_and_if_control_flow() {
    let src = r#"
sial procs
scalar a
scalar b
proc bump
  a = a + 1.0
  if a > 2.0
    b = b + 10.0
  else
    b = b + 1.0
  endif
endproc bump
call bump
call bump
call bump
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(config(2)).run(program, &bindings(&[])).unwrap();
    assert_eq!(out.scalars["a"], 3.0);
    assert_eq!(out.scalars["b"], 12.0); // 1 + 1 + 10
}

#[test]
fn prefetch_produces_cache_hits() {
    let src = r#"
sial prefetch
aoindex i = 1, n
aoindex k = 1, 1
distributed X(i)
distributed R(k)
temp t(i)
temp acc(k)
scalar s
pardo i
  t(i) = 2.0
  put X(i) = t(i)
endpardo i
sip_barrier
pardo k
  s = 0.0
  do i
    get X(i)
    s += X(i) * X(i)
  enddo i
  acc(k) = s
  put R(k) = acc(k)
endpardo k
sip_barrier
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let mut cfg = config(2);
    cfg.prefetch_depth = 4;
    let out = Sip::new(cfg).run(program, &bindings(&[("n", 16)])).unwrap();
    let r = &out.collected["R"][&vec![1]];
    // s = Σ over 16 segments × 4 elements of 2.0² = 256; acc filled with s.
    assert!(
        r.data().iter().all(|&v| (v - 256.0).abs() < 1e-9),
        "{:?}",
        r.data()
    );
    // Prefetch should have produced in-flight completions and hits.
    assert!(out.profile.metrics.cache.hits + out.profile.metrics.cache.in_flight_hits > 0);
}

#[test]
fn prefetch_skips_blocks_outside_declared_range() {
    // Regression: the prefetcher only bounded look-ahead against the loop's
    // upper bound, so a guarded loop ranging past the array's declared
    // segments (`do L … if L < 3`) speculatively fetched nonexistent blocks
    // X(3..6), which the home answered with spurious zero allocations. The
    // declared-range check must drop those keys: with segment range 1..=2
    // for X, the only cold lookups are the two real blocks.
    let src = r#"
sial pf_oob
aoindex i = 1, n
aoindex L = 1, m
aoindex k = 1, 1
distributed X(i)
distributed R(k)
temp t(i)
temp acc(k)
scalar s
pardo i
  t(i) = 2.0
  put X(i) = t(i)
endpardo i
sip_barrier
pardo k
  s = 0.0
  do L
    if L < 2.5
      get X(L)
      s += X(L) * X(L)
    endif
  enddo L
  acc(k) = s
  put R(k) = acc(k)
endpardo k
sip_barrier
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    // Two workers so gets can be remote (the prefetcher no-ops on blocks
    // homed locally); look-ahead deep enough that the old code speculated
    // far past X's two declared segments (X(3)..X(10)).
    let mut cfg = config(2);
    cfg.prefetch_depth = 8;
    let out = Sip::new(cfg)
        .run(program, &bindings(&[("n", 2), ("m", 10)]))
        .unwrap();
    // s = 2 segments × 4 elements × 2.0² = 32.
    let r = &out.collected["R"][&vec![1]];
    assert!(r.data().iter().all(|&v| (v - 32.0).abs() < 1e-9), "{r:?}");
    // Cold lookups can only be the two real blocks X(1), X(2); every
    // speculative key beyond the declared range must have been dropped.
    assert!(
        out.profile.metrics.cache.misses <= 2,
        "prefetch fetched blocks outside X's declared segments: {} cold lookups",
        out.profile.metrics.cache.misses
    );
}

#[test]
fn delete_array_clears_blocks() {
    let src = r#"
sial del
aoindex i = 1, n
distributed X(i)
temp t(i)
pardo i
  t(i) = 5.0
  put X(i) = t(i)
endpardo i
sip_barrier
delete X
sip_barrier
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(config(2))
        .run(program, &bindings(&[("n", 4)]))
        .unwrap();
    assert!(!out.collected.contains_key("X") || out.collected["X"].is_empty());
}

#[test]
fn scaled_block_operations() {
    let src = r#"
sial scaled
aoindex i = 1, n
distributed X(i)
temp t(i)
temp u(i)
pardo i
  t(i) = 4.0
  u(i) = 0.5 * t(i)
  u(i) += 2.0 * t(i)
  u(i) *= 2.0
  put X(i) = u(i)
endpardo i
sip_barrier
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(config(2))
        .run(program, &bindings(&[("n", 2)]))
        .unwrap();
    // (0.5·4 + 2·4) × 2 = 20.
    for i in 1..=2i64 {
        let b = &out.collected["X"][&vec![i]];
        assert!(b.data().iter().all(|&v| (v - 20.0).abs() < 1e-12));
    }
}

#[test]
fn single_worker_degenerate_case() {
    let src = r#"
sial one
aoindex i = 1, n
distributed X(i)
temp t(i)
scalar s
pardo i
  t(i) = 1.0
  put X(i) = t(i)
endpardo i
sip_barrier
pardo i
  get X(i)
  s += X(i) * X(i)
endpardo i
sip_barrier
execute sip_allreduce s
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let mut cfg = config(1);
    cfg.io_servers = 0;
    let out = Sip::new(cfg).run(program, &bindings(&[("n", 3)])).unwrap();
    assert!((out.scalars["s"] - 12.0).abs() < 1e-12);
}

#[test]
fn profile_reports_instructions() {
    let src = r#"
sial prof
aoindex i = 1, n
distributed X(i)
temp t(i)
pardo i
  t(i) = 1.0
  put X(i) = t(i)
endpardo i
sip_barrier
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(config(2))
        .run(program, &bindings(&[("n", 8)]))
        .unwrap();
    assert_eq!(out.profile.iterations, 8);
    // The put line exists and was executed 8 times across workers.
    let put_line = out
        .profile
        .lines
        .iter()
        .find(|l| l.text.starts_with("put "))
        .expect("put line in profile");
    assert_eq!(put_line.count, 8);
    assert!(out.traffic.messages > 0);
    let rendered = format!("{}", out.profile);
    assert!(rendered.contains("SIP profile"));
}

#[test]
fn exit_breaks_innermost_loop() {
    // Sum i over segments, but exit the inner loop once j reaches 3: every
    // pardo iteration counts min(3, n) inner steps.
    let src = r#"
sial exit_test
aoindex i = 1, n
aoindex j = 1, n
scalar count
pardo i
  do j
    if j > 3.0
      exit
    endif
    count += 1.0
  enddo j
endpardo i
sip_barrier
execute sip_allreduce count
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(config(2))
        .run(program, &bindings(&[("n", 6)]))
        .unwrap();
    // 6 pardo iterations × 3 counted inner steps.
    assert!((out.scalars["count"] - 18.0).abs() < 1e-12);
}

#[test]
fn exit_from_nested_loop_only_breaks_inner() {
    let src = r#"
sial exit_nested
aoindex i = 1, n
aoindex j = 1, n
aoindex k = 1, 1
scalar count
pardo k
  do i
    do j
      if j > 1.0
        exit
      endif
      count += 1.0
    enddo j
    count += 100.0
  enddo i
endpardo k
sip_barrier
execute sip_allreduce count
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(config(2))
        .run(program, &bindings(&[("n", 4)]))
        .unwrap();
    // Outer loop runs all 4 times (4 × 100), inner counts once per outer.
    assert!((out.scalars["count"] - 404.0).abs() < 1e-12);
}

#[test]
fn pardo_inside_do_loop_runs_every_encounter() {
    // Regression: the master must hand out a fresh iteration space every
    // time a pardo is re-entered (a pardo inside a `do` runs once per outer
    // iteration; early versions served the space only on the first pass).
    let src = r#"
sial pardo_in_do
index sweep = 1, 5
aoindex i = 1, n
scalar count
do sweep
  pardo i
    count += 1.0
  endpardo i
  sip_barrier
enddo sweep
execute sip_allreduce count
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let out = Sip::new(config(3))
        .run(program, &bindings(&[("n", 4)]))
        .unwrap();
    assert!(
        (out.scalars["count"] - 20.0).abs() < 1e-12,
        "5 sweeps × 4 pardo iterations, got {}",
        out.scalars["count"]
    );
    assert_eq!(out.profile.iterations, 20);
}

/// A single-worker `sip_allreduce` is bitwise reproducible: 20 runs of a
/// sum whose terms round differently in every order read one bit pattern.
#[test]
fn single_worker_allreduce_reads_one_bit_pattern() {
    let src = r#"
sial bits
aoindex i = 1, n
aoindex j = 1, n
distributed X(i,j)
temp t(i,j)
scalar total
pardo i, j
  t(i,j) = 0.1 * i + 1.0 / j
  put X(i,j) = t(i,j)
endpardo i, j
sip_barrier
pardo i, j
  get X(i,j)
  total += X(i,j) * X(i,j)
endpardo i, j
sip_barrier
execute sip_allreduce total
endsial
"#;
    let program = sial_frontend::compile(src).unwrap();
    let bits: Vec<u64> = (0..20)
        .map(|_| {
            let out = Sip::new(config(1))
                .run(program.clone(), &bindings(&[("n", 7)]))
                .unwrap();
            out.scalars["total"].to_bits()
        })
        .collect();
    assert!(bits.iter().all(|&b| b == bits[0]), "{bits:x?}");
}
