//! The chunk look-ahead is invisible and it works: asking for the blocks of
//! granted pardo iterations ahead of their use changes no bit of any
//! result, under any cache size or fault plan — and on the
//! `pardo i, j { get X; use X }` shape it hides the round trip and cuts the
//! envelopes, which is what it is for.

use sia::chem::register_integrals;
use sia::runtime::SipConfigBuilder;
use sia::{ConstBindings, FaultConfig, FaultPlan, RunOutput, Sip, SipConfig, SuperRegistry};

/// `putget_fine`'s shape: a transposed `get` beside a `put`, then a `get`
/// feeding a reduction. Every value is a small integer, so every sum is
/// exact in f64 whatever order the schedule adds in.
const PUTGET: &str = "sial putget
aoindex i = 1, n
aoindex j = 1, n
distributed A(i,j)
distributed B(i,j)
temp t(i,j)
temp u(i,j)
scalar total
pardo i, j
  t(i,j) = 3.0 * i + 7.0 * j
  put A(i,j) = t(i,j)
endpardo i, j
sip_barrier
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
execute sip_allreduce total
endsial
";

/// `served_sweep`'s shape: a `prepare` sweep, then a `request` sweep that
/// copies the served array into a distributed one (so it is collected).
const SWEEP: &str = "sial sweep
aoindex i = 1, n
aoindex j = 1, n
served S(i,j)
distributed X(i,j)
temp t(i,j)
temp u(i,j)
scalar total
pardo i, j
  t(i,j) = 5.0 * i + j
  prepare S(i,j) = t(i,j)
endpardo i, j
server_barrier
pardo i, j
  request S(i,j)
  u(i,j) = S(i,j)
  total += u(i,j) * u(i,j)
  put X(i,j) = u(i,j)
endpardo i, j
sip_barrier
execute sip_allreduce total
endsial
";

struct Case {
    name: &'static str,
    source: &'static str,
    binds: &'static [(&'static str, i64)],
    workers: usize,
    io_servers: usize,
    /// Scalars are sums of exactly representable terms (bitwise equal
    /// whatever the order); otherwise they are compared to reduction
    /// tolerance, as every test of these programs does.
    exact_scalars: bool,
}

const CASES: &[Case] = &[
    Case {
        name: "putget",
        source: PUTGET,
        binds: &[("n", 6)],
        workers: 2,
        io_servers: 0,
        exact_scalars: true,
    },
    Case {
        name: "sweep",
        source: SWEEP,
        binds: &[("n", 6)],
        workers: 2,
        io_servers: 1,
        exact_scalars: true,
    },
    Case {
        name: "contraction.sial",
        source: include_str!("../programs/contraction.sial"),
        binds: &[("norb", 4), ("nocc", 2)],
        workers: 2,
        io_servers: 1,
        exact_scalars: false,
    },
    Case {
        name: "mp2.sial",
        source: include_str!("../programs/mp2.sial"),
        binds: &[("nocc", 2), ("nvrt", 4)],
        workers: 2,
        io_servers: 0,
        exact_scalars: false,
    },
    Case {
        name: "mp2_screened.sial",
        source: include_str!("../programs/mp2_screened.sial"),
        binds: &[("nocc", 2), ("nvrt", 4)],
        workers: 2,
        io_servers: 0,
        exact_scalars: false,
    },
    Case {
        name: "checkpoint_demo.sial",
        source: include_str!("../programs/checkpoint_demo.sial"),
        binds: &[("n", 4)],
        workers: 2,
        io_servers: 2,
        exact_scalars: true,
    },
    Case {
        name: "triangular.sial",
        source: include_str!("../programs/triangular.sial"),
        binds: &[("n", 4)],
        workers: 3,
        io_servers: 0,
        exact_scalars: true,
    },
];

fn seeded_faults() -> FaultConfig {
    let mut plan = FaultPlan::seeded(0x100C_A4EAD);
    plan.drop = 0.03;
    plan.duplicate = 0.02;
    plan.delay = 0.02;
    FaultConfig::new(plan)
}

fn run(case: &Case, config: SipConfigBuilder) -> RunOutput {
    let config = config
        .workers(case.workers)
        .io_servers(case.io_servers)
        .segment_size(4)
        .collect_distributed(true)
        .build()
        .unwrap();
    let mut registry = SuperRegistry::new();
    // Denominators count occupied orbitals: `nocc` (2) segments of 4.
    register_integrals(&mut registry, 4, 8);
    let bindings: ConstBindings = case
        .binds
        .iter()
        .map(|&(k, v)| (k.to_string(), v))
        .collect();
    Sip::new(config)
        .with_registry(registry)
        .run(sial_frontend::compile(case.source).unwrap(), &bindings)
        .unwrap_or_else(|e| panic!("{}: {e}", case.name))
}

/// Every collected block bit for bit; every scalar bit for bit when the
/// program's sums are exact, to 1e-12 relative otherwise.
fn assert_same_results(off: &RunOutput, on: &RunOutput, exact_scalars: bool, ctx: &str) {
    assert_eq!(
        off.collected.keys().collect::<Vec<_>>(),
        on.collected.keys().collect::<Vec<_>>(),
        "{ctx}"
    );
    for (name, blocks) in &off.collected {
        let other = &on.collected[name];
        assert_eq!(
            blocks.keys().collect::<Vec<_>>(),
            other.keys().collect::<Vec<_>>(),
            "{ctx}: blocks of {name}"
        );
        for (segs, block) in blocks {
            let bits = |b: &sia::blocks::Block| -> Vec<u64> {
                b.data().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(block), bits(&other[segs]), "{ctx}: {name}{segs:?}");
        }
    }
    assert_eq!(
        off.scalars.keys().collect::<Vec<_>>(),
        on.scalars.keys().collect::<Vec<_>>(),
        "{ctx}"
    );
    for (name, v) in &off.scalars {
        let w = on.scalars[name];
        if exact_scalars {
            assert_eq!(v.to_bits(), w.to_bits(), "{ctx}: scalar {name}: {v} vs {w}");
        } else {
            assert!(
                (v - w).abs() <= 1e-12 * v.abs(),
                "{ctx}: scalar {name}: {v} vs {w}"
            );
        }
    }
}

/// `prefetch_depth(0)` (both look-aheads off) against the default, across
/// cache size × fault plan, for every shipped program and the two benchmark
/// shapes.
#[test]
fn lookahead_changes_no_bit_of_any_result() {
    for case in CASES {
        for cache_blocks in [2, 64] {
            for faulty in [false, true] {
                let config = |prefetch: usize| {
                    let b = SipConfig::builder()
                        .cache_blocks(cache_blocks)
                        .prefetch_depth(prefetch);
                    if faulty {
                        b.fault(seeded_faults())
                    } else {
                        b
                    }
                };
                let ctx = format!("{} cache_blocks={cache_blocks} faulty={faulty}", case.name);
                let off = run(case, config(0));
                let on = run(case, config(2));
                assert_same_results(&off, &on, case.exact_scalars, &ctx);
            }
        }
    }
}

/// A two-block cache under guided chunks of up to 144 iterations (576
/// over two workers): the window shrinks to what the cache can hold (one
/// iteration) instead of pinning a chunk's worth of in-flight entries
/// against it, so the run finishes, and with the right answer.
#[test]
fn tiny_cache_under_a_long_chunk_finishes() {
    let case = Case {
        binds: &[("n", 24)],
        ..CASES[0]
    };
    let config = |prefetch: usize| {
        SipConfig::builder()
            .cache_blocks(2)
            .prefetch_depth(prefetch)
    };
    let off = run(&case, config(0));
    let on = run(&case, config(2));
    assert_same_results(&off, &on, true, "cache_blocks=2, guided chunks");
    // A window of one iteration holds what it fetched until it is used.
    let (refetched, baseline) = (
        on.profile.metrics.cache.refetches,
        off.profile.metrics.cache.refetches,
    );
    assert!(
        refetched <= baseline + baseline / 4 + 8,
        "look-ahead evicted its own blocks: {refetched} refetches vs {baseline} without it"
    );
}

/// The mechanism, pinned where it was dead: on two workers a
/// `pardo i, j { get A(j,i); … }` hides flight time under compute, ships
/// windows as batches, and needs at most a third of the envelopes.
#[test]
fn granted_chunk_lookahead_hides_flights_and_cuts_envelopes() {
    const GETS: &str = "sial gets
aoindex i = 1, n
aoindex j = 1, n
index r = 1, 8
distributed A(i,j)
distributed B(i,j)
temp t(i,j)
temp u(i,j)
scalar total
pardo i, j
  t(i,j) = 3.0 * i + 7.0 * j
  put A(i,j) = t(i,j)
endpardo i, j
sip_barrier
do r
  pardo i, j
    get A(j,i)
    total += A(j,i) * A(j,i)
    if i > n
      u(i,j) = A(j,i)
      put B(i,j) = u(i,j)
    endif
  endpardo i, j
enddo r
execute sip_allreduce total
endsial
";
    let case = Case {
        name: "gets",
        source: GETS,
        binds: &[("n", 24)],
        ..CASES[0]
    };
    // The sweep's aligned `put B(i,j)` anchors its owner-compute affinity:
    // a sweep that only read would anchor on `A(j,i)` and read locally. Its
    // guard is never true, so no put adds stolen iterations' `Store`s to
    // the envelopes counted. The reads `A(j,i)` of row `i` fall half in
    // each worker's slab, so about half of any chunk's reads are remote
    // whichever worker is granted it.
    let off = run(&case, SipConfig::builder().prefetch_depth(0));
    let on = run(&case, SipConfig::builder());
    assert_same_results(&off, &on, true, "mechanism run");
    let overlap = on.profile.metrics.comm.overlap().expect("fetches flew");
    assert!(
        overlap > 0.0,
        "no flight time hidden: {:?}",
        on.profile.metrics.comm
    );
    assert!(
        on.profile.metrics.plan.coalesced_messages > 0,
        "no window left as a batch"
    );
    assert!(
        on.traffic.messages * 3 <= off.traffic.messages,
        "{} envelopes with look-ahead, {} without",
        on.traffic.messages,
        off.traffic.messages
    );
    // Coalescing accounts for the envelopes saved (the count of fetches
    // itself moves a little with what the small cache happens to evict).
    // The puts are not look-ahead traffic: owner-compute keeps them local
    // but for the rows a worker steals, whose number varies from run to
    // run, so their `Store`/`StoreAck` pairs are left out.
    let unbatched = |out: &RunOutput| {
        out.traffic.messages + out.profile.metrics.plan.coalesced_messages
            - 2 * out.profile.metrics.comm.puts_acked
    };
    assert!(
        unbatched(&on).abs_diff(unbatched(&off)) * 20 <= unbatched(&off),
        "{} messages before batching, {} without look-ahead",
        unbatched(&on),
        unbatched(&off)
    );
}

/// A `get` behind an `if` is never asked for ahead of its guard: here the
/// guard is never true, so no fetch may fly at all.
#[test]
fn guarded_get_is_never_fetched_ahead() {
    const GUARDED: &str = "sial guarded
aoindex i = 1, n
aoindex j = 1, n
distributed A(i,j)
temp t(i,j)
temp u(i,j)
pardo i, j
  t(i,j) = 1.0
  put A(i,j) = t(i,j)
endpardo i, j
sip_barrier
pardo i, j
  if i > n
    get A(j,i)
    u(i,j) = A(j,i)
  endif
endpardo i, j
sip_barrier
endsial
";
    let case = Case {
        name: "guarded",
        source: GUARDED,
        ..CASES[0]
    };
    let out = run(&case, SipConfig::builder());
    assert_eq!(out.profile.metrics.comm.fetches, 0);
}
