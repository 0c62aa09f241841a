//! Predicted fabric bytes, pinned: the trace walker's `predicted_bytes`
//! for every shipped program (with the flags of its `programs/README.md`
//! row), for the benchmark workloads' program shapes and for the chemistry
//! workloads on a small molecule, on one, two and three workers. The table
//! holds the values the per-rank communication planner that the walker's
//! charge rule replaced predicted for the same cases; the walker must
//! reproduce each within a byte (the sum is taken in `f64`).

use sia::chem::{
    ccsd_converged, ccsd_iteration, ccsd_t_triples, contraction_demo, fock_build, mp2_energy,
    Molecule, Workload,
};
use sia::opts::{parse_opts, Surface};
use sia::{ConstBindings, Sip, SipConfig};

/// `(case, workers, predicted bytes)`.
const PINNED: &[(&str, usize, u64)] = &[
    ("programs/contraction.sial", 1, 0),
    ("programs/contraction.sial", 2, 2097152),
    ("programs/contraction.sial", 3, 2796203),
    ("programs/mp2.sial", 1, 0),
    ("programs/mp2.sial", 2, 0),
    ("programs/mp2.sial", 3, 0),
    ("programs/mp2_screened.sial", 1, 0),
    ("programs/mp2_screened.sial", 2, 0),
    ("programs/mp2_screened.sial", 3, 0),
    ("programs/checkpoint_demo.sial", 1, 0),
    ("programs/checkpoint_demo.sial", 2, 8192),
    ("programs/checkpoint_demo.sial", 3, 10923),
    ("programs/triangular.sial", 1, 0),
    ("programs/triangular.sial", 2, 512),
    ("programs/triangular.sial", 3, 683),
    ("BCAST", 1, 0),
    ("BCAST", 2, 256),
    ("BCAST", 3, 512),
    ("ccsd_dense", 1, 0),
    ("ccsd_dense", 2, 707788800),
    ("ccsd_dense", 3, 943718400),
    ("putget_fine", 1, 0),
    ("putget_fine", 2, 11796480),
    ("putget_fine", 3, 15728640),
    ("served_sweep", 1, 0),
    ("served_sweep", 2, 603979776),
    ("served_sweep", 3, 805306368),
    ("serve_mix dense", 1, 0),
    ("serve_mix dense", 2, 0),
    ("serve_mix dense", 3, 0),
    ("serve_mix sparse", 1, 0),
    ("serve_mix sparse", 2, 0),
    ("serve_mix sparse", 3, 0),
    ("serve_mix served", 1, 0),
    ("serve_mix served", 2, 4194304),
    ("serve_mix served", 3, 5592405),
    ("contraction_demo/small", 1, 0),
    ("contraction_demo/small", 2, 663552),
    ("contraction_demo/small", 3, 884736),
    ("mp2_energy/small", 1, 0),
    ("mp2_energy/small", 2, 0),
    ("mp2_energy/small", 3, 0),
    ("ccsd/small", 1, 0),
    ("ccsd/small", 2, 294912),
    ("ccsd/small", 3, 393216),
    ("ccsd_converged/small", 1, 0),
    ("ccsd_converged/small", 2, 417792),
    ("ccsd_converged/small", 3, 557056),
    ("ccsd_t/small", 1, 0),
    ("ccsd_t/small", 2, 24576),
    ("ccsd_t/small", 3, 32768),
    ("fock_build/small", 1, 0),
    ("fock_build/small", 2, 27168),
    ("fock_build/small", 3, 37760),
];

/// A case: its name, program source, bindings and configuration on
/// `workers` workers.
type Case = (
    String,
    String,
    ConstBindings,
    Box<dyn Fn(usize) -> SipConfig>,
);

/// One row per program: the flags of its `sial run` line in
/// `programs/README.md`, the worker count replaced.
fn shipped_programs() -> Vec<Case> {
    let readme = include_str!("../programs/README.md");
    let mut cases: Vec<Case> = Vec::new();
    for line in readme.lines() {
        let Some(at) = line.find("`sial run programs/") else {
            continue;
        };
        let run = &line[at + 1..];
        let run = &run[..run.find('`').unwrap()];
        let mut words = run.split_whitespace().skip(2);
        let path = words.next().unwrap().to_string();
        let args: Vec<String> = words.map(str::to_string).collect();
        let source = std::fs::read_to_string(&path).unwrap();
        let bindings = parse_opts(&args, Surface::Cli).unwrap().bindings;
        let config = move |workers: usize| {
            let mut args = args.clone();
            args.extend(["--workers".to_string(), workers.to_string()]);
            parse_opts(&args, Surface::Cli).unwrap().config
        };
        cases.push((path, source, bindings, Box::new(config)));
    }
    assert_eq!(cases.len(), 5, "one row per shipped program");
    cases
}

/// A `put` region reading a strict subset of its pardo indices: `F(M)` is
/// broadcast-shaped, `R(M,N)` the owner-compute anchor.
const BCAST: &str = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed F(M)\ndistributed R(M,N)\ntemp f(M)\ntemp q(M,N)\npardo M, N\nget F(M)\nf(M) = F(M)\nq(M,N) = 0.0\nput R(M,N) = q(M,N)\nendpardo\nendsial\n";

/// `putget_fine`: `get A(j,i)` → `put B(i,j)`, then `get B(i,j)`, ten times.
const PUTGET: &str = "sial putget_fine
aoindex i = 1, n
aoindex j = 1, n
index r = 1, 10
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

/// `served_sweep`: a `prepare` sweep and a `request` sweep, sixteen times.
const SWEEP: &str = "sial served_sweep
aoindex i = 1, n
aoindex j = 1, n
index r = 1, 16
served S(i,j)
temp t(i,j)
scalar total
do r
  pardo i, j
    t(i,j) = 0.5 * i + 0.25 * j + 0.125 * r
    prepare S(i,j) = t(i,j)
  endpardo i, j
  server_barrier
  pardo i, j
    request S(i,j)
    total += S(i,j) * S(i,j)
  endpardo i, j
  server_barrier
enddo r
execute sip_allreduce total
endsial
";

/// A `serve_mix` job: fill `A` with `store`, then read it back with `load`.
fn serve_job(decl: &str, store: &str, load: &str, barrier: &str) -> String {
    format!(
        "sial loadgen
aoindex i = 1, n
aoindex j = 1, n
{decl} A(i,j)
temp t(i,j)
scalar total
pardo i, j
  t(i,j) = 0.5 * i + j
  {store} A(i,j) = t(i,j)
endpardo i, j
{barrier}
pardo i, j
  {load} A(i,j)
  total += A(i,j) * A(i,j)
endpardo i, j
sip_barrier
execute sip_allreduce total
endsial
"
    )
}

fn n(n: i64) -> ConstBindings {
    ConstBindings::from([("n".to_string(), n)])
}

fn seg_config(seg: usize, io: usize) -> Box<dyn Fn(usize) -> SipConfig> {
    Box::new(move |workers| {
        (SipConfig::builder().workers(workers).io_servers(io))
            .segment_size(seg)
            .build()
            .unwrap()
    })
}

/// `BCAST` and the four benchmark workloads' programs at their shapes.
fn workload_shapes() -> Vec<Case> {
    let ccsd = ccsd_iteration(
        &Molecule {
            name: "benchmark",
            formula: "synthetic",
            electrons: 32,
            n_occ: 16,
            n_ao: 96,
            open_shell: false,
        },
        16,
        2,
    );
    let segments = ccsd.segments();
    let ccsd_config = move |workers: usize| {
        (SipConfig::builder().workers(workers).io_servers(1))
            .segments(segments)
            .build()
            .unwrap()
    };
    let sweep_config = |workers: usize| {
        (SipConfig::builder().workers(workers).io_servers(1))
            .segment_size(32)
            .server_cache_blocks(64)
            .build()
            .unwrap()
    };
    let sparse_config = |workers: usize| {
        (SipConfig::builder().workers(workers).io_servers(1))
            .segment_size(8)
            .sparsity_threshold(1e-6)
            .build()
            .unwrap()
    };
    vec![
        ("BCAST".into(), BCAST.into(), n(4), seg_config(4, 1)),
        (
            "ccsd_dense".into(),
            ccsd.source.clone(),
            ccsd.bindings.clone(),
            Box::new(ccsd_config),
        ),
        ("putget_fine".into(), PUTGET.into(), n(96), seg_config(4, 0)),
        (
            "served_sweep".into(),
            SWEEP.into(),
            n(48),
            Box::new(sweep_config),
        ),
        (
            "serve_mix dense".into(),
            serve_job("distributed", "put", "get", "sip_barrier"),
            n(64),
            seg_config(8, 1),
        ),
        (
            "serve_mix sparse".into(),
            serve_job("sparse distributed", "put", "get", "sip_barrier"),
            n(64),
            Box::new(sparse_config),
        ),
        (
            "serve_mix served".into(),
            serve_job("served", "prepare", "request", "server_barrier"),
            n(64),
            seg_config(8, 1),
        ),
    ]
}

/// Each `sia_chem` workload on a small molecule, two-element segments.
fn chemistry() -> Vec<Case> {
    let m = Molecule {
        name: "small",
        formula: "X",
        electrons: 8,
        n_occ: 4,
        n_ao: 12,
        open_shell: false,
    };
    let workloads: [Workload; 6] = [
        contraction_demo(&m, 2),
        mp2_energy(&m, 2),
        ccsd_iteration(&m, 2, 2),
        ccsd_converged(&m, 2, 3, 1e-9),
        ccsd_t_triples(&m, 2),
        fock_build(&m, 2),
    ];
    (workloads.into_iter())
        .map(|w| {
            let segments = w.segments();
            let config = move |workers: usize| {
                (SipConfig::builder().workers(workers).io_servers(1))
                    .segments(segments)
                    .build()
                    .unwrap()
            };
            let case: Case = (w.name, w.source, w.bindings, Box::new(config));
            case
        })
        .collect()
}

#[test]
fn walker_predicts_the_pinned_fabric_bytes() {
    let mut got = Vec::new();
    for (name, source, bindings, config) in (shipped_programs().into_iter())
        .chain(workload_shapes())
        .chain(chemistry())
    {
        let program = sia::compile(&source).unwrap();
        for workers in 1..=3 {
            let sip = Sip::new(config(workers));
            let bytes = sip.plan(program.clone(), &bindings).unwrap().1;
            got.push((name.clone(), workers, bytes));
        }
    }
    assert_eq!(got.len(), PINNED.len(), "one pinned value per case");
    for ((name, workers, bytes), &(p_name, p_workers, p_bytes)) in got.iter().zip(PINNED) {
        assert_eq!((name.as_str(), *workers), (p_name, p_workers));
        assert!(
            bytes.abs_diff(p_bytes) <= 1,
            "{name} on {workers} workers predicts {bytes} bytes, pinned {p_bytes}"
        );
    }
}
