//! The three one-program workloads: `ccsd_dense`, `putget_fine`,
//! `served_sweep`. Each is one SIAL program run to completion by `Sip::run`
//! on two workers; one repeat is one run in a fresh data directory followed
//! by the check of its result.
//!
//! Problem shapes are constants: they fix what each workload isolates and
//! must not follow the host's core count or the seed.

use crate::probes::{Contraction, ProbeInput};
use crate::spans::{SpanId, Spans};
use crate::workload::{close, Repeat, RunFacts, Seed, Workload};
use sia_bytecode::{ConstBindings, Program};
use sia_chem::{integrals, Molecule};
use sia_runtime::{RunOutput, Sip, SipConfig, SuperRegistry};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `ccsd_dense`: 16 occupied and 80 virtual orbitals in segments of 16, so
/// blocks are 16⁴ and every contraction is a 256³ GEMM (625 per sweep).
const CCSD: Molecule = molecule(16, 96);
const CCSD_SEG: usize = 16;
const CCSD_SWEEPS: u32 = 2;
/// `ecorr` of the instance above. Scalar reductions reorder between runs,
/// so the comparison is relative (1e-9), never bitwise.
const CCSD_GOLDEN: f64 = -3134.489643135943;
/// The scaled-down instance checked against [`naive_ccsd`] in set-up.
const CCSD_SMALL: Molecule = molecule(4, 12);
const CCSD_SMALL_SEG: usize = 4;

/// `putget_fine`: 96×96 blocks of 4×4 doubles — arithmetic is free, the
/// ~290 k messages are the work.
const PUTGET_N: i64 = 96;
const PUTGET_SEG: usize = 4;
const PUTGET_REPS: i64 = 10;

/// `served_sweep`: 48×48 blocks of 32×32 doubles (8 KiB) behind one I/O
/// server whose cache holds 64 of the 2304 blocks.
const SWEEP_N: i64 = 48;
const SWEEP_SEG: usize = 32;
const SWEEP_REPS: i64 = 16;
const SWEEP_SERVER_CACHE: usize = 64;

const fn molecule(n_occ: u32, n_ao: u32) -> Molecule {
    Molecule {
        name: "benchmark",
        formula: "synthetic",
        electrons: 2 * n_occ,
        n_occ,
        n_ao,
        open_shell: false,
    }
}

/// One SIAL program with its configuration and the value it must produce.
pub struct Batch {
    input: ProbeInput,
    /// Name and closed-form (or golden) value of the scalar checked.
    scalar: &'static str,
    expect: f64,
    program: Option<Program>,
    data: PathBuf,
    runs: usize,
}

impl Batch {
    pub fn new(name: &str, seed: u64, data: &Path) -> Result<Self, String> {
        let mut seed = Seed::new(seed);
        let n = |n: i64| ConstBindings::from([("n".to_string(), n)]);
        let builder = SipConfig::builder().workers(2);
        let (source, bindings, registry, builder, contraction, scalar, expect) = match name {
            "ccsd_dense" => {
                // Inputs are a fixed function of orbital indices
                // (`sia_chem::integrals`); the seed is only recorded.
                let w = sia_chem::ccsd_iteration(&CCSD, CCSD_SEG, CCSD_SWEEPS);
                let (registry, builder) =
                    (w.registry(), builder.io_servers(1).segments(w.segments()));
                // tmp(i,a,j,b) = V(c,a,d,b) * T(i,c,j,d)
                let ladder = Contraction {
                    c: &[4, 1, 5, 3],
                    a: &[0, 1, 2, 3],
                    b: &[4, 0, 5, 2],
                    seg: CCSD_SEG,
                };
                (
                    w.source,
                    w.bindings,
                    registry,
                    builder,
                    ladder,
                    "ecorr",
                    CCSD_GOLDEN,
                )
            }
            "putget_fine" => {
                let (c1, c2) = (seed.coeff(), seed.coeff());
                (
                    putget_source(c1, c2),
                    n(PUTGET_N),
                    SuperRegistry::new(),
                    builder.io_servers(0).segment_size(PUTGET_SEG),
                    Contraction::block_dot(PUTGET_SEG),
                    "total",
                    putget_total(c1, c2),
                )
            }
            "served_sweep" => {
                let (c1, c2, c3) = (seed.coeff(), seed.coeff(), seed.coeff());
                (
                    sweep_source(c1, c2, c3),
                    n(SWEEP_N),
                    SuperRegistry::new(),
                    builder
                        .io_servers(1)
                        .segment_size(SWEEP_SEG)
                        .server_cache_blocks(SWEEP_SERVER_CACHE),
                    Contraction::block_dot(SWEEP_SEG),
                    "total",
                    sweep_total(c1, c2, c3),
                )
            }
            other => return Err(format!("no batch workload `{other}`")),
        };
        Ok(Batch {
            input: ProbeInput {
                source,
                bindings,
                config: builder.build().map_err(|e| e.to_string())?,
                registry,
                contraction,
            },
            scalar,
            expect,
            program: None,
            data: data.to_path_buf(),
            runs: 0,
        })
    }

    fn sip(&self, traced: bool, run_dir: Option<PathBuf>) -> Sip {
        let mut config = self.input.config.clone();
        config.trace = traced;
        config.run_dir = run_dir;
        Sip::new(config).with_registry(self.input.registry.clone())
    }
}

impl Workload for Batch {
    /// Compile → encode → decode → verify → dry run → plan, each under its
    /// own span; the decoded program is the one the runs execute.
    fn prepare(&mut self, spans: &Spans, parent: SpanId) -> Result<(), String> {
        let (compiled, _) = spans.time("compile", parent, |_| {
            sial_frontend::compile(&self.input.source)
        });
        let compiled = compiled.map_err(|e| format!("compile: {e}"))?;
        let (wire, _) = spans.time("encode", parent, |_| {
            sia_bytecode::encode_program(&compiled)
        });
        let (decoded, _) = spans.time("decode", parent, |_| sia_bytecode::decode_program(&wire));
        let program = decoded.map_err(|e| format!("decode: {e}"))?;
        let (findings, _) = spans.time("verify", parent, |_| sia_runtime::check_program(&program));
        if let Some(d) = findings.first() {
            return Err(format!(
                "verify: {} finding(s), first: {}",
                findings.len(),
                d.message
            ));
        }
        let sip = self.sip(false, None);
        let (planned, _) = spans.time("plan", parent, |_| {
            sip.plan(program.clone(), &self.input.bindings)
        });
        planned.map_err(|e| format!("plan: {e}"))?;
        if self.scalar == "ecorr" {
            let (small, _) = spans.time("check", parent, |_| ccsd_small_check());
            small?;
        }
        self.program = Some(program);
        Ok(())
    }

    fn repeat(&mut self, traced: bool, spans: &Spans, parent: SpanId) -> Repeat {
        let Some(program) = self.program.clone() else {
            return Repeat::failed("repeat before prepare");
        };
        self.runs += 1;
        let dir = self.data.join(format!("run-{}", self.runs));
        let start = Instant::now();
        let sip = self.sip(traced, Some(dir));
        let (out, took) = spans.time("run", parent, |_| sip.run(program, &self.input.bindings));
        let checked = out
            .map_err(|e| format!("run: {e}"))
            .and_then(|out: RunOutput| {
                let (got, _) =
                    spans.time("check", parent, |_| out.scalars.get(self.scalar).copied());
                match got {
                    Some(v) if close(v, self.expect, 0.0) => Ok(out),
                    got => Err(format!(
                        "{} = {got:?}, expected {:?}",
                        self.scalar, self.expect
                    )),
                }
            });
        let wall_s = start.elapsed().as_secs_f64();
        let (failures, runs) = match checked {
            Ok(out) if traced => (vec![], vec![RunFacts::from_run(&out)]),
            Ok(_) => (vec![], vec![]),
            Err(e) => (vec![e], vec![]),
        };
        Repeat {
            wall_s,
            attempted: 1,
            failures,
            jobs: vec![("run", took.as_secs_f64())],
            runs,
        }
    }

    fn probe_input(&self) -> &ProbeInput {
        &self.input
    }

    /// Removes the finished runs' directories (outside every timed region).
    fn tidy(&mut self) {
        let _ = std::fs::remove_dir_all(&self.data);
    }
}

/// Fill `A`; then `reps` × { `get A(j,i)` → `put B(i,j)`; barrier;
/// `get B(i,j)` → reduce; barrier }. Half the gets go through the
/// transposed index, so half are remote on two workers.
pub fn putget_source(c1: f64, c2: f64) -> String {
    format!(
        "sial putget_fine
aoindex i = 1, n
aoindex j = 1, n
index r = 1, {PUTGET_REPS}
distributed A(i,j)
distributed B(i,j)
temp t(i,j)
temp u(i,j)
scalar total
pardo i, j
  t(i,j) = {c1} * i + {c2} * j
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
"
    )
}

/// Closed form of `putget_fine`'s `total`: every element of `B(i,j)` is
/// `c1·j + c2·i`.
pub fn putget_total(c1: f64, c2: f64) -> f64 {
    let elems = (PUTGET_SEG * PUTGET_SEG) as f64;
    let mut sum = 0.0;
    for i in 1..=PUTGET_N {
        for j in 1..=PUTGET_N {
            let v = c1 * j as f64 + c2 * i as f64;
            sum += elems * v * v;
        }
    }
    PUTGET_REPS as f64 * sum
}

/// `reps` × { `prepare S(i,j)` sweep; `server_barrier`; `request S(i,j)`
/// sweep + reduce; `server_barrier` }.
pub fn sweep_source(c1: f64, c2: f64, c3: f64) -> String {
    format!(
        "sial served_sweep
aoindex i = 1, n
aoindex j = 1, n
index r = 1, {SWEEP_REPS}
served S(i,j)
temp t(i,j)
scalar total
do r
  pardo i, j
    t(i,j) = {c1} * i + {c2} * j + {c3} * r
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
"
    )
}

/// Closed form of `served_sweep`'s `total`.
pub fn sweep_total(c1: f64, c2: f64, c3: f64) -> f64 {
    let elems = (SWEEP_SEG * SWEEP_SEG) as f64;
    let mut sum = 0.0;
    for r in 1..=SWEEP_REPS {
        for i in 1..=SWEEP_N {
            for j in 1..=SWEEP_N {
                let v = c1 * i as f64 + c2 * j as f64 + c3 * r as f64;
                sum += elems * v * v;
            }
        }
    }
    sum
}

/// `ecorr` of `ccsd_iteration` evaluated element by element, o²v⁴ per
/// sweep, from `sia_chem::integrals` alone: no blocks, no GEMM, no SIP.
fn naive_ccsd(m: &Molecule, sweeps: u32) -> f64 {
    let (o, v) = (m.n_occ as usize, m.n_virt() as usize);
    let eps = |p| integrals::orbital_energy(p, o);
    let denom = |i, a, j, b| eps(i) + eps(j) - eps(a + o) - eps(b + o);
    let at = |i, a, j, b| ((i * v + a) * o + j) * v + b;
    let mut t = vec![0.0; o * v * o * v];
    for (i, a, j, b) in quads(o, v) {
        t[at(i, a, j, b)] = integrals::eri(i, a, j, b) / denom(i, a, j, b);
    }
    let mut ecorr = 0.0;
    for _ in 0..sweeps {
        let mut r = vec![0.0; t.len()];
        for (i, a, j, b) in quads(o, v) {
            let mut sum = 0.0;
            for c in 0..v {
                for d in 0..v {
                    sum += integrals::eri(c, a, d, b) * t[at(i, c, j, d)];
                }
            }
            r[at(i, a, j, b)] = sum / denom(i, a, j, b);
            ecorr += integrals::eri(i, a, j, b) * r[at(i, a, j, b)];
        }
        t = r;
    }
    ecorr
}

fn quads(o: usize, v: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    (0..o).flat_map(move |i| {
        (0..v).flat_map(move |a| (0..o).flat_map(move |j| (0..v).map(move |b| (i, a, j, b))))
    })
}

/// Runs the scaled-down CCSD instance on the SIP and compares it with
/// [`naive_ccsd`]: the evidence that the golden value of the full instance
/// is the value of the formula and not of one implementation of it.
fn ccsd_small_check() -> Result<(), String> {
    let w = sia_chem::ccsd_iteration(&CCSD_SMALL, CCSD_SMALL_SEG, CCSD_SWEEPS);
    let config = SipConfig::builder()
        .workers(2)
        .io_servers(1)
        .build()
        .map_err(|e| e.to_string())?;
    let out = w.run_real(config).map_err(|e| format!("small ccsd: {e}"))?;
    let (got, want) = (out.scalars["ecorr"], naive_ccsd(&CCSD_SMALL, CCSD_SWEEPS));
    if close(got, want, 0.0) {
        Ok(())
    } else {
        Err(format!("small ccsd: SIP ecorr {got:?}, naive {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_text_other_seed_other_text() {
        let dir = Path::new("unused");
        for name in ["putget_fine", "served_sweep"] {
            let a = Batch::new(name, 7, dir).unwrap();
            let b = Batch::new(name, 7, dir).unwrap();
            let c = Batch::new(name, 8, dir).unwrap();
            assert_eq!(
                a.input.source.as_bytes(),
                b.input.source.as_bytes(),
                "{name}"
            );
            assert_ne!(a.input.source, c.input.source, "{name}");
            assert_eq!(a.expect.to_bits(), b.expect.to_bits(), "{name}");
            assert_eq!(
                a.input.bindings, c.input.bindings,
                "the seed never changes the size"
            );
        }
        let a = Batch::new("ccsd_dense", 7, dir).unwrap();
        let c = Batch::new("ccsd_dense", 8, dir).unwrap();
        assert_eq!(
            a.input.source, c.input.source,
            "ccsd inputs do not depend on the seed"
        );
    }

    #[test]
    fn generated_programs_compile_and_verify_clean() {
        for name in ["putget_fine", "served_sweep", "ccsd_dense"] {
            let b = Batch::new(name, 3, Path::new("unused")).unwrap();
            let p =
                sial_frontend::compile(&b.input.source).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(sia_runtime::check_program(&p).is_empty(), "{name}");
        }
    }

    #[test]
    fn naive_ccsd_agrees_with_the_sip_on_the_small_instance() {
        ccsd_small_check().unwrap();
    }
}
