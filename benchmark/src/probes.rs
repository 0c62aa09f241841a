//! `[probe]` layer metrics: the harness calls one public function of one
//! layer a fixed number of times, on the workload's own program and block
//! shape, and reports the time per call.

use crate::layers::Values;
use crate::serve::{job_spec, Kind};
use sia_blocks::{
    contract_into_ctx, permute, Block, BlockHandle, ContractCtx, ContractionPlan, Shape,
};
use sia_bytecode::ConstBindings;
use sia_fabric::{Message, Rank};
use sia_runtime::{Daemon, DaemonConfig, JobSpec, Sip, SipConfig, SuperRegistry};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The metrics [`run`] returns.
#[cfg(test)]
pub const NAMES: &[&str] = &[
    "frontend.compile_us",
    "frontend.recompile_us",
    "bytecode.encode_us",
    "bytecode.decode_us",
    "bytecode.wire_bytes",
    "verify.check_us",
    "verify.findings",
    "plan.dryrun_ms",
    "plan.plan_ms",
    "blocks.contract_us",
    "blocks.contract_gflops",
    "blocks.permute_us",
    "fabric.rtt_us",
    "fabric.handle_send_us",
    "serve.admit_us",
    "serve.floor_ms",
];

/// The contraction a workload's inner loop performs, as index labels of
/// `C = A * B`, on blocks whose every dimension is `seg` long.
#[derive(Clone, Copy)]
pub struct Contraction {
    pub c: &'static [u32],
    pub a: &'static [u32],
    pub b: &'static [u32],
    pub seg: usize,
}

impl Contraction {
    /// `total += X(i,j) * X(i,j)`: the reduction every generated program
    /// ends in.
    pub const fn block_dot(seg: usize) -> Self {
        Contraction {
            c: &[],
            a: &[0, 1],
            b: &[0, 1],
            seg,
        }
    }

    fn plan(&self) -> Result<ContractionPlan, String> {
        ContractionPlan::infer(self.c, self.a, self.b).map_err(|e| format!("contraction: {e:?}"))
    }

    fn shape(&self, labels: &[u32]) -> Shape {
        Shape::new(&vec![self.seg; labels.len()])
    }

    /// Flops of one such contraction, computed from the shapes.
    pub fn flops(&self) -> Result<f64, String> {
        Ok(self.plan()?.flops(&self.shape(self.a), &self.shape(self.b)) as f64)
    }
}

/// What the probes need to know of a workload.
pub struct ProbeInput {
    pub source: String,
    pub bindings: ConstBindings,
    pub config: SipConfig,
    pub registry: SuperRegistry,
    pub contraction: Contraction,
}

const FRONTEND_ITERS: u32 = 20;
const WIRE_ITERS: u32 = 200;
const PLAN_ITERS: u32 = 5;
const FABRIC_ROUND_TRIPS: u32 = 2000;
const HANDLE_BYTES: usize = 512 << 10;
const FLOOR_JOBS: u32 = 50;

/// Microseconds per call of `f` over `iters` calls.
fn per_call_us<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

enum Probe {
    Ping([u8; 64]),
    Block(BlockHandle),
}

impl Message for Probe {
    fn approx_bytes(&self) -> usize {
        match self {
            Probe::Ping(p) => p.len(),
            Probe::Block(b) => b.heap_bytes() as usize,
        }
    }
}

/// Microseconds per round trip between two endpoints of a fresh fabric,
/// for a 64-byte message and for a 512 KiB block handle.
fn fabric_round_trips() -> Result<(f64, f64), String> {
    let (mut eps, _) = sia_fabric::build::<Probe>(2);
    let (echo, origin) = (
        eps.pop().ok_or("no endpoint")?,
        eps.pop().ok_or("no endpoint")?,
    );
    let patience = Duration::from_secs(10);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..2 * FABRIC_ROUND_TRIPS {
                let Some(env) = echo.recv_timeout(patience) else {
                    return;
                };
                if echo.send(env.src, env.msg).is_err() {
                    return;
                }
            }
        });
        let round_trips = |make: &dyn Fn() -> Probe| -> Result<f64, String> {
            let start = Instant::now();
            for _ in 0..FABRIC_ROUND_TRIPS {
                origin
                    .send(Rank(1), make())
                    .map_err(|e| format!("fabric send: {e:?}"))?;
                origin
                    .recv_timeout(patience)
                    .ok_or("fabric echo timed out")?;
            }
            Ok(start.elapsed().as_secs_f64() * 1e6 / f64::from(FABRIC_ROUND_TRIPS))
        };
        let ping = round_trips(&|| Probe::Ping([7; 64]))?;
        let handle = BlockHandle::new(Block::filled(Shape::new(&[HANDLE_BYTES / 8]), 1.0));
        let block = round_trips(&|| Probe::Block(handle.clone()))?;
        Ok((ping, block))
    })
}

/// Mean submit→done milliseconds of a one-block job on an idle daemon:
/// the fixed cost of a job with nothing to compute.
fn serve_floor_ms(data: &Path) -> Result<f64, String> {
    let daemon = Daemon::new(DaemonConfig {
        data_dir: data.join("floor"),
        ..DaemonConfig::default()
    });
    let source = Kind::Dense.source(1.0);
    let start = Instant::now();
    for _ in 0..FLOOR_JOBS {
        let id = daemon
            .submit(job_spec(Kind::Dense, &source, 1, false)?)
            .map_err(|e| e.to_string())?;
        daemon
            .wait(id, Duration::from_secs(30))
            .ok_or("floor job timed out")?;
    }
    Ok(start.elapsed().as_secs_f64() * 1e3 / f64::from(FLOOR_JOBS))
}

/// Runs every probe once.
pub fn run(input: &ProbeInput, data: &Path) -> Result<Values, String> {
    let mut out: Values = Vec::new();

    // frontend
    let src = input.source.as_str();
    out.push((
        "frontend.compile_us",
        per_call_us(FRONTEND_ITERS, || sial_frontend::compile(src)),
    ));
    let mut db = sial_frontend::CompilerDb::new("<probe>", src);
    db.lower();
    let mut edited = src.to_string();
    out.push((
        "frontend.recompile_us",
        per_call_us(FRONTEND_ITERS, || {
            // A whitespace-only edit: every query downstream of the
            // parser should be answered from its memo.
            edited.push(' ');
            db.set_source(edited.as_str());
            db.lower().0.is_some()
        }),
    ));

    // bytecode
    let program = sial_frontend::compile(src).map_err(|e| format!("compile: {e}"))?;
    let wire = sia_bytecode::encode_program(&program);
    out.push((
        "bytecode.encode_us",
        per_call_us(WIRE_ITERS, || sia_bytecode::encode_program(&program)),
    ));
    out.push((
        "bytecode.decode_us",
        per_call_us(WIRE_ITERS, || sia_bytecode::decode_program(&wire)),
    ));
    out.push(("bytecode.wire_bytes", wire.len() as f64));

    // verify
    out.push((
        "verify.check_us",
        per_call_us(FRONTEND_ITERS, || sia_runtime::check_program(&program)),
    ));
    out.push((
        "verify.findings",
        sia_runtime::check_program(&program).len() as f64,
    ));

    // plan (dry run, trace, plan)
    let sip = Sip::new(input.config.clone()).with_registry(input.registry.clone());
    let dryrun_us = per_call_us(PLAN_ITERS, || sip.dry_run(program.clone(), &input.bindings));
    let plan_us = per_call_us(PLAN_ITERS, || sip.plan(program.clone(), &input.bindings));
    out.push(("plan.dryrun_ms", dryrun_us / 1e3));
    out.push(("plan.plan_ms", plan_us / 1e3));

    // blocks
    let con = input.contraction;
    let plan = con.plan()?;
    let a = Block::filled(con.shape(con.a), 0.5);
    let b = Block::filled(con.shape(con.b), 0.25);
    let mut c = Block::zeros(plan.output_shape(a.shape(), b.shape()));
    let flops = con.flops()?;
    // About 0.4 Gflop of contractions, whatever the block size.
    let iters = (4e8 / flops).clamp(10.0, 100_000.0) as u32;
    let mut ctx = ContractCtx::new();
    let contract_us = per_call_us(iters, || {
        contract_into_ctx(&mut ctx, &plan, &a, &b, 1.0, &mut c)
    });
    out.push(("blocks.contract_us", contract_us));
    out.push(("blocks.contract_gflops", flops / contract_us / 1e3));
    let reversed: Vec<usize> = (0..a.shape().rank()).rev().collect();
    out.push((
        "blocks.permute_us",
        per_call_us(iters, || permute(&a, &reversed)),
    ));

    // fabric
    let (rtt_us, block_rtt_us) = fabric_round_trips()?;
    out.push(("fabric.rtt_us", rtt_us));
    out.push(("fabric.handle_send_us", block_rtt_us / 2.0));

    // serve
    let spec = JobSpec {
        tenant: "probe".into(),
        priority: 1,
        program,
        bindings: input.bindings.clone(),
        config: input.config.clone(),
        registry: input.registry.clone(),
        export: false,
    };
    out.push((
        "serve.admit_us",
        per_call_us(FRONTEND_ITERS, || Daemon::footprint(&spec)),
    ));
    out.push(("serve.floor_ms", serve_floor_ms(data)?));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contraction_flops_come_from_the_shape() {
        let ladder = Contraction {
            c: &[4, 1, 5, 3],
            a: &[0, 1, 2, 3],
            b: &[4, 0, 5, 2],
            seg: 4,
        };
        assert_eq!(ladder.flops().unwrap(), 2.0 * 16.0 * 16.0 * 16.0);
        let dot = Contraction::block_dot(8);
        assert_eq!(dot.flops().unwrap(), 2.0 * 64.0);
    }

    #[test]
    fn fabric_probe_returns_positive_times() {
        let (ping, block) = fabric_round_trips().unwrap();
        assert!(ping > 0.0 && block > 0.0);
    }
}
