//! `serve_mix`: an in-process `sia_runtime::Daemon` under a closed loop of
//! two clients. Each client submits its next job only after `Daemon::wait`
//! returned the previous one, so a slower daemon receives less load.
//!
//! Client 0 submits the dense and the `sparse` distributed programs of
//! `sial_loadgen` in an order drawn from the seed; client 1 submits the
//! served prepare→request program. Only one client submits served jobs:
//! block files are named `a<array-id>_<segs>.blk`, so two concurrent jobs
//! that share the daemon's `served/` directory race on one `.tmp` rename
//! and kill an I/O server. The harness routes around that and counts any
//! failure; the fix is a later issue.

use crate::json::Json;
use crate::probes::{Contraction, ProbeInput};
use crate::spans::{SpanId, Spans};
use crate::workload::{close, JobFacts, Repeat, RunFacts, Seed, Workload};
use sia_bytecode::ConstBindings;
use sia_runtime::{Daemon, DaemonConfig, JobSpec, JobState, JobStatus, SipConfig, SuperRegistry};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Every job: 64×64 blocks of 8×8 doubles on one worker and one I/O
/// server. Small enough that the per-job fixed cost dominates, large enough
/// that the daemon's 5 ms job-wait poll is about 1 % of a job.
const JOB_N: i64 = 64;
const JOB_SEG: usize = 8;
const SPARSITY_THRESHOLD: f64 = 1e-6;
/// Jobs each client submits in one round (one repeat).
pub const JOBS_PER_CLIENT: usize = 12;
const MAX_CONCURRENT: usize = 2;
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Dense,
    Sparse,
    Served,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Dense => "dense",
            Kind::Sparse => "sparse",
            Kind::Served => "served",
        }
    }

    /// The job's SIAL text; `c` is the seed's fill coefficient.
    pub fn source(self, c: f64) -> String {
        let (decl, fill, store, load) = match self {
            Kind::Dense => ("distributed", format!("{c} * i + j"), "put", "get"),
            Kind::Sparse => (
                "sparse distributed",
                format!("{c} / (1.0 + 1000.0 * (i - j) * (i - j))"),
                "put",
                "get",
            ),
            Kind::Served => ("served", format!("2.0 * i - {c} * j"), "prepare", "request"),
        };
        let barrier = if self == Kind::Served {
            "server_barrier"
        } else {
            "sip_barrier"
        };
        format!(
            "sial loadgen_{name}
aoindex i = 1, n
aoindex j = 1, n
{decl} A(i,j)
temp t(i,j)
scalar total
pardo i, j
  t(i,j) = {fill}
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
",
            name = self.name()
        )
    }

    /// Closed form of the job's `total` and the absolute error screening
    /// may add: a skipped block product is smaller than the threshold.
    pub fn total(self, c: f64) -> (f64, f64) {
        let elems = (JOB_SEG * JOB_SEG) as f64;
        let mut sum = 0.0;
        for i in 1..=JOB_N {
            for j in 1..=JOB_N {
                let (i, j) = (i as f64, j as f64);
                let v = match self {
                    Kind::Dense => c * i + j,
                    Kind::Sparse => c / (1.0 + 1000.0 * (i - j) * (i - j)),
                    Kind::Served => 2.0 * i - c * j,
                };
                sum += elems * v * v;
            }
        }
        let screened = match self {
            Kind::Sparse => (JOB_N * JOB_N) as f64 * SPARSITY_THRESHOLD,
            _ => 0.0,
        };
        (sum, screened)
    }
}

/// Client 0's job kinds for one round: as many dense as sparse jobs, in an
/// order drawn from the seed and the round.
pub fn job_order(seed: u64, round: usize) -> Vec<Kind> {
    let mut g = Seed::new(seed ^ (round as u64).wrapping_mul(0x1000_0000_01b3));
    let mut order: Vec<Kind> = (0..JOBS_PER_CLIENT)
        .map(|k| {
            if k % 2 == 0 {
                Kind::Dense
            } else {
                Kind::Sparse
            }
        })
        .collect();
    for k in (1..order.len()).rev() {
        order.swap(k, (g.next() % (k as u64 + 1)) as usize);
    }
    order
}

pub struct ServeMix {
    seed: u64,
    coeff: f64,
    /// The probes time the layers on the dense job.
    dense: ProbeInput,
    data: PathBuf,
    daemon: Option<Daemon>,
    rounds: usize,
}

impl ServeMix {
    pub fn new(seed: u64, data: &Path) -> Result<Self, String> {
        let coeff = Seed::new(seed).coeff();
        Ok(ServeMix {
            seed,
            coeff,
            dense: ProbeInput {
                source: Kind::Dense.source(coeff),
                bindings: ConstBindings::from([("n".to_string(), JOB_N)]),
                config: job_config(Kind::Dense)?,
                registry: SuperRegistry::new(),
                contraction: Contraction::block_dot(JOB_SEG),
            },
            data: data.to_path_buf(),
            daemon: None,
            rounds: 0,
        })
    }
}

fn job_config(kind: Kind) -> Result<SipConfig, String> {
    let threshold = if kind == Kind::Sparse {
        SPARSITY_THRESHOLD
    } else {
        0.0
    };
    SipConfig::builder()
        .workers(1)
        .io_servers(1)
        .segment_size(JOB_SEG)
        .sparsity_threshold(threshold)
        .build()
        .map_err(|e| e.to_string())
}

/// Compiles `source` into a job of `kind` over `n`×`n` blocks.
pub fn job_spec(kind: Kind, source: &str, n: i64, traced: bool) -> Result<JobSpec, String> {
    Ok(JobSpec {
        tenant: kind.name().into(),
        priority: 1,
        program: sial_frontend::compile(source).map_err(|e| format!("compile: {e}"))?,
        bindings: ConstBindings::from([("n".to_string(), n)]),
        config: job_config(kind)?,
        registry: SuperRegistry::new(),
        export: traced,
    })
}

struct Job {
    kind: Kind,
    latency_s: f64,
    outcome: Result<JobStatus, String>,
}

/// Compile, submit, wait, check: one job of one client.
fn one_job(
    daemon: &Daemon,
    kind: Kind,
    c: f64,
    traced: bool,
    spans: &Spans,
    parent: SpanId,
) -> Job {
    let (outcome, took) = spans.time("job", parent, |job| {
        let source = kind.source(c);
        let (spec, _) = spans.time("compile", job, |_| job_spec(kind, &source, JOB_N, traced));
        let (status, _) = spans.time("submit_wait", job, |_| {
            let id = daemon.submit(spec?).map_err(|e| format!("submit: {e}"))?;
            daemon
                .wait(id, JOB_TIMEOUT)
                .ok_or_else(|| format!("job {id}: no result in {JOB_TIMEOUT:?}"))
        });
        let (checked, _) = spans.time("check", job, |_| {
            let status = status?;
            if let JobState::Failed(e) = &status.state {
                return Err(format!("job {}: {e}", status.id));
            }
            let got = status
                .scalars
                .iter()
                .find(|(n, _)| n == "total")
                .map(|&(_, v)| v);
            let (want, screened) = kind.total(c);
            match got {
                Some(v) if close(v, want, screened) => Ok(status),
                got => Err(format!(
                    "job {}: total = {got:?}, expected {want:?}",
                    status.id
                )),
            }
        });
        checked
    });
    Job {
        kind,
        latency_s: took.as_secs_f64(),
        outcome: outcome.map_err(|e| format!("{} {e}", kind.name())),
    }
}

/// What the daemon exported for a traced job, read back from its files.
fn job_facts(status: &JobStatus) -> RunFacts {
    let read = |p: &Option<PathBuf>| {
        p.as_ref()
            .and_then(|p| std::fs::read_to_string(p).ok())
            .and_then(|t| Json::parse(&t).ok())
            .unwrap_or(Json::Null)
    };
    let profile = read(&status.profile_json);
    let trace = read(&status.trace_path);
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .map_or(0, |evs| {
            evs.iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
                .count()
        });
    RunFacts {
        // Message and dropped-event counts are not visible through the
        // daemon's surface; bytes are, in the exported profile.
        messages: 0.0,
        bytes: profile
            .path("metrics.comm_plan.actual_bytes")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        events: events as f64,
        events_dropped: 0.0,
        job: Some(JobFacts {
            queued_ms: status.queued_ms as f64,
            run_ms: status.run_ms as f64,
            rate: status.granted as f64
                / (status.total.max(1) as f64 * (status.run_ms as f64 / 1e3).max(1e-6)),
        }),
        profile,
    }
}

impl Workload for ServeMix {
    fn prepare(&mut self, spans: &Spans, parent: SpanId) -> Result<(), String> {
        let (daemon, _) = spans.time("start", parent, |_| {
            Daemon::new(DaemonConfig {
                max_concurrent: MAX_CONCURRENT,
                data_dir: self.data.clone(),
                ..DaemonConfig::default()
            })
        });
        self.daemon = Some(daemon);
        Ok(())
    }

    /// One round: both clients submit [`JOBS_PER_CLIENT`] jobs each.
    fn repeat(&mut self, traced: bool, spans: &Spans, parent: SpanId) -> Repeat {
        let Some(daemon) = &self.daemon else {
            return Repeat::failed("repeat before prepare");
        };
        self.rounds += 1;
        let orders = [
            job_order(self.seed, self.rounds),
            vec![Kind::Served; JOBS_PER_CLIENT],
        ];
        let c = self.coeff;
        let start = Instant::now();
        let jobs: Vec<Job> = std::thread::scope(|scope| {
            let clients: Vec<_> = orders
                .iter()
                .map(|order| {
                    scope.spawn(move || {
                        order
                            .iter()
                            .map(|&kind| one_job(daemon, kind, c, traced, spans, parent))
                            .collect::<Vec<Job>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        let mut rep = Repeat {
            wall_s: start.elapsed().as_secs_f64(),
            attempted: jobs.len() as u64,
            ..Repeat::default()
        };
        for job in jobs {
            rep.jobs.push((job.kind.name(), job.latency_s));
            match job.outcome {
                Ok(status) if traced => rep.runs.push(job_facts(&status)),
                Ok(_) => {}
                Err(e) => rep.failures.push(e),
            }
        }
        rep
    }

    fn probe_input(&self) -> &ProbeInput {
        &self.dense
    }

    /// Drops finished jobs' run directories and exports; the daemon's
    /// shared `served/` store stays, as it would in a long-lived daemon.
    fn tidy(&mut self) {
        for sub in ["jobs", "tenants"] {
            let _ = std::fs::remove_dir_all(self.data.join(sub));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order_and_text() {
        assert_eq!(job_order(5, 1), job_order(5, 1));
        let differs = (1..20).any(|round| job_order(5, round) != job_order(6, round));
        assert!(differs, "another seed gives another order");
        for round in 0..20 {
            let order = job_order(9, round);
            let dense = order.iter().filter(|&&k| k == Kind::Dense).count();
            assert_eq!(
                dense * 2,
                JOBS_PER_CLIENT,
                "the mix is fixed, only the order moves"
            );
        }
        let (a, b, c) = (
            ServeMix::new(5, Path::new("x")).unwrap(),
            ServeMix::new(5, Path::new("x")).unwrap(),
            ServeMix::new(6, Path::new("x")).unwrap(),
        );
        for kind in [Kind::Dense, Kind::Sparse, Kind::Served] {
            assert_eq!(
                kind.source(a.coeff).as_bytes(),
                kind.source(b.coeff).as_bytes()
            );
            assert_ne!(kind.source(a.coeff), kind.source(c.coeff));
        }
    }

    #[test]
    fn job_programs_compile_and_verify_clean() {
        for kind in [Kind::Dense, Kind::Sparse, Kind::Served] {
            let spec = job_spec(kind, &kind.source(0.5), JOB_N, false).unwrap();
            assert!(
                sia_runtime::check_program(&spec.program).is_empty(),
                "{kind:?}"
            );
        }
    }
}
