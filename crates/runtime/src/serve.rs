//! Multi-tenant serving: the `siald` daemon core.
//!
//! One SIP process serving many SIAL programs concurrently. Each admitted
//! job gets its **own fabric world** (master + workers + I/O servers as
//! threads, exactly as a one-shot run) — rank-failure isolation is by
//! construction, and the world carries the job id as its fabric tag so all
//! of a world's envelopes attribute to one tenant. A daemon job is *scheduled*
//! exactly as a one-shot run: its master hands out the same guided chunks,
//! and the jobs' threads share the CPUs the way any threads do — through the
//! OS scheduler. What the jobs *share* is deliberate and narrow:
//!
//! * **Admission control** — a job is admitted only when its dry-run memory
//!   estimate (`workers × per-worker + servers × per-server bytes`) fits the
//!   daemon's remaining budget; rejection reports the exact bytes needed vs
//!   available, the same numbers `RuntimeError::Infeasible` reports for a
//!   single run.
//! * **Run slots** — at most `max_concurrent` jobs run at once; the jobs
//!   queued behind them take a freed slot highest [`JobSpec::priority`]
//!   first, in submission order within a priority.
//! * **The served store** — every job's I/O servers keep served arrays in
//!   one shared directory, so a job reads another's blocks from the store
//!   file exactly as a one-shot run reads its own (`crate::store`: the
//!   slot seal is what keeps a read racing another job's write whole).
//!
//! Everything here is a plain library — `siald` (the Unix-socket front end)
//! and the serving tests both drive [`Daemon`] directly.

use crate::dryrun;
use crate::error::RuntimeError;
use crate::events::TraceEvent;
use crate::layout::{Layout, SipConfig};
use crate::registry::SuperRegistry;
use crate::Sip;
use sia_bytecode::{ConstBindings, Program};
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Job identifier, unique within one daemon (also the job's fabric tag).
pub type JobId = u64;

// ---- progress and fairness ----------------------------------------------------

/// Live progress of one job, written by its master and read by the daemon:
/// pardo iterations enumerated so far (`total` grows as pardos are met) and
/// handed to workers so far. A finished job has `granted == total`.
#[derive(Debug, Default)]
pub struct JobProgress {
    pub(crate) granted: AtomicU64,
    pub(crate) total: AtomicU64,
}

impl JobProgress {
    /// `(granted, total)` as of now.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.granted.load(Ordering::Relaxed),
            self.total.load(Ordering::Relaxed),
        )
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over non-negative rates.
pub fn jain_index(rates: &[f64]) -> f64 {
    let xs: Vec<f64> = rates.iter().copied().filter(|x| x.is_finite()).collect();
    if xs.len() < 2 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq)
}

/// The serving hooks a [`Sip`] carries when it runs as a daemon job: the
/// job id (also the fabric world tag) and the progress counters the job's
/// master keeps for the daemon to read.
#[derive(Clone)]
pub struct ServeHandles {
    /// This job's id.
    pub job: JobId,
    /// This job's live progress.
    pub progress: Arc<JobProgress>,
}

// ---- jobs ----------------------------------------------------------------------

/// Everything a submitted job carries.
pub struct JobSpec {
    /// Tenant name (groups per-tenant exports under `tenants/<name>/`):
    /// letters, digits, `.`, `_` and `-`, and not `.` or `..`.
    pub tenant: String,
    /// Place in the queue for a run slot: when more jobs are admitted than
    /// `max_concurrent` lets run, a freed slot goes to the highest priority
    /// waiting, in submission order within a priority. A running job is
    /// never slowed for another's sake.
    pub priority: u32,
    /// The compiled program.
    pub program: Program,
    /// Constant bindings.
    pub bindings: ConstBindings,
    /// The per-job SIP configuration. The daemon overrides `run_dir` (a
    /// private per-job directory), `served_dir` (the shared served store),
    /// and — when `export` is set — `trace_path`/`profile_json`.
    pub config: SipConfig,
    /// Super-instruction registry for the job (e.g. the chem kernels).
    pub registry: SuperRegistry,
    /// Write per-tenant trace + profile exports for this job.
    pub export: bool,
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Admitted, waiting for a run slot.
    Queued,
    /// Running on its own fabric world.
    Running,
    /// Completed successfully.
    Done,
    /// Failed (the error string; other jobs are unaffected).
    Failed(String),
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobState::Queued => write!(f, "queued"),
            JobState::Running => write!(f, "running"),
            JobState::Done => write!(f, "done"),
            JobState::Failed(_) => write!(f, "failed"),
        }
    }
}

/// A status snapshot of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id.
    pub id: JobId,
    /// Tenant name.
    pub tenant: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Milliseconds spent queued before the run started.
    pub queued_ms: u64,
    /// Milliseconds running (so far, or total when finished).
    pub run_ms: u64,
    /// Pardo iterations handed to workers so far.
    pub granted: u64,
    /// Pardo iterations enumerated so far (grows as pardos are met; equals
    /// `granted` once the job is done).
    pub total: u64,
    /// Final scalars (empty until done).
    pub scalars: Vec<(String, f64)>,
    /// Per-tenant trace export, when the job asked for one.
    pub trace_path: Option<PathBuf>,
    /// Per-tenant profile export, when the job asked for one.
    pub profile_json: Option<PathBuf>,
    /// The admission footprint charged against the daemon budget.
    pub admitted_bytes: u64,
}

/// Why a submission was refused at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The job's dry-run footprint does not fit the remaining budget.
    /// All figures are exact bytes.
    OverBudget {
        /// Bytes the job needs (workers × per-worker + servers × per-server).
        needed_bytes: u64,
        /// Bytes currently uncommitted under the daemon budget.
        available_bytes: u64,
        /// The daemon's total budget.
        budget_bytes: u64,
    },
    /// The tenant name is not a plain directory name, or the program
    /// failed layout/dry-run analysis before admission.
    Invalid(String),
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::OverBudget {
                needed_bytes,
                available_bytes,
                budget_bytes,
            } => write!(
                f,
                "admission rejected: job needs {needed_bytes} bytes but only \
                 {available_bytes} of the {budget_bytes}-byte budget are free"
            ),
            AdmitError::Invalid(m) => write!(f, "admission rejected: {m}"),
        }
    }
}

impl std::error::Error for AdmitError {}

// ---- the daemon ----------------------------------------------------------------

/// Gives the heap a finished job freed back to the OS. A job's ranks are
/// threads of their own and glibc hands every thread an arena of its own;
/// an arena keeps what its thread freed, so without this a daemon's resident
/// set settles at (arenas × one job's footprint) and, until it has, follows
/// which ranks happened to land in which arena — the benchmark's `serve_mix`
/// peaks at 12.2–12.6 MiB without it, 9.1–9.3 MiB with it (≈ 0.15 ms per
/// job). A no-op where the allocator is not glibc's.
fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes each arena's own lock, touches only
        // free chunks and is safe to call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Total memory budget in bytes that admission control enforces over
    /// the *sum* of admitted jobs' dry-run footprints.
    pub budget_bytes: u64,
    /// Maximum jobs running concurrently (admitted beyond this queue).
    pub max_concurrent: usize,
    /// Root data directory: `jobs/<id>/` per-job run dirs, `served/` the
    /// shared served-array store, `tenants/<name>/` per-tenant exports.
    pub data_dir: PathBuf,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            budget_bytes: 4 << 30,
            max_concurrent: 4,
            data_dir: std::env::temp_dir().join(format!("siald-{}", std::process::id())),
        }
    }
}

struct JobRecord {
    tenant: String,
    state: JobState,
    submitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
    progress: Arc<JobProgress>,
    scalars: Vec<(String, f64)>,
    trace_path: Option<PathBuf>,
    profile_json: Option<PathBuf>,
    admitted_bytes: u64,
}

impl JobRecord {
    fn status(&self, id: JobId) -> JobStatus {
        let (granted, total) = self.progress.snapshot();
        let queued_ms = match self.started {
            Some(t) => t.duration_since(self.submitted).as_millis() as u64,
            None => self.submitted.elapsed().as_millis() as u64,
        };
        JobStatus {
            id,
            tenant: self.tenant.clone(),
            state: self.state.clone(),
            queued_ms,
            run_ms: self.run_time().as_millis() as u64,
            granted,
            total,
            scalars: self.scalars.clone(),
            trace_path: self.trace_path.clone(),
            profile_json: self.profile_json.clone(),
            admitted_bytes: self.admitted_bytes,
        }
    }

    /// Time running: so far, or in all once finished.
    fn run_time(&self) -> Duration {
        match (self.started, self.finished) {
            (Some(s), Some(f)) => f.duration_since(s),
            (Some(s), None) => s.elapsed(),
            _ => Duration::ZERO,
        }
    }
}

/// Everything the daemon's threads share, behind [`Shared::state`]; every
/// change a thread may be waiting for is followed by `Shared::cv.notify_all`.
#[derive(Default)]
struct DaemonState {
    jobs: HashMap<JobId, JobRecord>,
    /// Finished jobs in the order they finished; the records of all but the
    /// last [`FINISHED_JOBS_KEPT`] go at the next submission.
    finished: VecDeque<JobId>,
    /// Bytes of the budget held by admitted, unfinished jobs.
    committed: u64,
    /// Jobs holding a run slot.
    running: usize,
    /// Jobs waiting for a run slot, first in line first: highest priority,
    /// then lowest id (ids are handed out in submission order).
    queue: BTreeSet<(Reverse<u32>, JobId)>,
    last_id: JobId,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// How many finished jobs' records a daemon keeps for `status` and `wait`:
/// a long-lived daemon's job table holds the running and queued jobs and
/// only this many finished ones.
pub const FINISHED_JOBS_KEPT: usize = 64;

const POISONED: &str = "daemon state lock poisoned";

#[derive(Default)]
struct Shared {
    state: Mutex<DaemonState>,
    cv: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, DaemonState> {
        self.state.lock().expect(POISONED)
    }
}

/// The long-lived serving core: admission control, per-job fabric worlds,
/// run slots in priority order, the shared served store, and per-tenant
/// exports.
pub struct Daemon {
    cfg: DaemonConfig,
    shared: Arc<Shared>,
}

/// A tenant name becomes a directory under `tenants/`, and it arrives from
/// outside (`submit … tenant=<name>`): one path component, nothing else.
fn check_tenant(name: &str) -> Result<(), AdmitError> {
    let plain = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-');
    if name.is_empty() || name == "." || name == ".." || !name.chars().all(plain) {
        return Err(AdmitError::Invalid(format!(
            "tenant `{name}` is not a name of letters, digits, `.`, `_` and `-`"
        )));
    }
    Ok(())
}

impl Daemon {
    /// Creates a daemon (its data directory is created on demand).
    pub fn new(cfg: DaemonConfig) -> Self {
        Daemon {
            cfg,
            shared: Arc::default(),
        }
    }

    /// The admission footprint of a job: its dry-run per-worker bytes times
    /// workers, plus per-server bytes times I/O servers, plus — when the
    /// job traces — the event ring every rank preallocates. The request
    /// sizes that ring, so the sum saturates rather than wraps: an
    /// oversized one is refused as over budget.
    pub fn footprint(spec: &JobSpec) -> Result<u64, RuntimeError> {
        let config = &spec.config;
        let layout = Layout::for_config(Arc::new(spec.program.clone()), &spec.bindings, config)?;
        let est = dryrun::estimate(&layout, config);
        let rings = (layout.topology.world_size() as u64)
            .saturating_mul(config.trace_buffer_events.max(16) as u64)
            .saturating_mul(std::mem::size_of::<TraceEvent>() as u64);
        let traced = spec.export || config.tracing();
        Ok((est.per_worker_bytes.saturating_mul(config.workers as u64))
            .saturating_add(
                est.per_server_bytes
                    .saturating_mul(config.io_servers as u64),
            )
            .saturating_add(if traced { rings } else { 0 }))
    }

    /// Submits a job: dry-run admission against the daemon budget, then a
    /// run thread on its own fabric world. Returns the job id immediately;
    /// poll [`Daemon::status`] or block on [`Daemon::wait`].
    pub fn submit(&self, mut spec: JobSpec) -> Result<JobId, AdmitError> {
        check_tenant(&spec.tenant)?;
        let needed = Self::footprint(&spec).map_err(|e| AdmitError::Invalid(e.to_string()))?;
        let progress = Arc::new(JobProgress::default());
        let tenant_dir = self.cfg.data_dir.join("tenants").join(&spec.tenant);
        let ticket = {
            // Admit, number and queue the job in one step, so two
            // submissions cannot both fit the same last bytes and the queue
            // sees jobs in the order their ids say.
            let mut st = self.shared.lock();
            let available = self.cfg.budget_bytes.saturating_sub(st.committed);
            if needed > available {
                return Err(AdmitError::OverBudget {
                    needed_bytes: needed,
                    available_bytes: available,
                    budget_bytes: self.cfg.budget_bytes,
                });
            }
            st.committed += needed;
            while st.finished.len() > FINISHED_JOBS_KEPT {
                let oldest = st.finished.pop_front().expect("longer than the bound");
                st.jobs.remove(&oldest);
            }
            st.last_id += 1;
            let id = st.last_id;
            let ticket = (Reverse(spec.priority), id);
            st.queue.insert(ticket);

            spec.config.run_dir = Some(self.cfg.data_dir.join("jobs").join(id.to_string()));
            spec.config.served_dir = Some(self.cfg.data_dir.join("served"));
            if spec.export {
                spec.config.trace_path = Some(tenant_dir.join(format!("job{id}-trace.json")));
                spec.config.profile_json = Some(tenant_dir.join(format!("job{id}-profile.json")));
            }
            st.jobs.insert(
                id,
                JobRecord {
                    tenant: spec.tenant.clone(),
                    state: JobState::Queued,
                    submitted: Instant::now(),
                    started: None,
                    finished: None,
                    progress: Arc::clone(&progress),
                    scalars: Vec::new(),
                    trace_path: spec.config.trace_path.clone(),
                    profile_json: spec.config.profile_json.clone(),
                    admitted_bytes: needed,
                },
            );
            ticket
        };
        let id = ticket.1;

        let shared = Arc::clone(&self.shared);
        let max_concurrent = self.cfg.max_concurrent.max(1);
        let handle = std::thread::spawn(move || {
            {
                // Queued until a run slot is free and this job is first in
                // line for it.
                let mut st = shared.lock();
                while st.running >= max_concurrent || st.queue.first() != Some(&ticket) {
                    st = shared.cv.wait(st).expect(POISONED);
                }
                st.queue.pop_first();
                st.running += 1;
                let r = st.jobs.get_mut(&id).expect("a job's record outlives it");
                r.state = JobState::Running;
                r.started = Some(Instant::now());
                // The next in line may have a slot too: it looked while
                // this job was still ahead of it.
                shared.cv.notify_all();
            }
            if spec.export {
                let _ = std::fs::create_dir_all(&tenant_dir);
            }
            let mut sip = Sip::new(spec.config).with_registry(spec.registry);
            sip.set_serving(ServeHandles { job: id, progress });
            let result = sip.run(spec.program, &spec.bindings);
            // The job's world is gone; its memory goes with it before the
            // job is reported finished.
            release_freed_heap();

            let mut st = shared.lock();
            st.committed = st.committed.saturating_sub(needed);
            st.running -= 1;
            let r = st.jobs.get_mut(&id).expect("a job's record outlives it");
            r.finished = Some(Instant::now());
            match result {
                Ok(out) => {
                    r.scalars = out.scalars.into_iter().collect();
                    r.state = JobState::Done;
                }
                Err(e) => r.state = JobState::Failed(e.to_string()),
            }
            st.finished.push_back(id);
            shared.cv.notify_all();
        });

        // A long-lived daemon keeps no handle of a job that is over.
        let mut st = self.shared.lock();
        let (over, live) = std::mem::take(&mut st.threads)
            .into_iter()
            .partition(|h| h.is_finished());
        st.threads = live;
        st.threads.push(handle);
        for h in over {
            let _ = h.join();
        }
        Ok(id)
    }

    /// Status of one job, or `None` for an id never handed out or one whose
    /// record was pruned (see [`FINISHED_JOBS_KEPT`]).
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.shared.lock().jobs.get(&id).map(|r| r.status(id))
    }

    /// Status of every job, sorted by id.
    pub fn list(&self) -> Vec<JobStatus> {
        let st = self.shared.lock();
        let mut out: Vec<JobStatus> = st.jobs.iter().map(|(&id, r)| r.status(id)).collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// Blocks until the job finishes (done or failed) or `timeout` passes.
    /// Returns the final status, or `None` on timeout/unknown id. A timeout
    /// too large to be a point in time waits without bound.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now().checked_add(timeout);
        let mut st = self.shared.lock();
        loop {
            let r = st.jobs.get(&id)?;
            if r.finished.is_some() {
                return Some(r.status(id));
            }
            st = match deadline {
                Some(d) => {
                    let left = d.checked_duration_since(Instant::now())?;
                    self.shared.cv.wait_timeout(st, left).expect(POISONED).0
                }
                None => self.shared.cv.wait(st).expect(POISONED),
            };
        }
    }

    /// Joins every job thread (all jobs run to completion first).
    pub fn shutdown(&self) {
        // Also what `Drop` runs, where a poisoned lock must not panic again.
        let Ok(mut st) = self.shared.state.lock() else {
            return;
        };
        let handles = std::mem::take(&mut st.threads);
        drop(st);
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[5.0]), 1.0);
        assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One job hogging everything: J = 1/n.
        let j = jain_index(&[1.0, 0.0, 0.0]);
        assert!((j - 1.0 / 3.0).abs() < 1e-12, "{j}");
        // Mild skew stays high.
        assert!(jain_index(&[1.0, 0.9, 1.1]) > 0.95);
    }
}
