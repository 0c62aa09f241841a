//! Multi-tenant serving: the `siald` daemon core.
//!
//! One SIP process serving many SIAL programs concurrently. Each admitted
//! job gets its **own fabric world** (master + workers + I/O servers as
//! threads, exactly as a one-shot run) — rank-failure isolation is by
//! construction, and the world carries the job id as its fabric tag so all
//! of a world's envelopes attribute to one tenant. What the jobs *share* is
//! deliberate and narrow:
//!
//! * **Admission control** — a job is admitted only when its dry-run memory
//!   estimate (`workers × per-worker + servers × per-server bytes`) fits the
//!   daemon's remaining budget; rejection reports the exact bytes needed vs
//!   available, the same numbers `RuntimeError::Infeasible` reports for a
//!   single run.
//! * **Fair-share chunk scheduling** — every job's master consults one
//!   [`ShareArbiter`] before granting a pardo chunk. The arbiter tracks each
//!   job's *normalized progress* (granted iterations / total, divided by its
//!   priority weight); a job running ahead of the slowest active job gets
//!   scaled-down chunks and a brief yield, so normalized progress rates —
//!   exactly what the Jain fairness index is computed over — converge.
//! * **A warm block cache** — served-array blocks read or flushed by any
//!   job's I/O server are published to a shared [`WarmCache`] keyed by
//!   store file and slot; a second job referencing the same served array
//!   hits memory instead of disk (`server.warm_hits` in its profile).
//!
//! Everything here is a plain library — `siald` (the Unix-socket front end)
//! and the serving tests both drive [`Daemon`] directly.

use crate::dryrun;
use crate::error::RuntimeError;
use crate::layout::{Layout, SipConfig, Topology};
use crate::registry::SuperRegistry;
use crate::Sip;
use sia_blocks::BlockHandle;
use sia_bytecode::{ConstBindings, Program};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Job identifier, unique within one daemon (also the job's fabric tag).
pub type JobId = u64;

// ---- fair-share arbiter --------------------------------------------------------

/// Progress a job ahead of the slowest active job by more than this margin
/// gets half-sized chunks; twice the margin, quarter-sized plus a yield.
const SHARE_SLACK: f64 = 0.05;
/// One step of the over-share yield loop.
const OVER_SHARE_YIELD: Duration = Duration::from_micros(200);
/// Cap on the total yield per grant: a job's master must keep servicing
/// its own heartbeats/liveness well inside the fault-tolerance timeouts,
/// so a single grant never stalls longer than this — the *next* grant
/// yields again if the job is still ahead.
const OVER_SHARE_YIELD_CAP: Duration = Duration::from_millis(20);

#[derive(Debug, Default, Clone)]
struct JobShare {
    /// Priority weight (≥ 1.0): a weight-2 job is entitled to run twice as
    /// far ahead as a weight-1 job before the arbiter throttles it.
    weight: f64,
    /// Iterations enumerated so far (grows as pardos are encountered).
    total: u64,
    /// Iterations granted to workers so far.
    granted: u64,
    /// Whether the job is still running (finished jobs drop out of the
    /// fair-share comparison but keep their counters for reporting).
    active: bool,
    /// Wall-clock seconds spent running (set on finish; live jobs report
    /// elapsed-so-far).
    started: Option<Instant>,
    run_secs: f64,
}

/// Cross-job fair-share state: one per daemon, shared by every job's master.
///
/// The arbiter equalizes *normalized progress* — the fraction of its own
/// iteration space each job has been granted, divided by its priority
/// weight. A master asks [`ShareArbiter::chunk_scale`] before every grant;
/// over-share jobs get fractional chunks (and a brief yield), which slows
/// their grant loop until the others catch up.
#[derive(Debug, Default)]
pub struct ShareArbiter {
    jobs: Mutex<HashMap<JobId, JobShare>>,
}

impl ShareArbiter {
    /// Creates an empty arbiter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a job with a priority weight (clamped to ≥ 1.0; a higher
    /// weight entitles the job to proportionally more progress).
    pub fn register(&self, job: JobId, weight: f64) {
        let mut jobs = self.jobs.lock().unwrap();
        jobs.insert(
            job,
            JobShare {
                weight: weight.max(1.0),
                active: true,
                started: Some(Instant::now()),
                ..JobShare::default()
            },
        );
    }

    /// Marks a job finished: it leaves the fair-share comparison.
    pub fn finish(&self, job: JobId) {
        let mut jobs = self.jobs.lock().unwrap();
        if let Some(s) = jobs.get_mut(&job) {
            s.active = false;
            if let Some(t0) = s.started {
                s.run_secs = t0.elapsed().as_secs_f64();
            }
        }
    }

    /// Adds `n` iterations to a job's known total (called by its master as
    /// each pardo's iteration space is enumerated).
    pub fn add_total(&self, job: JobId, n: u64) {
        let mut jobs = self.jobs.lock().unwrap();
        if let Some(s) = jobs.get_mut(&job) {
            s.total += n;
        }
    }

    /// Records `n` iterations granted to one of the job's workers.
    pub fn record_grant(&self, job: JobId, n: u64) {
        let mut jobs = self.jobs.lock().unwrap();
        if let Some(s) = jobs.get_mut(&job) {
            s.granted += n;
        }
    }

    fn norm_progress(s: &JobShare) -> f64 {
        if s.total == 0 {
            return 0.0;
        }
        (s.granted as f64 / s.total as f64) / s.weight
    }

    /// How far the job's normalized progress runs ahead of the slowest
    /// active job's, or `None` when there is no one to compare against.
    fn ahead_of_pack(&self, job: JobId) -> Option<f64> {
        let jobs = self.jobs.lock().unwrap();
        let s = jobs.get(&job)?;
        let mine = Self::norm_progress(s);
        let min_active = jobs
            .values()
            .filter(|s| s.active && s.total > 0)
            .map(Self::norm_progress)
            .fold(f64::INFINITY, f64::min);
        min_active.is_finite().then_some(mine - min_active)
    }

    /// The chunk scale a job's master should apply to its next grant: 1.0
    /// when the job is at or behind the slowest active job's normalized
    /// progress, shrinking as it runs ahead. A job *well* over share also
    /// yields — re-checking as it waits, so a job whose iterations are
    /// intrinsically cheap (screened-sparse, say) is actually paced to the
    /// pack rather than merely handed smaller chunks it burns through just
    /// as fast. The yield is bounded per grant so the master keeps
    /// servicing its own world. Called with the arbiter lock *released*
    /// while yielding.
    pub fn chunk_scale(&self, job: JobId) -> f64 {
        let Some(mut ahead) = self.ahead_of_pack(job) else {
            return 1.0;
        };
        if ahead > 2.0 * SHARE_SLACK {
            let deadline = Instant::now() + OVER_SHARE_YIELD_CAP;
            while ahead > SHARE_SLACK && Instant::now() < deadline {
                std::thread::sleep(OVER_SHARE_YIELD);
                match self.ahead_of_pack(job) {
                    Some(a) => ahead = a,
                    None => return 1.0,
                }
            }
        }
        if ahead > 2.0 * SHARE_SLACK {
            // Still over share after the bounded yield: shrink the grant in
            // proportion to the overshoot. Smaller chunks mean the worker is
            // back for the next grant sooner, and every grant is another
            // bounded yield — so the total pacing a runaway job accumulates
            // scales with how far ahead it is, not with a fixed constant.
            (SHARE_SLACK / ahead).clamp(0.02, 0.25)
        } else if ahead > SHARE_SLACK {
            0.5
        } else {
            1.0
        }
    }

    /// Per-job normalized service rates: fraction of the job's own
    /// iteration space granted per second of runtime, divided by its
    /// weight. The quantity the Jain index is computed over.
    pub fn service_rates(&self) -> Vec<(JobId, f64)> {
        let jobs = self.jobs.lock().unwrap();
        let mut out: Vec<(JobId, f64)> = jobs
            .iter()
            .filter(|(_, s)| s.total > 0)
            .map(|(&id, s)| {
                let secs = if s.active {
                    s.started.map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0)
                } else {
                    s.run_secs
                };
                (id, Self::norm_progress(s) / secs.max(1e-9))
            })
            .collect();
        out.sort_by_key(|&(id, _)| id);
        out
    }

    /// Progress snapshot `(granted, total)` for one job.
    pub fn progress(&self, job: JobId) -> (u64, u64) {
        let jobs = self.jobs.lock().unwrap();
        jobs.get(&job)
            .map(|s| (s.granted, s.total))
            .unwrap_or((0, 0))
    }

    /// Jain fairness index over the current service rates (1.0 = perfectly
    /// fair; 1/n = one job got everything). 1.0 when fewer than two jobs
    /// have run.
    pub fn jain(&self) -> f64 {
        jain_index(
            &self
                .service_rates()
                .iter()
                .map(|&(_, r)| r)
                .collect::<Vec<_>>(),
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

// ---- warm block cache ----------------------------------------------------------

/// A shared cache of served-array block payloads, warm across jobs: any
/// job's I/O server publishes blocks it reads from or flushes to disk, and
/// any job's server consults it before going to disk. A block is keyed by
/// its array's store file and its slot in that file, so only jobs whose
/// layouts resolve a block to the same slot of the same file (same served
/// directory, same geometry — the store's header is checked on open) ever
/// share an entry — sharing is opt-in by pointing jobs at one served dir,
/// exactly what [`Daemon`] does.
#[derive(Debug)]
pub struct WarmCache {
    inner: Mutex<WarmInner>,
    capacity: usize,
}

/// A block's identity across jobs: its array's store file and its slot.
type WarmKey = (Arc<Path>, u64);

#[derive(Debug, Default)]
struct WarmInner {
    map: HashMap<WarmKey, (BlockHandle, u64)>,
    /// Eviction order, least recently used first: LRU stamp → key. Every
    /// cached key is here under its entry's stamp (stamps are unique — the
    /// clock ticks per touch), so an over-capacity insert pops the victim
    /// instead of walking the map under the daemon-wide lock.
    order: BTreeMap<u64, WarmKey>,
    clock: u64,
}

impl WarmInner {
    fn remove(&mut self, key: &WarmKey) -> Option<BlockHandle> {
        let (block, stamp) = self.map.remove(key)?;
        self.order.remove(&stamp);
        Some(block)
    }

    /// Caches `block` under `key` as the most recently used entry.
    fn touch(&mut self, key: WarmKey, block: BlockHandle) {
        self.remove(&key);
        self.clock += 1;
        self.order.insert(self.clock, key.clone());
        self.map.insert(key, (block, self.clock));
    }
}

impl WarmCache {
    /// Creates a cache holding at most `capacity` blocks (≥ 1).
    pub fn new(capacity: usize) -> Self {
        WarmCache {
            inner: Mutex::new(WarmInner::default()),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WarmInner> {
        self.inner.lock().expect("warm cache lock poisoned")
    }

    /// Looks a block up, refreshing its LRU stamp.
    pub fn get(&self, store: &Arc<Path>, slot: u64) -> Option<BlockHandle> {
        let key = (Arc::clone(store), slot);
        let mut g = self.lock();
        let block = g.remove(&key)?;
        g.touch(key, block.clone());
        Some(block)
    }

    /// Publishes (or refreshes) a block, evicting the LRU entry over
    /// capacity. Handles are shared, not copied.
    pub fn insert(&self, store: &Arc<Path>, slot: u64, block: BlockHandle) {
        let mut g = self.lock();
        g.touch((Arc::clone(store), slot), block);
        while g.map.len() > self.capacity {
            let Some((_, victim)) = g.order.pop_first() else {
                break;
            };
            g.map.remove(&victim);
        }
    }

    /// Drops one entry (a write made the published payload stale).
    pub fn invalidate(&self, store: &Arc<Path>, slot: u64) {
        self.lock().remove(&(Arc::clone(store), slot));
    }

    /// Drops every entry of one store file (array deletion).
    pub fn invalidate_store(&self, store: &Path) {
        let mut g = self.lock();
        g.map.retain(|(file, _), _| **file != *store);
        g.order.retain(|_, (file, _)| **file != *store);
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The serving hooks a [`Sip`] carries when it runs as a daemon job: the
/// job id (also the fabric world tag), the shared fair-share arbiter, and
/// the shared warm cache.
#[derive(Clone)]
pub struct ServeHandles {
    /// This job's id.
    pub job: JobId,
    /// The daemon-wide fair-share arbiter.
    pub arbiter: Arc<ShareArbiter>,
    /// The daemon-wide warm block cache.
    pub warm: Arc<WarmCache>,
}

// ---- jobs ----------------------------------------------------------------------

/// Everything a submitted job carries.
pub struct JobSpec {
    /// Tenant name (groups per-tenant exports under `tenants/<name>/`).
    pub tenant: String,
    /// Priority weight (≥ 1; higher = entitled to more progress).
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
    /// Iterations granted / enumerated (fair-share progress).
    pub granted: u64,
    /// Total iterations enumerated so far.
    pub total: u64,
    /// Warm-cache hits this job's I/O servers took.
    pub warm_hits: u64,
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
    /// The program failed layout/dry-run analysis before admission.
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
    /// Warm-cache capacity in blocks.
    pub warm_blocks: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            budget_bytes: 4 << 30,
            max_concurrent: 4,
            data_dir: std::env::temp_dir().join(format!("siald-{}", std::process::id())),
            warm_blocks: 4096,
        }
    }
}

struct JobRecord {
    tenant: String,
    state: JobState,
    submitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
    warm_hits: u64,
    scalars: Vec<(String, f64)>,
    trace_path: Option<PathBuf>,
    profile_json: Option<PathBuf>,
    admitted_bytes: u64,
}

#[derive(Default)]
struct RunGate {
    running: Mutex<usize>,
    cv: Condvar,
}

/// The long-lived serving core: admission control, per-job fabric worlds,
/// fair-share arbitration, the shared warm cache, and per-tenant exports.
pub struct Daemon {
    cfg: DaemonConfig,
    arbiter: Arc<ShareArbiter>,
    warm: Arc<WarmCache>,
    jobs: Arc<Mutex<HashMap<JobId, JobRecord>>>,
    committed: Arc<Mutex<u64>>,
    gate: Arc<RunGate>,
    next_id: AtomicU64,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Daemon {
    /// Creates a daemon (its data directory is created on demand).
    pub fn new(cfg: DaemonConfig) -> Self {
        Daemon {
            warm: Arc::new(WarmCache::new(cfg.warm_blocks)),
            cfg,
            arbiter: Arc::new(ShareArbiter::new()),
            jobs: Arc::new(Mutex::new(HashMap::new())),
            committed: Arc::new(Mutex::new(0)),
            gate: Arc::new(RunGate::default()),
            next_id: AtomicU64::new(1),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// The shared fair-share arbiter (for fairness reporting).
    pub fn arbiter(&self) -> &Arc<ShareArbiter> {
        &self.arbiter
    }

    /// The shared warm cache.
    pub fn warm(&self) -> &Arc<WarmCache> {
        &self.warm
    }

    /// The admission footprint of a job: its dry-run per-worker bytes times
    /// workers, plus per-server bytes times I/O servers.
    pub fn footprint(spec: &JobSpec) -> Result<u64, RuntimeError> {
        let topology = Topology {
            workers: spec.config.workers,
            io_servers: spec.config.io_servers,
            placement: spec.config.placement,
        };
        let layout = Layout::new(
            Arc::new(spec.program.clone()),
            &spec.bindings,
            spec.config.segments,
            topology,
        )?;
        let est = dryrun::estimate(&layout, &spec.config);
        Ok(est.per_worker_bytes * spec.config.workers as u64
            + est.per_server_bytes * spec.config.io_servers as u64)
    }

    /// Submits a job: dry-run admission against the daemon budget, then a
    /// run thread on its own fabric world. Returns the job id immediately;
    /// poll [`Daemon::status`] or block on [`Daemon::wait`].
    pub fn submit(&self, mut spec: JobSpec) -> Result<JobId, AdmitError> {
        let needed = Self::footprint(&spec).map_err(|e| AdmitError::Invalid(e.to_string()))?;
        let id = {
            // Admit under the lock so two submissions cannot both fit the
            // same last bytes.
            let mut committed = self.committed.lock().unwrap();
            let available = self.cfg.budget_bytes.saturating_sub(*committed);
            if needed > available {
                return Err(AdmitError::OverBudget {
                    needed_bytes: needed,
                    available_bytes: available,
                    budget_bytes: self.cfg.budget_bytes,
                });
            }
            *committed += needed;
            self.next_id.fetch_add(1, Ordering::Relaxed)
        };

        // Serving wants fine-grained grants: the arbiter paces jobs at
        // chunk boundaries, and the default guided factor hands out most of
        // a pardo in the first few chunks — far coarser than the 5% share
        // slack. A higher factor keeps chunks a few percent of the space.
        if spec.config.chunk_policy.is_none() {
            spec.config.chunk_policy = Some(crate::scheduler::ChunkPolicy::Guided { factor: 16 });
        }

        // Per-job layout under the data dir.
        let job_dir = self.cfg.data_dir.join("jobs").join(id.to_string());
        let served_dir = self.cfg.data_dir.join("served");
        let tenant_dir = self.cfg.data_dir.join("tenants").join(&spec.tenant);
        spec.config.run_dir = Some(job_dir);
        spec.config.served_dir = Some(served_dir);
        let (trace_path, profile_json) = if spec.export {
            let _ = std::fs::create_dir_all(&tenant_dir);
            let t = tenant_dir.join(format!("job{id}-trace.json"));
            let p = tenant_dir.join(format!("job{id}-profile.json"));
            spec.config.trace_path = Some(t.clone());
            spec.config.profile_json = Some(p.clone());
            (Some(t), Some(p))
        } else {
            (None, None)
        };

        self.jobs.lock().unwrap().insert(
            id,
            JobRecord {
                tenant: spec.tenant.clone(),
                state: JobState::Queued,
                submitted: Instant::now(),
                started: None,
                finished: None,
                warm_hits: 0,
                scalars: Vec::new(),
                trace_path,
                profile_json,
                admitted_bytes: needed,
            },
        );

        let arbiter = Arc::clone(&self.arbiter);
        let warm = Arc::clone(&self.warm);
        let jobs = Arc::clone(&self.jobs);
        let committed = Arc::clone(&self.committed);
        let gate = Arc::clone(&self.gate);
        let max_concurrent = self.cfg.max_concurrent.max(1);
        let handle = std::thread::spawn(move || {
            // Concurrency gate: queued until a run slot frees up.
            {
                let mut running = gate.running.lock().unwrap();
                while *running >= max_concurrent {
                    running = gate.cv.wait(running).unwrap();
                }
                *running += 1;
            }
            {
                let mut g = jobs.lock().unwrap();
                if let Some(r) = g.get_mut(&id) {
                    r.state = JobState::Running;
                    r.started = Some(Instant::now());
                }
            }
            arbiter.register(id, spec.priority as f64);
            let mut sip = Sip::new(spec.config).with_registry(spec.registry);
            sip.set_serving(ServeHandles {
                job: id,
                arbiter: Arc::clone(&arbiter),
                warm,
            });
            let result = sip.run(spec.program, &spec.bindings);
            arbiter.finish(id);
            {
                let mut g = jobs.lock().unwrap();
                if let Some(r) = g.get_mut(&id) {
                    r.finished = Some(Instant::now());
                    match result {
                        Ok(out) => {
                            r.warm_hits = out.profile.metrics.server.warm_hits;
                            r.scalars = out.scalars.into_iter().collect();
                            r.state = JobState::Done;
                        }
                        Err(e) => r.state = JobState::Failed(e.to_string()),
                    }
                }
            }
            {
                let mut c = committed.lock().unwrap();
                *c = c.saturating_sub(needed);
            }
            let mut running = gate.running.lock().unwrap();
            *running -= 1;
            gate.cv.notify_all();
        });
        self.threads.lock().unwrap().push(handle);
        Ok(id)
    }

    /// Status of one job, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let jobs = self.jobs.lock().unwrap();
        jobs.get(&id).map(|r| self.snapshot(id, r))
    }

    fn snapshot(&self, id: JobId, r: &JobRecord) -> JobStatus {
        let (granted, total) = self.arbiter.progress(id);
        let queued_ms = match r.started {
            Some(t) => t.duration_since(r.submitted).as_millis() as u64,
            None => r.submitted.elapsed().as_millis() as u64,
        };
        let run_ms = match (r.started, r.finished) {
            (Some(s), Some(f)) => f.duration_since(s).as_millis() as u64,
            (Some(s), None) => s.elapsed().as_millis() as u64,
            _ => 0,
        };
        JobStatus {
            id,
            tenant: r.tenant.clone(),
            state: r.state.clone(),
            queued_ms,
            run_ms,
            granted,
            total,
            warm_hits: r.warm_hits,
            scalars: r.scalars.clone(),
            trace_path: r.trace_path.clone(),
            profile_json: r.profile_json.clone(),
            admitted_bytes: r.admitted_bytes,
        }
    }

    /// Status of every job, sorted by id.
    pub fn list(&self) -> Vec<JobStatus> {
        let jobs = self.jobs.lock().unwrap();
        let mut out: Vec<JobStatus> = jobs.iter().map(|(&id, r)| self.snapshot(id, r)).collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// Blocks until the job finishes (done or failed) or `timeout` passes.
    /// Returns the final status, or `None` on timeout/unknown id.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        // A job thread records its final state and only then takes the gate
        // to notify, so no completion can slip between the status check and
        // the wait below.
        let mut running = self.gate.running.lock().unwrap();
        loop {
            let status = self.status(id)?;
            if matches!(status.state, JobState::Done | JobState::Failed(_)) {
                return Some(status);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            running = self.gate.cv.wait_timeout(running, left).unwrap().0;
        }
    }

    /// Jain fairness index over the jobs' normalized service rates.
    pub fn fairness(&self) -> f64 {
        self.arbiter.jain()
    }

    /// Joins every job thread (all jobs run to completion first).
    pub fn shutdown(&self) {
        let handles: Vec<_> = self.threads.lock().unwrap().drain(..).collect();
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
    use sia_blocks::{Block, Shape};

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

    #[test]
    fn arbiter_throttles_the_job_ahead() {
        let a = ShareArbiter::new();
        a.register(1, 1.0);
        a.register(2, 1.0);
        a.add_total(1, 100);
        a.add_total(2, 100);
        a.record_grant(1, 50);
        a.record_grant(2, 10);
        assert!(a.chunk_scale(1) < 1.0, "job 1 is 40% ahead");
        assert_eq!(a.chunk_scale(2), 1.0, "job 2 is the slowest");
        // A finished job drops out of the comparison.
        a.finish(2);
        assert_eq!(a.chunk_scale(1), 1.0, "job 1 is the only active job");
    }

    #[test]
    fn arbiter_priority_weight_raises_entitlement() {
        let a = ShareArbiter::new();
        a.register(1, 2.0); // priority 2: entitled to 2× progress
        a.register(2, 1.0);
        a.add_total(1, 100);
        a.add_total(2, 100);
        a.record_grant(1, 40);
        a.record_grant(2, 40);
        // Normalized: job1 = 0.40/2 = 0.20, job2 = 0.40. Job 1 is *behind*
        // despite equal raw progress.
        assert_eq!(a.chunk_scale(1), 1.0);
        assert!(a.chunk_scale(2) < 1.0);
    }

    fn warm_blk(v: f64) -> BlockHandle {
        BlockHandle::new(Block::filled(Shape::new(&[2]), v))
    }

    fn store(n: u32) -> Arc<Path> {
        PathBuf::from(format!("/served/a{n}.srv")).into()
    }

    #[test]
    fn warm_cache_lru_and_invalidate() {
        let w = WarmCache::new(2);
        let (a1, a2) = (store(1), store(2));
        w.insert(&a1, 1, warm_blk(1.0));
        w.insert(&a1, 2, warm_blk(2.0));
        assert!(w.get(&a1, 1).is_some());
        // Inserting a third evicts the LRU (slot 2 — slot 1 was just touched).
        w.insert(&a2, 1, warm_blk(3.0));
        assert_eq!(w.len(), 2);
        assert!(w.get(&a1, 2).is_none());
        assert!(w.get(&a1, 1).is_some());
        // A deleted array takes its own entries only, whoever names the file.
        w.invalidate_store(&store(1));
        assert!(w.get(&a1, 1).is_none());
        assert_eq!(w.get(&a2, 1), Some(warm_blk(3.0)));
        w.invalidate(&a2, 1);
        assert!(w.is_empty());
    }

    /// The eviction order is an index over the map: whatever mix of
    /// lookups, publications and invalidations ran, every cached key sits in
    /// the order under its own stamp, and nothing else does.
    #[test]
    fn warm_order_tracks_the_map() {
        let w = WarmCache::new(5);
        let stores = [store(1), store(2)];
        for step in 0..600u64 {
            let (file, slot) = (&stores[(step * 7 % 2) as usize], step * 5 % 4);
            match step % 7 {
                0..=2 => w.insert(file, slot, warm_blk(step as f64)),
                3 | 4 => drop(w.get(file, slot)),
                5 => w.invalidate(file, slot),
                _ if step % 97 == 6 => w.invalidate_store(file),
                _ => {}
            }
            let g = w.lock();
            assert!(g.map.len() <= 5, "step {step}");
            assert_eq!(g.order.len(), g.map.len(), "step {step}");
            for (key, (_, stamp)) in &g.map {
                assert_eq!(g.order.get(stamp), Some(key), "step {step}");
            }
        }
    }
}
