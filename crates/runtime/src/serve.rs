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
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};
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
/// job id (also the fabric world tag), the shared warm cache, and the
/// progress counters the job's master keeps for the daemon to read.
#[derive(Clone)]
pub struct ServeHandles {
    /// This job's id.
    pub job: JobId,
    /// The daemon-wide warm block cache.
    pub warm: Arc<WarmCache>,
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
/// which ranks happened to land in which arena — 19–27 MiB from run to run
/// of one job mix, against 14–16 MiB with it (≈ 0.15 ms per job). A no-op
/// where the allocator is not glibc's.
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
    progress: Arc<JobProgress>,
    warm_hits: u64,
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
            warm_hits: self.warm_hits,
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
/// run slots in priority order, the shared warm cache, and per-tenant
/// exports.
pub struct Daemon {
    cfg: DaemonConfig,
    warm: Arc<WarmCache>,
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
            warm: Arc::new(WarmCache::new(cfg.warm_blocks)),
            cfg,
            shared: Arc::default(),
        }
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
                    warm_hits: 0,
                    scalars: Vec::new(),
                    trace_path: spec.config.trace_path.clone(),
                    profile_json: spec.config.profile_json.clone(),
                    admitted_bytes: needed,
                },
            );
            ticket
        };
        let id = ticket.1;

        let warm = Arc::clone(&self.warm);
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
            sip.set_serving(ServeHandles {
                job: id,
                warm,
                progress,
            });
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
                    r.warm_hits = out.profile.metrics.server.warm_hits;
                    r.scalars = out.scalars.into_iter().collect();
                    r.state = JobState::Done;
                }
                Err(e) => r.state = JobState::Failed(e.to_string()),
            }
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

    /// Status of one job, or `None` for an unknown id.
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

    /// Jain fairness index over the jobs' service rates: the fraction of
    /// its own iteration space each started job was granted per second of
    /// its run. 1.0 when fewer than two jobs have met a pardo.
    pub fn fairness(&self) -> f64 {
        let st = self.shared.lock();
        let rates: Vec<f64> = st
            .jobs
            .values()
            .filter_map(|r| {
                let (granted, total) = r.progress.snapshot();
                (total > 0)
                    .then(|| granted as f64 / total as f64 / r.run_time().as_secs_f64().max(1e-9))
            })
            .collect();
        jain_index(&rates)
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
