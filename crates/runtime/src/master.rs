//! The SIP master: setup, guided chunk scheduling, barrier and collective
//! coordination, checkpoint files, and — under fault tolerance —
//! rank-failure recovery.
//!
//! "The master is responsible for allocating work to the workers … the set of
//! iterations … is divided into 'chunks' and doled out to the workers"
//! (§V-B). The master also arbitrates both barrier kinds, folds scalar
//! all-reduces, and owns the checkpoint facility built on
//! `blocks_to_list`/`list_to_blocks`.
//!
//! Under fault tolerance the master additionally declares a worker dead
//! when the fabric reports it killed, restores the dead worker's last epoch
//! checkpoint to the surviving homes, broadcasts `RankDead`, and re-queues
//! the corpse's unacknowledged pardo chunks to workers parked at the
//! post-pardo barrier (see DESIGN.md "Fault model & recovery").

use crate::error::{CommKind, RuntimeError};
use crate::events::{EventKind, RankTrace, RecoveryEvent, TraceSink};
use crate::ft::{self, Exhausted, Retry};
use crate::layout::{FaultConfig, Layout, OwnerCompute};
use crate::metrics::{Merge, RecoveryStats, ServerStats};
use crate::msg::{BarrierKind, BlockKey, KeyMap, OpId, Payload, SipMsg};
use crate::profile::WorkerProfile;
use crate::scheduler::{decode_ordinal, ChunkPolicy, GuidedScheduler, IterationSpace};
use crate::serve::JobProgress;
use sia_blocks::{Block, BlockHandle};
use sia_bytecode::{Instruction, PutMode};
use sia_fabric::{Endpoint, Rank};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct PardoSched {
    space: IterationSpace,
    sched: GuidedScheduler,
    /// Owner-compute affinity (pardos whose layout facts name an owner): one
    /// queue per worker of the iterations whose anchor block — the block
    /// the region's aligned put writes, or in a read-only region the block
    /// its aligned get reads — is homed at that worker. Requests are served
    /// from the requester's queue first, stealing from the fullest other
    /// queue when it drains — guided chunk sizing is unchanged.
    affinity: Option<Vec<Bucket>>,
    /// Workers told "no more chunks" (scheduler dropped when all have been).
    drained_notices: usize,
    /// Next chunk id within this (pardo, epoch).
    next_chunk: u64,
    /// Unacknowledged chunks by id (tracked only when a crash is
    /// scheduled): assignee's worker index plus the iteration ordinals,
    /// retained so the chunk can be re-queued verbatim if the assignee dies.
    outstanding: HashMap<u64, (usize, Vec<u64>)>,
    /// Acknowledged chunks (likewise), retained until the sip-barrier
    /// epoch checkpoint. A worker's *local* puts are never
    /// journaled anywhere else — under owner-compute affinity that is most
    /// of its output — so when the assignee dies mid-epoch its acked chunks
    /// are re-queued too and recomputed (Replace puts are value-idempotent;
    /// survivors' copies just get overwritten with identical bits).
    acked: HashMap<u64, (usize, Vec<u64>)>,
}

/// One worker's owner-compute queue: runs of consecutive positions in the
/// iteration space (not ordinals), so a slab's iterations cost 16 bytes a
/// run rather than 8 an iteration.
#[derive(Clone, Default)]
struct Bucket {
    runs: VecDeque<Range<u64>>,
    len: u64,
}

impl Bucket {
    fn push(&mut self, i: u64) {
        match self.runs.back_mut() {
            Some(run) if run.end == i => run.end += 1,
            _ => self.runs.push_back(i..i + 1),
        }
        self.len += 1;
    }

    /// Moves positions from the front into `out`, as ordinals, until `out`
    /// holds `want` or the bucket is empty.
    fn take(&mut self, want: usize, space: &IterationSpace, out: &mut Vec<u64>) {
        while out.len() < want {
            let Some(run) = self.runs.front_mut() else {
                break;
            };
            let k = (run.end - run.start).min((want - out.len()) as u64);
            out.extend((run.start..run.start + k).map(|i| space.ordinal(i)));
            run.start += k;
            self.len -= k;
            if run.is_empty() {
                self.runs.pop_front();
            }
        }
    }
}

/// Buckets the iterations of `space` by the slab holding each one's anchor
/// block. When the anchor key is the pardo's leading indices in order,
/// the slab never decreases along the space, so each worker's iterations
/// are one run whose end is found by bisection; any other key walks the
/// space once.
fn owner_buckets(
    layout: &Layout,
    owner: &OwnerCompute,
    space: &IterationSpace,
    ranges: &[(i64, i64)],
) -> Vec<Bucket> {
    let workers = layout.topology.workers;
    let mut vals = vec![0; ranges.len()];
    let mut slot = |i: u64| {
        decode_ordinal(ranges, space.ordinal(i), |d, v| vals[d] = v);
        layout.slot_of_distributed(&owner.key_of(&vals))
    };
    let mut buckets = vec![Bucket::default(); workers];
    let n = space.len() as u64;
    if owner.dim_pos.iter().enumerate().all(|(d, &p)| d == p) {
        let mut start = 0;
        for (w, bucket) in buckets.iter_mut().enumerate() {
            // The first position past `w`'s slab; the last slab runs to the
            // end of the space.
            let mut end = n;
            if w + 1 < workers {
                let mut lo = start;
                while lo < end {
                    let mid = lo + (end - lo) / 2;
                    if slot(mid) <= w {
                        lo = mid + 1;
                    } else {
                        end = mid;
                    }
                }
            }
            if start < end {
                bucket.runs.push_back(start..end);
                bucket.len = end - start;
            }
            start = end;
        }
    } else {
        for i in 0..n {
            buckets[slot(i)].push(i);
        }
    }
    buckets
}

#[derive(Default)]
struct CkptSave {
    blocks: Vec<(BlockKey, BlockHandle)>,
    done: usize,
}

/// A batch of master-issued restore puts awaiting acks (retried on timeout).
/// Restore puts are Replace-mode and untracked, so duplicates from retries
/// are naturally idempotent. The pending map shares each payload with the
/// wire message, so a retry re-sends the same allocation.
struct PutFlight {
    pending: KeyMap<(Rank, BlockHandle)>,
    retry: Retry,
    then: AfterFlight,
}

/// What to do once a [`PutFlight`] fully acks.
enum AfterFlight {
    /// Finish declaring a rank dead: broadcast `RankDead` and re-queue its
    /// chunks.
    Recovery {
        dead_widx: usize,
        inherited_ops: Vec<u64>,
    },
    /// Release a `list_to_blocks` rendezvous.
    CkptRelease { label: u32 },
}

/// Everything the master knows at the end of a run.
pub struct MasterOutput {
    /// Final scalars per worker (index = worker index; empty for a worker
    /// that died and was recovered around).
    pub scalars: Vec<Vec<f64>>,
    /// Collected distributed blocks (when collection was enabled).
    pub collected: KeyMap<Block>,
    /// Per-worker profiles.
    pub profiles: Vec<WorkerProfile>,
    /// Warnings raised across all ranks.
    pub warnings: Vec<String>,
    /// Master-side recovery counters (all zero on fault-free runs).
    pub recovery: RecoveryStats,
    /// I/O-server counters, merged across servers.
    pub server: ServerStats,
    /// Every rank's recorded events (empty unless tracing): each finished
    /// worker's and I/O server's as it reported, then the master's.
    pub traces: Vec<RankTrace>,
}

/// The master rank's controller.
pub struct Master {
    layout: Arc<Layout>,
    endpoint: Endpoint<SipMsg>,
    run_dir: PathBuf,
    /// Whether the run is armed for faults (`SipConfig::fault` is set).
    fault: bool,
    /// Whether a crash is scheduled: only a death reads the chunk ledger
    /// (`PardoSched::{outstanding, acked}`), so only then is each pardo
    /// encounter's scheduler kept until the next `sip_barrier`.
    chunk_ledger: bool,
    schedulers: HashMap<(u32, u64), PardoSched>,
    barrier_waiting: HashMap<u8, Vec<Rank>>,
    /// This round's `sip_allreduce` contributions, by worker index.
    reduce_parts: Vec<Option<f64>>,
    ckpt_saves: HashMap<u32, CkptSave>,
    ckpt_restore_ready: HashMap<u32, usize>,
    done: Vec<Option<(Vec<f64>, WorkerProfile)>>,
    collected: KeyMap<Block>,
    warnings: Vec<String>,
    done_count: usize,
    // ---- fault tolerance ----------------------------------------------------
    /// Workers not yet declared dead.
    alive: Vec<bool>,
    /// Deaths detected while another recovery was in flight.
    pending_deaths: VecDeque<usize>,
    /// In-flight restore puts (recovery or checkpoint restore).
    flight: Option<PutFlight>,
    /// Re-queued chunks (pardo pc, encounter, chunk id, iteration
    /// ordinals) awaiting a parked worker.
    takeover_queue: VecDeque<(u32, u64, u64, Vec<u64>)>,
    /// Dispatched takeover chunks awaiting their `ChunkDone`.
    takeover_outstanding: HashSet<(u32, u64, u64)>,
    takeover_rr: usize,
    recovery: RecoveryStats,
    /// Completed served-array epochs (manifest counter), counting on from
    /// what the run directory's manifest held when the run started.
    pub(crate) served_epochs: u64,
    /// A served-epoch commit in progress: (epoch, acks still missing).
    epoch_pending: Option<(u64, usize)>,
    // ---- observability ------------------------------------------------------
    trace: TraceSink,
    /// The traces the other ranks shipped with their final reports.
    traces: Vec<RankTrace>,
    /// A daemon job's live progress, read by `Daemon::status`: `total` grows
    /// as pardos are met, `granted` as their chunks are handed out.
    progress: Option<Arc<JobProgress>>,
}

impl Master {
    /// Creates the master controller. `fault` enables rank-death recovery
    /// and served-epoch manifests, and — when it schedules a crash —
    /// chunk-ack tracking.
    pub fn new(
        layout: Arc<Layout>,
        endpoint: Endpoint<SipMsg>,
        run_dir: PathBuf,
        fault: Option<&FaultConfig>,
    ) -> Self {
        let w = layout.topology.workers;
        Master {
            layout,
            endpoint,
            run_dir,
            fault: fault.is_some(),
            chunk_ledger: fault.is_some_and(|f| f.crash.is_some()),
            schedulers: HashMap::new(),
            barrier_waiting: HashMap::new(),
            reduce_parts: vec![None; w],
            ckpt_saves: HashMap::new(),
            ckpt_restore_ready: HashMap::new(),
            done: (0..w).map(|_| None).collect(),
            collected: KeyMap::default(),
            warnings: Vec::new(),
            done_count: 0,
            alive: vec![true; w],
            pending_deaths: VecDeque::new(),
            flight: None,
            takeover_queue: VecDeque::new(),
            takeover_outstanding: HashSet::new(),
            takeover_rr: 0,
            recovery: RecoveryStats::default(),
            served_epochs: 0,
            epoch_pending: None,
            trace: TraceSink::disabled(),
            traces: Vec::new(),
            progress: None,
        }
    }

    /// Installs the progress counters of a daemon job.
    pub(crate) fn set_progress(&mut self, progress: Arc<JobProgress>) {
        self.progress = Some(progress);
    }

    /// Installs an event-trace sink (shared-epoch; see [`TraceSink`]).
    pub(crate) fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    fn workers(&self) -> usize {
        self.layout.topology.workers
    }

    fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    fn broadcast_workers(&self, make: impl Fn() -> SipMsg) {
        for i in 0..self.workers() {
            let _ = self.endpoint.send(self.layout.topology.worker(i), make());
        }
    }

    /// Lazily builds the filtered iteration space for a pardo. The master
    /// evaluates where clauses against the *initial* scalar table (scalars
    /// are worker-local; using them in where clauses is static by design).
    fn scheduler_for(
        &mut self,
        pardo_pc: u32,
        epoch: u64,
    ) -> Result<&mut PardoSched, RuntimeError> {
        if !self.schedulers.contains_key(&(pardo_pc, epoch)) {
            let Some(Instruction::PardoStart {
                indices,
                where_clauses,
                ..
            }) = self.layout.program.code.get(pardo_pc as usize)
            else {
                return Err(RuntimeError::BadProgram(format!(
                    "chunk request for pc {pardo_pc} which is not a pardo"
                )));
            };
            let ranges: Vec<(i64, i64)> = indices.iter().map(|&i| self.layout.range(i)).collect();
            let scalars: Vec<f64> = self.layout.program.scalars.iter().map(|s| s.init).collect();
            let consts = self.layout.consts.clone();
            let space = IterationSpace::enumerate(
                indices,
                &ranges,
                where_clauses,
                &|i| scalars[i as usize],
                &|i| consts[i as usize],
            )
            .map_err(|e| match e {
                // Attribute malformed-bytecode findings to the source
                // statement when the program carries a line table.
                RuntimeError::BadBytecode(m) => RuntimeError::BadBytecode(format!(
                    "{}: {m}",
                    self.layout.program.locate_pc(pardo_pc)
                )),
                other => other,
            })?;
            if let Some(p) = &self.progress {
                p.total.fetch_add(space.len() as u64, Ordering::Relaxed);
            }
            let sched = GuidedScheduler::with_policy(
                space.len() as u64,
                self.workers(),
                ChunkPolicy::default(),
            );
            // Owner-compute affinity: bucket the iterations by the home of
            // the block each one's anchor writes or reads, so the accessing
            // rank is (preferentially) the owning rank and the put or get
            // short-circuits locally.
            let affinity = (self.layout.pardo(pardo_pc))
                .and_then(|f| f.owner.as_ref())
                .map(|owner| owner_buckets(&self.layout, owner, &space, &ranges));
            self.schedulers.insert(
                (pardo_pc, epoch),
                PardoSched {
                    space,
                    sched,
                    affinity,
                    drained_notices: 0,
                    next_chunk: 0,
                    outstanding: HashMap::new(),
                    acked: HashMap::new(),
                },
            );
        }
        Ok(self.schedulers.get_mut(&(pardo_pc, epoch)).unwrap())
    }

    fn handle_chunk_request(
        &mut self,
        src: Rank,
        pardo_pc: u32,
        epoch: u64,
    ) -> Result<(), RuntimeError> {
        let ledger = self.chunk_ledger;
        let alive = self.alive_count();
        let widx = self.layout.topology.worker_index(src);
        let sched = self.scheduler_for(pardo_pc, epoch)?;
        match sched.sched.next_chunk() {
            Some(range) => {
                // The guided policy still sizes every chunk; affinity only
                // changes *which* iterations fill it (requester's bucket
                // first, stealing from the fullest other bucket so the
                // tail stays balanced).
                let (ordinals, own, stolen) = match &mut sched.affinity {
                    Some(buckets) => {
                        let want = (range.end - range.start) as usize;
                        let mut ordinals = Vec::with_capacity(want);
                        if let Some(own) = buckets.get_mut(widx) {
                            own.take(want, &sched.space, &mut ordinals);
                        }
                        let own = ordinals.len();
                        while ordinals.len() < want {
                            let donor = buckets
                                .iter_mut()
                                .filter(|b| b.len > 0)
                                .max_by_key(|b| b.len);
                            match donor {
                                Some(b) => b.take(want, &sched.space, &mut ordinals),
                                None => break,
                            }
                        }
                        let stolen = ordinals.len() - own;
                        (ordinals, own, stolen)
                    }
                    None => (range.map(|i| sched.space.ordinal(i)).collect(), 0, 0),
                };
                let chunk = sched.next_chunk;
                sched.next_chunk += 1;
                if ledger {
                    sched.outstanding.insert(chunk, (widx, ordinals.clone()));
                }
                if let Some(p) = &self.progress {
                    p.granted
                        .fetch_add(ordinals.len() as u64, Ordering::Relaxed);
                }
                self.trace.instant(EventKind::Grant {
                    pc: pardo_pc,
                    worker: src.0 as u32,
                    iterations: ordinals.len() as u32,
                    stolen: stolen as u32,
                });
                let _ = self.endpoint.send(
                    src,
                    SipMsg::ChunkAssign {
                        pardo_pc,
                        epoch,
                        chunk,
                        ordinals,
                        own: own as u32,
                    },
                );
            }
            None => {
                sched.drained_notices += 1;
                // With a crash scheduled the scheduler is retained until
                // the sip-barrier release: its ledger is what lets the
                // master re-queue a dead assignee's chunks.
                if !ledger && sched.drained_notices >= alive {
                    // Every worker has moved past this encounter.
                    self.schedulers.remove(&(pardo_pc, epoch));
                }
                let _ = self
                    .endpoint
                    .send(src, SipMsg::NoMoreChunks { pardo_pc, epoch });
            }
        }
        Ok(())
    }

    fn barrier_slot(kind: BarrierKind) -> u8 {
        match kind {
            BarrierKind::Sip => 0,
            BarrierKind::Server => 1,
        }
    }

    fn handle_barrier(&mut self, src: Rank, kind: BarrierKind) {
        let slot = Self::barrier_slot(kind);
        self.barrier_waiting.entry(slot).or_default().push(src);
        self.try_release(kind);
    }

    /// Releases a barrier if its conditions hold. Under fault tolerance the
    /// sip barrier additionally waits for recovery to settle: no restore in
    /// flight, no re-queued chunk unassigned or unacknowledged.
    fn try_release(&mut self, kind: BarrierKind) {
        let slot = Self::barrier_slot(kind);
        let target = self.alive_count();
        let waiting_n = self.barrier_waiting.get(&slot).map_or(0, Vec::len);
        if waiting_n < target {
            return;
        }
        if self.fault {
            match kind {
                BarrierKind::Sip => {
                    if self.flight.is_some() || !self.pending_deaths.is_empty() {
                        return;
                    }
                    self.dispatch_takeovers();
                    if !self.takeover_queue.is_empty()
                        || !self.takeover_outstanding.is_empty()
                        || self.schedulers.values().any(|s| !s.outstanding.is_empty())
                    {
                        return;
                    }
                    // Every chunk of the epoch is acknowledged: the pardo
                    // encounter is history, recovery state can be dropped.
                    self.schedulers.clear();
                }
                BarrierKind::Server => {
                    if self.layout.topology.io_servers > 0 {
                        // Commit a served-array epoch before releasing: the
                        // I/O servers flush and write their manifests, then
                        // the master records the epoch as durable.
                        if self.epoch_pending.is_some() {
                            return;
                        }
                        let epoch = self.served_epochs + 1;
                        for j in 0..self.layout.topology.io_servers {
                            let _ = self.endpoint.send(
                                self.layout.topology.io_server(j),
                                SipMsg::EpochMark { epoch },
                            );
                        }
                        self.epoch_pending = Some((epoch, self.layout.topology.io_servers));
                        return; // released when the last EpochAck arrives
                    }
                }
            }
        }
        if let Some(w) = self.barrier_waiting.get_mut(&slot) {
            w.clear();
        }
        self.broadcast_workers(|| SipMsg::BarrierRelease { kind });
    }

    fn handle_epoch_ack(&mut self, epoch: u64) {
        let Some((e, remaining)) = &mut self.epoch_pending else {
            return;
        };
        if *e != epoch {
            return;
        }
        *remaining -= 1;
        if *remaining > 0 {
            return;
        }
        self.epoch_pending = None;
        self.served_epochs = epoch;
        if let Err(e) = write_epoch_manifest(&self.run_dir, epoch) {
            self.warnings.push(format!("epoch manifest: {e}"));
        }
        if let Some(w) = self
            .barrier_waiting
            .get_mut(&Self::barrier_slot(BarrierKind::Server))
        {
            w.clear();
        }
        self.broadcast_workers(|| SipMsg::BarrierRelease {
            kind: BarrierKind::Server,
        });
    }

    /// Keeps `src`'s contribution; once every live worker's is in, sums
    /// them in rank order — so the total's bits do not depend on which
    /// arrived first — and broadcasts it. A worker that died after
    /// contributing still counts.
    fn handle_reduce(&mut self, src: Rank, value: f64) {
        if !self.layout.topology.is_worker(src) {
            return;
        }
        self.reduce_parts[self.layout.topology.worker_index(src)] = Some(value);
        let all_in = (self.alive.iter())
            .zip(&self.reduce_parts)
            .all(|(&alive, part)| !alive || part.is_some());
        if all_in {
            let parts = self.reduce_parts.iter_mut().filter_map(Option::take);
            let total = parts.fold(0.0, |sum, part| sum + part);
            self.broadcast_workers(|| SipMsg::ReduceResult { value: total });
        }
    }

    fn ckpt_path(&self, label: u32) -> PathBuf {
        let name = self
            .layout
            .program
            .strings
            .get(label as usize)
            .cloned()
            .unwrap_or_else(|| format!("label{label}"));
        // Sanitize: labels are user strings.
        let safe: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        self.run_dir.join(format!("ckpt_{safe}.sialck"))
    }

    fn handle_ckpt_done(&mut self, label: u32, restore: bool) -> Result<(), RuntimeError> {
        if restore {
            let ready = self.ckpt_restore_ready.entry(label).or_insert(0);
            *ready += 1;
            if *ready == self.alive_count() {
                self.ckpt_restore_ready.remove(&label);
                self.trace.instant(EventKind::Checkpoint { restore: true });
                let blocks = read_checkpoint(&self.ckpt_path(label))?;
                let dead: Vec<bool> = self.alive.iter().map(|a| !a).collect();
                let track = self.fault && self.flight.is_none();
                let mut pending: KeyMap<(Rank, BlockHandle)> = KeyMap::default();
                for (key, data) in blocks {
                    let data: BlockHandle = data.into();
                    let home = self.layout.home_of_distributed_excluding(&key, &dead);
                    let _ = self.endpoint.send(home, restore_msg(key, data.clone()));
                    if track {
                        pending.insert(key, (home, data));
                    }
                }
                if track && !pending.is_empty() {
                    // Restore puts ride the faultable data plane: hold the
                    // release until every one is acknowledged (retrying).
                    self.flight = Some(PutFlight {
                        pending,
                        retry: Retry::new(),
                        then: AfterFlight::CkptRelease { label },
                    });
                } else {
                    // FIFO per pair: each worker sees its restored blocks
                    // before the release.
                    self.broadcast_workers(|| SipMsg::CkptRelease { label });
                }
            }
        } else {
            let save = self.ckpt_saves.entry(label).or_default();
            save.done += 1;
            if save.done == self.alive_count() {
                let save = self.ckpt_saves.remove(&label).unwrap();
                self.trace.instant(EventKind::Checkpoint { restore: false });
                write_checkpoint(&self.ckpt_path(label), &save.blocks)?;
                self.broadcast_workers(|| SipMsg::CkptRelease { label });
            }
        }
        Ok(())
    }

    // ---- rank-failure recovery ----------------------------------------------

    /// True once the master has taken the fabric's verdict on worker `w`:
    /// declared dead, or queued behind a recovery still in flight.
    fn lost(&self, w: usize) -> bool {
        !self.alive[w] || self.pending_deaths.contains(&w)
    }

    /// The master's one timer: the restore flight's resend. `None` with no
    /// flight up — a death needs no clock, the fabric's wake-up ends the
    /// wait — and on fault-free runs, where only a message moves the master.
    fn next_deadline(&self) -> Option<Instant> {
        self.flight.as_ref().map(|fl| fl.retry.deadline())
    }

    /// Per-loop bookkeeping: the fabric's death verdicts, queued deaths,
    /// flight retries.
    fn tick(&mut self) -> Result<(), RuntimeError> {
        if !self.fault {
            return Ok(());
        }
        for w in 0..self.workers() {
            // A worker is dead when the fabric says so, and only then.
            if !self.lost(w) && self.endpoint.peer_crashed(self.layout.topology.worker(w)) {
                self.pending_deaths.push_back(w);
            }
        }
        if self.flight.is_none() {
            if let Some(w) = self.pending_deaths.pop_front() {
                self.start_recovery(w)?;
            }
        }
        if self.flight.as_ref().is_some_and(|fl| fl.pending.is_empty()) {
            // Nothing left in flight (e.g. the restore had no blocks to put,
            // or every ack drained before this tick). Complete it instead of
            // retrying nothing.
            let fl = self.flight.take().expect("checked above");
            self.complete_flight(fl.then);
        }
        let Some(fl) = &mut self.flight else {
            return Ok(());
        };
        if Instant::now() >= fl.retry.deadline() {
            fl.retry.bump().map_err(|Exhausted(_)| RuntimeError::Comm {
                kind: CommKind::Timeout,
                rank: (fl.pending.values().map(|(home, _)| *home).next())
                    .unwrap_or(self.layout.topology.master()),
                key: None,
                context: "restore put unacknowledged after retries".into(),
            })?;
            self.recovery.restore_resends += 1;
            for (key, (home, data)) in &fl.pending {
                let _ = self.endpoint.send(*home, restore_msg(*key, data.clone()));
            }
        }
        Ok(())
    }

    /// Declares worker `widx` dead: re-queues its unacknowledged chunks and
    /// starts restoring its last epoch checkpoint to the surviving homes.
    /// `RankDead` is broadcast only once the restore fully acks, so
    /// survivors never replay journals onto pre-restore state.
    fn start_recovery(&mut self, widx: usize) -> Result<(), RuntimeError> {
        let dead_rank = self.layout.topology.worker(widx);
        self.alive[widx] = false;
        self.recovery.ranks_died += 1;
        self.trace.instant(EventKind::Recovery {
            what: RecoveryEvent::RankDead,
        });
        self.warnings
            .push(format!("worker {widx} declared dead; recovering"));
        for (&(pc, ep), s) in &mut self.schedulers {
            let mine: Vec<u64> = s
                .outstanding
                .iter()
                .filter(|(_, (w, _))| *w == widx)
                .map(|(&c, _)| c)
                .collect();
            for c in mine {
                let (_, ordinals) = s.outstanding.remove(&c).unwrap();
                self.takeover_queue.push_back((pc, ep, c, ordinals));
                self.recovery.requeued_chunks += 1;
                self.trace.instant(EventKind::Recovery {
                    what: RecoveryEvent::Requeue,
                });
            }
            // The corpse's acked chunks this epoch: their local puts lived
            // only in the corpse's memory (nothing journals a local put),
            // so recompute them as well. Survivor-homed blocks are simply
            // re-put with identical bits.
            let acked: Vec<u64> = s
                .acked
                .iter()
                .filter(|(_, (w, _))| *w == widx)
                .map(|(&c, _)| c)
                .collect();
            for c in acked {
                let (_, ordinals) = s.acked.remove(&c).unwrap();
                self.takeover_queue.push_back((pc, ep, c, ordinals));
                self.recovery.requeued_chunks += 1;
                self.trace.instant(EventKind::Recovery {
                    what: RecoveryEvent::Requeue,
                });
            }
        }
        for w in self.barrier_waiting.values_mut() {
            w.retain(|r| *r != dead_rank);
        }
        let path = ft::epoch_ckpt_path(&self.run_dir, widx);
        let (blocks, ops) = match ft::read_epoch_checkpoint(&path) {
            Ok((_, blocks, ops)) => (blocks, ops),
            // No checkpoint: the worker died before its first sip barrier,
            // so everything it homed belongs to unacked chunks or journals.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Vec::new(), Vec::new()),
            Err(e) => {
                return Err(RuntimeError::Checkpoint(format!(
                    "epoch checkpoint {}: {e}",
                    path.display()
                )));
            }
        };
        let dead: Vec<bool> = self.alive.iter().map(|a| !a).collect();
        let mut pending: KeyMap<(Rank, BlockHandle)> = KeyMap::default();
        for (key, data) in blocks {
            let data: BlockHandle = data.into();
            let home = self.layout.home_of_distributed_excluding(&key, &dead);
            let _ = self.endpoint.send(home, restore_msg(key, data.clone()));
            pending.insert(key, (home, data));
            self.recovery.restored_blocks += 1;
            self.trace.instant(EventKind::Recovery {
                what: RecoveryEvent::Restore,
            });
        }
        if pending.is_empty() {
            self.finish_recovery(widx, ops);
        } else {
            self.flight = Some(PutFlight {
                pending,
                retry: Retry::new(),
                then: AfterFlight::Recovery {
                    dead_widx: widx,
                    inherited_ops: ops,
                },
            });
        }
        Ok(())
    }

    fn finish_recovery(&mut self, widx: usize, inherited_ops: Vec<u64>) {
        let dead_rank = self.layout.topology.worker(widx);
        for i in 0..self.workers() {
            if self.alive[i] {
                let _ = self.endpoint.send(
                    self.layout.topology.worker(i),
                    SipMsg::RankDead {
                        rank: dead_rank,
                        inherited_ops: inherited_ops.clone(),
                    },
                );
            }
        }
        self.dispatch_takeovers();
        self.try_release(BarrierKind::Sip);
        self.try_release(BarrierKind::Server);
    }

    /// Hands queued takeover chunks to workers parked at the sip barrier
    /// (round-robin). No-op until at least one survivor is parked.
    fn dispatch_takeovers(&mut self) {
        if self.takeover_queue.is_empty() {
            return;
        }
        let waiting: Vec<Rank> = self
            .barrier_waiting
            .get(&Self::barrier_slot(BarrierKind::Sip))
            .cloned()
            .unwrap_or_default();
        if waiting.is_empty() {
            return;
        }
        while let Some((pardo_pc, epoch, chunk, ordinals)) = self.takeover_queue.pop_front() {
            let target = waiting[self.takeover_rr % waiting.len()];
            self.takeover_rr += 1;
            let _ = self.endpoint.send(
                target,
                SipMsg::Takeover {
                    pardo_pc,
                    epoch,
                    chunk,
                    ordinals,
                },
            );
            self.takeover_outstanding.insert((pardo_pc, epoch, chunk));
            self.recovery.takeover_chunks += 1;
            self.trace.instant(EventKind::Recovery {
                what: RecoveryEvent::Takeover,
            });
        }
    }

    fn handle_put_ack(&mut self, key: BlockKey) {
        let Some(fl) = &mut self.flight else {
            return;
        };
        fl.pending.remove(&key);
        if !fl.pending.is_empty() {
            return;
        }
        let fl = self.flight.take().unwrap();
        self.complete_flight(fl.then);
    }

    /// Runs a fully-acked flight's continuation. Shared by the ack path and
    /// the tick-loop guard that completes an already-empty flight.
    fn complete_flight(&mut self, then: AfterFlight) {
        match then {
            AfterFlight::Recovery {
                dead_widx,
                inherited_ops,
            } => self.finish_recovery(dead_widx, inherited_ops),
            AfterFlight::CkptRelease { label } => {
                self.broadcast_workers(|| SipMsg::CkptRelease { label });
            }
        }
    }

    /// Finalizes the run once every live worker reported done and no
    /// recovery is in flight. An I/O server whose last flush fails fails
    /// the run: its blocks are not all in the store.
    fn maybe_finish(&mut self) -> Result<Option<MasterOutput>, RuntimeError> {
        if self.done_count < self.alive_count()
            || self.flight.is_some()
            || !self.pending_deaths.is_empty()
        {
            return Ok(None);
        }
        if !self.takeover_queue.is_empty() || !self.takeover_outstanding.is_empty() {
            self.warnings.push(format!(
                "{} re-queued chunks never ran (no sip_barrier after the pardo?)",
                self.takeover_queue.len() + self.takeover_outstanding.len()
            ));
        }
        // Everyone finished: release the service loops.
        self.broadcast_workers(|| SipMsg::Shutdown);
        for j in 0..self.layout.topology.io_servers {
            let _ = self
                .endpoint
                .send(self.layout.topology.io_server(j), SipMsg::Shutdown);
        }
        // The I/O servers reply to the shutdown with their final counters
        // (and trace events). Bounded wait: a wedged server must not hang
        // the whole run's teardown.
        let mut server = ServerStats::default();
        let mut awaited = self.layout.topology.io_servers;
        let deadline = Instant::now() + TEARDOWN_BOUND;
        while awaited > 0 {
            // `None`: the bound passed, or a peer raised shutdown.
            let Some(env) = self.endpoint.recv_deadline(Some(deadline)) else {
                break;
            };
            match env.msg {
                SipMsg::ServerDone { stats, trace } => {
                    server.merge(&stats);
                    self.traces.extend(trace);
                    awaited -= 1;
                }
                SipMsg::WorkerFailed { error } => {
                    return Err(RuntimeError::Internal(format!(
                        "rank {} failed: {error}",
                        env.src
                    )));
                }
                // Stragglers from the data plane (late acks) are expected
                // during teardown and safely dropped.
                _ => {}
            }
        }
        if awaited > 0 {
            self.warnings.push(format!(
                "{awaited} I/O server(s) never reported final stats"
            ));
        }
        self.traces.extend(self.trace.drain(0, "master".into()));
        let mut scalars_out = Vec::with_capacity(self.workers());
        let mut profiles = Vec::with_capacity(self.workers());
        for slot in self.done.drain(..) {
            // A dead worker contributes an empty scalar set and profile.
            let (s, p) = slot.unwrap_or_default();
            scalars_out.push(s);
            profiles.push(p);
        }
        Ok(Some(MasterOutput {
            scalars: scalars_out,
            collected: std::mem::take(&mut self.collected),
            profiles,
            warnings: std::mem::take(&mut self.warnings),
            recovery: self.recovery,
            server,
            traces: std::mem::take(&mut self.traces),
        }))
    }

    /// Runs the master loop until all workers are done (or one failed). An
    /// error raises the fabric-wide shutdown on the way out, which wakes
    /// every rank still blocked on its inbox.
    pub fn run(mut self) -> Result<MasterOutput, RuntimeError> {
        let out = self.run_loop();
        if out.is_err() {
            self.endpoint.raise_shutdown();
        }
        out
    }

    fn run_loop(&mut self) -> Result<MasterOutput, RuntimeError> {
        loop {
            self.tick()?;
            let Some(env) = self.endpoint.recv_deadline(self.next_deadline()) else {
                if self.endpoint.shutdown_raised() {
                    return Err(RuntimeError::Comm {
                        kind: CommKind::Poisoned,
                        rank: self.endpoint.rank(),
                        key: None,
                        context: "shutdown during run".into(),
                    });
                }
                continue;
            };
            let src = env.src;
            let topology = &self.layout.topology;
            if topology.is_worker(src) && self.lost(topology.worker_index(src)) {
                // A corpse's last words, still queued behind the verdict.
                // Whatever they acknowledge is re-queued and recomputed, and
                // a stale `ChunkDone` must not settle the takeover of the
                // chunk it names.
                continue;
            }
            match env.msg {
                SipMsg::ChunkRequest { pardo_pc, epoch } => {
                    self.handle_chunk_request(src, pardo_pc, epoch)?;
                }
                SipMsg::ChunkDone {
                    pardo_pc,
                    epoch,
                    chunk,
                } => {
                    if let Some(s) = self.schedulers.get_mut(&(pardo_pc, epoch)) {
                        if let Some(done) = s.outstanding.remove(&chunk) {
                            s.acked.insert(chunk, done);
                        }
                    }
                    self.takeover_outstanding.remove(&(pardo_pc, epoch, chunk));
                    self.try_release(BarrierKind::Sip);
                }
                SipMsg::BarrierEnter { kind } => self.handle_barrier(src, kind),
                SipMsg::ReduceContrib { value } => self.handle_reduce(src, value),
                SipMsg::EpochAck { epoch } => self.handle_epoch_ack(epoch),
                SipMsg::CkptBlock { label, key, data } => {
                    self.ckpt_saves
                        .entry(label)
                        .or_default()
                        .blocks
                        .push((key, data));
                }
                SipMsg::CkptDone { label, restore } => {
                    self.handle_ckpt_done(label, restore)?;
                }
                SipMsg::StoreAck { key, .. } => self.handle_put_ack(key),
                SipMsg::WorkerDone {
                    scalars,
                    blocks,
                    profile,
                    warnings,
                    trace,
                } => {
                    let w = self.layout.topology.worker_index(src);
                    if self.done[w].is_none() {
                        self.done_count += 1;
                    }
                    self.done[w] = Some((scalars, *profile));
                    // End-of-run boundary: materialize owned blocks out of
                    // the handles (the worker has dropped its side, so this
                    // unwraps without copying).
                    self.collected
                        .extend(blocks.into_iter().map(|(k, h)| (k, h.into_block())));
                    self.warnings.extend(warnings);
                    self.traces.extend(trace);
                    if let Some(out) = self.maybe_finish()? {
                        return Ok(out);
                    }
                }
                SipMsg::WorkerFailed { error } => {
                    return Err(RuntimeError::Internal(format!(
                        "rank {src} failed: {error}"
                    )));
                }
                other => {
                    self.warnings
                        .push(format!("master ignored unexpected message: {other:?}"));
                }
            }
            if self.done_count > 0 {
                if let Some(out) = self.maybe_finish()? {
                    return Ok(out);
                }
            }
        }
    }
}

/// The store that puts one checkpointed block back at its (surviving) home:
/// `list_to_blocks` restores and dead-rank recovery both send it, untracked
/// — the master's own flight table retries it until acknowledged.
fn restore_msg(key: BlockKey, data: BlockHandle) -> SipMsg {
    SipMsg::Store {
        key,
        payload: Payload::Data(data),
        mode: PutMode::Replace,
        op: OpId::NONE,
        epoch: None,
    }
}

/// How long teardown waits for the I/O servers' final counters: a wedged
/// server must not hang the whole run.
const TEARDOWN_BOUND: Duration = Duration::from_secs(2);

// ---- served-epoch manifest ------------------------------------------------------

/// Name of the master's served-epoch manifest inside the run directory.
pub const EPOCH_MANIFEST: &str = "epochs.manifest";

/// Records `epoch` completed served-array epochs (atomic tmp + rename).
pub fn write_epoch_manifest(run_dir: &Path, epoch: u64) -> std::io::Result<()> {
    let path = run_dir.join(EPOCH_MANIFEST);
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, format!("{epoch}\n"))?;
    fs::rename(&tmp, path)
}

/// Reads the served-epoch manifest; 0 when absent (fresh run directory).
/// The file comes from disk, so a present one that cannot be read or is
/// not exactly what [`write_epoch_manifest`] writes — decimal digits and a
/// newline — is [`RuntimeError::Checkpoint`]: resuming at epoch 0 over a
/// later epoch's served data would be silent corruption.
pub fn read_epoch_manifest(run_dir: &Path) -> Result<u64, RuntimeError> {
    let path = run_dir.join(EPOCH_MANIFEST);
    let text = match fs::read_to_string(&path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => {
            let why = format!("read {}: {e}", path.display());
            return Err(RuntimeError::Checkpoint(why));
        }
        Ok(text) => text,
    };
    // `parse` alone would take a leading `+`.
    text.strip_suffix('\n')
        .filter(|digits| digits.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|digits| digits.parse().ok())
        .ok_or_else(|| {
            RuntimeError::Checkpoint(format!("corrupt epoch manifest {}", path.display()))
        })
}

// ---- checkpoint files -----------------------------------------------------------

/// Writes a `blocks_to_list` checkpoint (the record is `ft::write_blocks`',
/// shared with the epoch checkpoint). Accepts anything that borrows a
/// [`Block`] — owned blocks and [`BlockHandle`]s alike — so callers never
/// materialize copies to save.
pub fn write_checkpoint<B: std::borrow::Borrow<Block>>(
    path: &Path,
    blocks: &[(BlockKey, B)],
) -> Result<(), RuntimeError> {
    ft::write_blocks(path, ft::CKPT_MAGIC, blocks, &[])
        .map_err(|e| RuntimeError::Checkpoint(format!("write {}: {e}", path.display())))
}

/// Reads a checkpoint written by [`write_checkpoint`]. The file comes from
/// disk, so nothing in it is trusted: a truncated or inconsistent one is
/// [`RuntimeError::Checkpoint`], never a panic or an allocation its own
/// length cannot back.
pub fn read_checkpoint(path: &Path) -> Result<Vec<(BlockKey, Block)>, RuntimeError> {
    let raw = fs::read(path)
        .map_err(|e| RuntimeError::Checkpoint(format!("read {}: {e}", path.display())))?;
    let mut raw = ft::Cursor(&raw);
    (raw.blocks(ft::CKPT_MAGIC))
        .filter(|_| raw.0.is_empty())
        .ok_or_else(|| RuntimeError::Checkpoint(format!("corrupt checkpoint {}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_blocks::Shape;
    use sia_bytecode::ArrayId;

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sia-ckpt-test-{tag}-{}.sialck", std::process::id()))
    }

    /// Each worker's bucket holds, in order, exactly the iterations whose
    /// anchor block lies in its slab — for a key on the leading pardo
    /// indices (one run per worker, found by bisection) and for permuted
    /// ones (walked), written or only read, on a filtered space, at 1 to 5
    /// workers.
    #[test]
    fn owner_buckets_hold_each_slabs_iterations_in_order() {
        use crate::layout::{SegmentConfig, Topology};
        const SRC: &str = "sial t
aoindex i = 1, n
aoindex j = 1, n
aoindex k = 1, 3
distributed X(i,j)
distributed Y(j,i)
temp t(i,j)
temp u(j,i)
pardo i, j, k where i != k
  t(i,j) = 1.0
  put X(i,j) = t(i,j)
endpardo i, j, k
pardo i, j, k where i != k
  u(j,i) = 1.0
  put Y(j,i) = u(j,i)
endpardo i, j, k
pardo i, j, k where i != k
  get X(j,i)
  u(j,i) = X(j,i)
endpardo i, j, k
endsial
";
        let program = Arc::new(sial_frontend::compile(SRC).unwrap());
        let mut binds = sia_bytecode::ConstBindings::new();
        binds.insert("n".into(), 7);
        for workers in 1..=5 {
            let segments = SegmentConfig {
                default: 2,
                ..Default::default()
            };
            let layout =
                Layout::new(program.clone(), &binds, segments, Topology::new(workers, 0)).unwrap();
            let mut runs = 0;
            for (pc, ins) in program.code.iter().enumerate() {
                let Instruction::PardoStart {
                    indices,
                    where_clauses,
                    ..
                } = ins
                else {
                    continue;
                };
                let owner = layout.pardo(pc as u32).and_then(|f| f.owner.as_ref());
                let owner = owner.expect("an aligned anchor");
                let ranges: Vec<(i64, i64)> = indices.iter().map(|&i| layout.range(i)).collect();
                let space =
                    IterationSpace::enumerate(indices, &ranges, where_clauses, &|_| 0.0, &|_| 0)
                        .unwrap();
                let mut vals = vec![0; ranges.len()];
                let mut want = vec![Vec::new(); workers];
                for i in 0..space.len() as u64 {
                    let ordinal = space.ordinal(i);
                    decode_ordinal(&ranges, ordinal, |d, v| vals[d] = v);
                    want[layout.slot_of_distributed(&owner.key_of(&vals))].push(ordinal);
                }
                let mut buckets = owner_buckets(&layout, owner, &space, &ranges);
                runs += buckets.iter().map(|b| b.runs.len()).sum::<usize>();
                for (w, bucket) in buckets.iter_mut().enumerate() {
                    assert_eq!(
                        bucket.len as usize,
                        want[w].len(),
                        "{workers} workers, slab {w}"
                    );
                    let mut got = Vec::new();
                    bucket.take(usize::MAX, &space, &mut got);
                    assert_eq!(got, want[w], "{workers} workers, slab {w}");
                    assert_eq!(bucket.len, 0);
                }
            }
            assert!(
                workers == 1 || runs > 2 * workers,
                "the permuted key was not walked"
            );
        }
    }

    #[test]
    fn checkpoint_roundtrip() {
        let path = tmpfile("rt");
        let blocks = vec![
            (
                BlockKey::new(ArrayId(2), &[1, 2, 3]),
                Block::from_fn(Shape::new(&[2, 2]), |i| (i[0] + i[1]) as f64),
            ),
            (
                BlockKey::new(ArrayId(2), &[4, 5, 6]),
                Block::filled(Shape::new(&[3]), -1.5),
            ),
        ];
        write_checkpoint(&path, &blocks).unwrap();
        let back = read_checkpoint(&path).unwrap();
        assert_eq!(blocks, back);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn empty_checkpoint_roundtrip() {
        let path = tmpfile("empty");
        write_checkpoint::<Block>(&path, &[]).unwrap();
        assert!(read_checkpoint(&path).unwrap().is_empty());
        let _ = fs::remove_file(path);
    }

    /// A checkpoint is outside input: every truncation, a key or shape rank
    /// nothing has, a zero or unbackable extent and a count no file could
    /// back are `RuntimeError::Checkpoint` — never a panic or an allocation
    /// sized by the file's own claims.
    #[test]
    fn corrupt_checkpoint_rejected() {
        let path = tmpfile("bad");
        let block = Block::from_fn(Shape::new(&[2, 3]), |i| (i[0] * 3 + i[1]) as f64);
        write_checkpoint(&path, &[(BlockKey::new(ArrayId(2), &[1, 2, 3]), block)]).unwrap();
        let valid = fs::read(&path).unwrap();
        let patched = |at: usize, bytes: &[u8]| {
            let mut raw = valid.clone();
            raw[at..at + bytes.len()].copy_from_slice(bytes);
            raw
        };
        // magic 8 · count 8 · array 4 · rank 1 · segs 3×4 · ndims 1 · dims 2×8
        let (count_at, rank_at, ndims_at, dim0_at) = (8, 20, 33, 34);
        let mut corrupt: Vec<Vec<u8>> = (0..valid.len()).map(|cut| valid[..cut].to_vec()).collect();
        corrupt.push(b"NOTACKPT".to_vec());
        corrupt.push(patched(0, b"SIAEPCK2")); // the other file's magic
        corrupt.push(patched(count_at, &u64::MAX.to_le_bytes()));
        corrupt.push(patched(count_at, &0u64.to_le_bytes())); // trailing bytes
        corrupt.push(patched(rank_at, &[9]));
        corrupt.push(patched(rank_at, &[u8::MAX]));
        corrupt.push(patched(ndims_at, &[9]));
        corrupt.push(patched(ndims_at, &[u8::MAX]));
        corrupt.push(patched(dim0_at, &0u64.to_le_bytes()));
        corrupt.push(patched(dim0_at, &u64::MAX.to_le_bytes()));
        for raw in corrupt {
            fs::write(&path, &raw).unwrap();
            match read_checkpoint(&path) {
                Err(RuntimeError::Checkpoint(m)) => assert!(m.contains("corrupt"), "{m}"),
                other => panic!("{} bytes decoded to {other:?}", raw.len()),
            }
        }
        let _ = fs::remove_file(path);
    }

    /// A master over `source` with two workers and one I/O server, and the
    /// endpoints of those three ranks.
    fn master_of(source: &str, fault: &FaultConfig) -> (Master, Vec<Endpoint<SipMsg>>) {
        master_over(source, 2, Some(fault))
    }

    /// A master of `workers` workers and one I/O server, and the other
    /// ranks' endpoints.
    fn master_over(
        source: &str,
        workers: usize,
        fault: Option<&FaultConfig>,
    ) -> (Master, Vec<Endpoint<SipMsg>>) {
        use crate::layout::{SegmentConfig, Topology};
        let layout = Layout::new(
            Arc::new(sial_frontend::compile(source).unwrap()),
            &sia_bytecode::ConstBindings::new(),
            SegmentConfig::default(),
            Topology::new(workers, 1),
        )
        .unwrap();
        let (mut eps, _stats) = sia_fabric::build::<SipMsg>(workers + 2);
        let master_ep = eps.remove(0);
        let m = Master::new(Arc::new(layout), master_ep, std::env::temp_dir(), fault);
        (m, eps)
    }

    /// Three contributions whose sum depends on the order it is taken in
    /// reduce to one bit pattern in every arrival order: the rank order's.
    #[test]
    fn allreduce_sums_in_rank_order_whatever_the_arrival_order() {
        let source = "sial tiny\nscalar s\ns = 1.0\nendsial\n";
        let parts = [0.1, 1e16, -1e16];
        let rank_order = ((0.0 + parts[0]) + parts[1]) + parts[2];
        let mut arrival_sums = Vec::new();
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let (mut m, eps) = master_over(source, 3, None);
            for w in order {
                m.handle_reduce(m.layout.topology.worker(w), parts[w]);
            }
            for ep in &eps[..3] {
                match ep.recv_timeout(Duration::from_secs(2)).map(|env| env.msg) {
                    Some(SipMsg::ReduceResult { value }) => {
                        assert_eq!(value.to_bits(), rank_order.to_bits(), "{order:?}")
                    }
                    other => panic!("{order:?}: {other:?}"),
                }
            }
            arrival_sums.push(order.iter().fold(0.0, |sum, &w| sum + parts[w]).to_bits());
        }
        arrival_sums.dedup();
        assert!(
            arrival_sums.len() > 1,
            "the parts must not sum alike in any order"
        );
    }

    #[test]
    fn empty_restore_flight_completes_instead_of_panicking() {
        // Regression: a PutFlight whose pending map is empty (every ack
        // drained between ticks, or the restore had no blocks) used to hit
        // `expect("nonempty flight")` in the timeout arm and crash the
        // master mid-recovery. It must complete the flight's continuation.
        let source = "sial tiny\nscalar s\ns = 1.0\nendsial\n";
        let (mut m, eps) = master_of(source, &FaultConfig::new(sia_fabric::FaultPlan::seeded(7)));
        let [w0, w1, _io] = &eps[..] else {
            unreachable!("two workers and a server")
        };
        // Stage an empty flight that has already blown its retry budget —
        // the configuration under which the old code panicked.
        m.flight = Some(PutFlight {
            pending: KeyMap::default(),
            retry: Retry {
                sent_at: Instant::now()
                    .checked_sub(Duration::from_secs(60))
                    .expect("clock predates test start"),
                timeout: Duration::from_millis(1),
                attempts: u32::MAX - 1,
            },
            then: AfterFlight::CkptRelease { label: 7 },
        });
        m.tick().expect("tick must not fail on an empty flight");
        assert!(m.flight.is_none(), "flight must be completed");
        // The continuation ran: both workers got the checkpoint release.
        for w in [w0, w1] {
            let env = w
                .recv_timeout(Duration::from_secs(2))
                .expect("worker must receive the flight continuation");
            assert!(
                matches!(env.msg, SipMsg::CkptRelease { label: 7 }),
                "expected CkptRelease {{ label: 7 }}, got {:?}",
                env.msg
            );
        }
    }

    /// Only a death reads the chunk ledger, and only a scheduled crash kills
    /// a rank: under a crash-free fault plan a pardo encounter's scheduler
    /// goes once every worker was told it is drained, however many
    /// encounters pass without a `sip_barrier`; a scheduled crash keeps each
    /// one, with its chunks, until the barrier.
    #[test]
    fn chunk_ledger_is_kept_only_when_a_crash_is_scheduled() {
        const ENCOUNTERS: u64 = 5;
        let source = "sial ledger\naoindex i = 1, 4\ntemp t(i)\npardo i\n  t(i) = 1.0\n\
                      endpardo i\nserver_barrier\nendsial\n";
        let inert = FaultConfig::new(sia_fabric::FaultPlan::seeded(7));
        let crash = FaultConfig {
            crash: Some(crate::layout::CrashSchedule {
                worker: 1,
                after_iterations: u64::MAX,
            }),
            ..inert.clone()
        };
        for (fault, retained) in [(inert, 0), (crash, ENCOUNTERS as usize)] {
            let (mut m, eps) = master_of(source, &fault);
            let code = &m.layout.program.code;
            let pardo_pc = code
                .iter()
                .position(|i| matches!(i, Instruction::PardoStart { .. }))
                .unwrap() as u32;
            for epoch in 0..ENCOUNTERS {
                // Each worker asks until it is told the encounter is drained.
                for (w, ep) in eps[..2].iter().enumerate() {
                    let rank = m.layout.topology.worker(w);
                    loop {
                        m.handle_chunk_request(rank, pardo_pc, epoch).unwrap();
                        let env = ep.recv_timeout(Duration::from_secs(2)).unwrap();
                        if matches!(env.msg, SipMsg::NoMoreChunks { .. }) {
                            break;
                        }
                    }
                }
            }
            assert_eq!(m.schedulers.len(), retained, "{fault:?}");
            let ledger: usize = m.schedulers.values().map(|s| s.outstanding.len()).sum();
            assert_eq!(ledger > 0, retained > 0, "{fault:?}");
        }
    }

    /// Absent reads 0 and a written manifest reads back; a truncated or
    /// garbage one, or one that is not a file, is a checkpoint error.
    #[test]
    fn epoch_manifest_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sia-manifest-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let read = || read_epoch_manifest(&dir);
        assert_eq!(read().unwrap(), 0, "absent manifest reads 0");
        write_epoch_manifest(&dir, 3).unwrap();
        assert_eq!(read().unwrap(), 3);
        write_epoch_manifest(&dir, 4).unwrap();
        assert_eq!(read().unwrap(), 4);

        let path = dir.join(EPOCH_MANIFEST);
        for case in 0..256 {
            let mut rng = proptest::TestRng::for_case("epoch_manifest", case);
            let written = format!("{}\n", rng.next_u64() >> rng.below(64)).into_bytes();
            let bytes = if case % 2 == 0 {
                written[..rng.below(written.len() as u64) as usize].to_vec()
            } else {
                let len = rng.below(24) as usize;
                let garbage: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                if garbage.last() == Some(&b'\n')
                    && garbage.len() > 1
                    && garbage[..len - 1].iter().all(u8::is_ascii_digit)
                {
                    continue;
                }
                garbage
            };
            fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(read(), Err(RuntimeError::Checkpoint(_))),
                "{bytes:?} read as {:?}",
                read()
            );
        }
        fs::write(&path, "99999999999999999999999\n").unwrap();
        assert!(
            matches!(read(), Err(RuntimeError::Checkpoint(_))),
            "overflow"
        );
        fs::remove_file(&path).unwrap();
        fs::create_dir(&path).unwrap();
        assert!(
            matches!(read(), Err(RuntimeError::Checkpoint(_))),
            "a directory"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
