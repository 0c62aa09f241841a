//! Worker state and the asynchronous progress engine.
//!
//! Each worker "loops through the instruction table executing bytecode
//! instructions, periodically checking for messages and processing them"
//! (§V-B). This module holds the worker's stores (home blocks, cache,
//! temps, locals), its pardo machinery, outstanding-ack tracking, the
//! message pump and the waits. Block access and the fetch/store protocol
//! live in [`crate::access`], the fault-tolerance side in [`crate::ft`],
//! and the instruction dispatch in [`crate::interp`].

use crate::cache::Flight;
use crate::error::{CommKind, RuntimeError};
use crate::events::{CommOp, EventKind, TraceSink};
use crate::ft::{FtState, TakeoverChunk};
use crate::layout::{Layout, RefFacts, SipConfig};
use crate::memory::BlockManager;
use crate::metrics::WaitCause;
use crate::msg::{BarrierKind, BlockKey, OpId, Payload, SipMsg};
use crate::profile::WorkerProfile;
use crate::registry::SuperRegistry;
use sia_blocks::{BlockHandle, BlockPool, ContractCtx, PoolConfig, SliceSpec};
use sia_bytecode::{ArrayId, ArrayKind, IndexId};
use sia_fabric::{Endpoint, Rank};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-worker budget of the pool recycling temp-block storage.
const POOL_BYTES: usize = 256 << 20;

/// The window: the share of the block cache's byte capacity that blocks a
/// worker asked for ahead of their use (the chunk look-ahead) may occupy.
/// Half, because the cache is LRU and a block waiting to be used is older
/// than the block just used: with a window of the whole cache every arrival
/// would evict the block needed next — the paper's BlueGene/P run, where
/// over-eager prefetching caused "eviction and refetching of blocks that
/// would be reused". At half, whatever an arrival evicts was last used at
/// least a window ago. The same bound caps the bytes of stores a worker has
/// sent and not seen acknowledged, so a worker that never has to wait cannot
/// queue a whole chunk of blocks in a home's inbox.
const WINDOW_CACHE_SHARE: u64 = 2;

/// An active sequential loop.
#[derive(Debug, Clone)]
pub(crate) struct LoopFrame {
    /// Pc of the `DoStart`/`DoInStart`.
    pub start_pc: u32,
    /// The loop index.
    pub index: IndexId,
    /// Current value.
    pub current: i64,
    /// Inclusive upper bound.
    pub high: i64,
}

/// The in-progress pardo of a worker; its static facts are the layout's
/// [`PardoFacts`](crate::layout::PardoFacts) at `start_pc`.
#[derive(Debug)]
pub(crate) struct PardoState {
    pub start_pc: u32,
    /// Which encounter of this pardo this is (increments every time the
    /// worker reaches the PardoStart).
    pub epoch: u64,
    pub end_pc: u32,
    /// Assigned iteration ordinals not yet executed.
    pub queue: VecDeque<u64>,
    /// A ChunkRequest is outstanding.
    pub requested: bool,
    /// Master said the space is exhausted.
    pub exhausted: bool,
    /// How many iterations ahead the look-ahead may run: the window's bytes
    /// over the bytes the pardo's unconditional gets pull per iteration
    /// (0 = no look-ahead).
    pub window: usize,
    /// Iterations at the front of `queue` already looked ahead for.
    pub ahead: usize,
    /// One iteration's index values, decoded for the look-ahead.
    pub vals: Vec<i64>,
}

/// One SIP worker.
pub struct Worker {
    pub(crate) layout: Arc<Layout>,
    pub(crate) config: SipConfig,
    pub(crate) endpoint: Endpoint<SipMsg>,
    pub(crate) registry: SuperRegistry,

    // ---- data state ----
    /// The unified block store: authoritative home blocks of distributed
    /// arrays, local/static blocks, and the byte-LRU cache of fetched
    /// remote copies — byte-accounted, budget-enforced.
    pub(crate) mem: BlockManager,
    /// One live block per temp array, by [`ArrayId`].
    pub(crate) temps: Vec<Option<(BlockKey, BlockHandle)>>,
    /// Pool recycling temp-block storage.
    pub(crate) pool: BlockPool,
    /// Contraction context: scratch drawn from `pool`, plus hot-path
    /// counters that land in the profile.
    pub(crate) contract_ctx: ContractCtx,
    /// Named scalar values.
    pub(crate) scalars: Vec<f64>,
    /// Current index values (0 = undefined; segments are 1-based).
    pub(crate) env: Vec<i64>,

    // ---- control state ----
    pub(crate) loop_stack: Vec<LoopFrame>,
    pub(crate) call_stack: Vec<u32>,
    pub(crate) pardo: Option<PardoState>,
    /// Encounter counters by pardo slot.
    pub(crate) pardo_epochs: Vec<u64>,
    /// [`WINDOW_CACHE_SHARE`] of the cache capacity, in bytes.
    pub(crate) window_bytes: u64,
    /// The keys one look-ahead window asks for, kept between windows.
    pub(crate) lookahead_keys: Vec<BlockKey>,

    // ---- communication state ----
    /// Unacknowledged stores, `[puts, prepares]`: what an ack drain waits
    /// on. Under fault tolerance a store counts once however often it is
    /// re-armed, until its first ack.
    pub(crate) outstanding: [u64; 2],
    /// Declared bytes of the blocks of unacknowledged stores, tracked or
    /// not; [`Worker::send_store`] holds it under `window_bytes`.
    pub(crate) unacked_bytes: u64,
    pub(crate) barrier_release: Option<BarrierKind>,
    pub(crate) reduce_result: Option<f64>,
    pub(crate) ckpt_released: HashSet<u32>,
    pub(crate) shutdown_seen: bool,

    // ---- fault tolerance ----
    /// Fault-tolerance state (`None` on fault-free runs — every hot path
    /// then keeps its original counter-based ack tracking).
    pub(crate) ft: Option<Box<FtState>>,
    /// Resolved run directory for epoch checkpoints (set by the runtime on
    /// fault-tolerant runs).
    pub(crate) run_dir: Option<PathBuf>,
    /// Total pardo iterations executed (drives the deterministic crash
    /// schedule).
    pub(crate) pardo_iters_done: u64,
    /// Per-iteration op-id sequence (reset when an iteration binds, so a
    /// re-executed iteration reproduces its op ids).
    pub(crate) op_seq: u64,

    // ---- conflict detection ----
    /// Barrier epoch for distributed arrays (the home stamps its blocks'
    /// reads and Replace-puts with it).
    pub(crate) dist_epoch: u64,

    // ---- reporting ----
    pub(crate) profile: WorkerProfile,
    pub(crate) warnings: Vec<String>,
    /// Worker start time (backs the `sip_time` intrinsic).
    pub(crate) started: Instant,
    /// Completed served-array epochs a previous run left in the run
    /// directory's manifest (backs the `sip_resume_epoch` intrinsic; set by
    /// the runtime at launch).
    pub(crate) resumed_epochs: u64,

    // ---- observability ----
    /// Event recorder (disabled — and allocation-free — unless the runtime
    /// installs an enabled sink before the program starts).
    pub(crate) trace: TraceSink,
    /// Issue times of tracked PUT/PREPARE flights by op id. Populated only
    /// while tracing, so it stays empty (and unallocated) otherwise.
    pub(crate) put_flights: HashMap<u64, Instant>,
}

impl Worker {
    /// Creates a worker bound to its fabric endpoint.
    pub fn new(
        layout: Arc<Layout>,
        config: SipConfig,
        endpoint: Endpoint<SipMsg>,
        registry: SuperRegistry,
    ) -> Self {
        let n_idx = layout.program.indices.len();
        let n_arrays = layout.program.arrays.len();
        let pardos = layout.pardos;
        let scalars = layout.program.scalars.iter().map(|s| s.init).collect();
        let pool = BlockPool::new(PoolConfig {
            max_bytes: POOL_BYTES,
        });
        let ft = config
            .fault
            .as_ref()
            .map(|f| Box::new(FtState::new(f.crash, config.workers)));
        let run_dir = config.run_dir.clone();
        // Cache capacity in bytes, matching the dry run's sizing formula
        // (`cache_blocks × largest remote block`).
        let cache_bytes = (config.cache_blocks as u64 * layout.largest_remote_block_bytes()).max(1);
        Worker {
            mem: BlockManager::new(Arc::clone(&layout), cache_bytes, config.memory_budget),
            contract_ctx: ContractCtx::with_pool(pool.clone()),
            pool,
            layout,
            config,
            endpoint,
            registry,
            temps: vec![None; n_arrays],
            scalars,
            env: vec![0; n_idx],
            loop_stack: Vec::new(),
            call_stack: Vec::new(),
            pardo: None,
            pardo_epochs: vec![0; pardos],
            window_bytes: cache_bytes / WINDOW_CACHE_SHARE,
            lookahead_keys: Vec::new(),
            outstanding: [0; 2],
            unacked_bytes: 0,
            barrier_release: None,
            reduce_result: None,
            ckpt_released: HashSet::new(),
            shutdown_seen: false,
            ft,
            run_dir,
            pardo_iters_done: 0,
            op_seq: 0,
            dist_epoch: 0,
            profile: WorkerProfile::default(),
            warnings: Vec::new(),
            started: Instant::now(),
            resumed_epochs: 0,
            trace: TraceSink::disabled(),
            put_flights: HashMap::new(),
        }
    }

    /// Installs the event sink (called by the runtime before the program
    /// starts) and, when it is live, turns on the cache's evict log.
    pub(crate) fn set_trace(&mut self, sink: TraceSink) {
        if sink.is_on() {
            self.mem.enable_evict_log();
        }
        self.trace = sink;
    }

    /// This worker's 0-based index.
    pub fn worker_index(&self) -> usize {
        self.layout.topology.worker_index(self.endpoint.rank())
    }

    // ---- message pump ---------------------------------------------------------

    /// Drains the inbox, handling every pending message, then ships what
    /// the handlers and the instruction before them staged: the rank is
    /// about to compute, and every reply, ack, forward, fetch and store
    /// bound for one peer leaves as one envelope. A flush error means
    /// shutdown or a dead peer; the wait loops read those off the flags.
    /// Returns whether any message was handled.
    pub(crate) fn service_messages(&mut self) -> bool {
        let mut handled = false;
        while let Some(env) = self.endpoint.try_recv() {
            self.handle(env.src, env.msg);
            handled = true;
        }
        let _ = self.endpoint.flush();
        handled
    }

    /// Keeps serving peers (gets/puts against blocks homed here) after this
    /// worker's program finished, until the master broadcasts shutdown.
    pub(crate) fn service_until_shutdown(&mut self) {
        loop {
            if self.shutdown_seen || self.endpoint.shutdown_raised() || self.endpoint.is_crashed() {
                return;
            }
            if let (Err(_), Some(ft)) = (self.pump_retries(), self.ft.as_mut()) {
                // Past the program's end nobody is left to hand a spent
                // retry budget to; stop tracking, or the dead timer would
                // keep this rank awake until shutdown.
                ft.forget_all();
                self.outstanding = [0; 2];
            }
            self.block_on_inbox();
        }
    }

    /// Blocks until the next message (handling it) or this worker's next
    /// due timer. Fault-free runs hold no timer: only a message, a raised
    /// shutdown or a crash ends the wait. What the handler stages goes out
    /// when the inbox next runs dry — at the caller's `service_messages`,
    /// or inside the next `recv_deadline` before it parks.
    fn block_on_inbox(&mut self) {
        let deadline = self.ft.as_ref().and_then(|ft| ft.next_deadline());
        if let Some(env) = self.endpoint.recv_deadline(deadline) {
            self.handle(env.src, env.msg);
        }
    }

    fn handle(&mut self, src: Rank, msg: SipMsg) {
        match msg {
            // Workers home distributed arrays only; a fetch or store of any
            // other kind was addressed to the wrong role.
            SipMsg::Fetch { key, .. } | SipMsg::Store { key, .. }
                if self.layout.array_kind(key.array) != ArrayKind::Distributed =>
            {
                self.warnings.push(format!(
                    "protocol error: worker received a fetch/store of non-distributed block \
                     {key:?} from {src}"
                ));
            }
            SipMsg::Fetch { key, req, epoch } => {
                // Conflict check: serving a block Replace-put in the
                // requester's epoch means the program raced a read against a
                // write.
                let (held, replaced) = match self.mem.home_fetch(key, epoch) {
                    Ok(found) => found,
                    Err(e) => return self.protocol_error(src, e),
                };
                if replaced {
                    self.warnings.push(format!(
                        "possible barrier misuse: block {key:?} read and replaced in the \
                         same sip_barrier epoch"
                    ));
                }
                let payload = self.as_read(&key, held);
                let _ = self
                    .endpoint
                    .stage(src, SipMsg::Block { key, payload, req });
            }
            SipMsg::Store {
                key,
                payload,
                mode,
                op,
                epoch,
            } => {
                if let Err(e) = self.apply_store_deduped(key, payload, mode, op, epoch) {
                    return self.protocol_error(src, e);
                }
                let _ = self.endpoint.stage(src, SipMsg::StoreAck { key, op });
            }
            SipMsg::StoreAck { key, op } => {
                let served = self.layout.array_kind(key.array) == ArrayKind::Served;
                let comm = &mut self.profile.metrics.comm;
                if served {
                    comm.prepares_acked += 1;
                } else {
                    comm.puts_acked += 1;
                }
                self.finish_put_flight(op, key, if served { CommOp::Prepare } else { CommOp::Put });
                // A duplicated or late ack of a tracked store finds nothing.
                let first = match self.ft.as_mut() {
                    Some(ft) if op.is_tracked() => ft.store_acked(op),
                    _ => true,
                };
                if first {
                    let n = &mut self.outstanding[served as usize];
                    *n = n.saturating_sub(1);
                    let bytes = self.layout.block_bytes(key.array);
                    self.unacked_bytes = self.unacked_bytes.saturating_sub(bytes);
                }
            }
            SipMsg::Block { key, payload, .. } => self.on_block(key, payload),
            SipMsg::ChunkAssign {
                pardo_pc,
                epoch,
                chunk,
                ordinals,
            } => {
                if let Some(p) = &mut self.pardo {
                    if p.start_pc == pardo_pc && p.epoch == epoch {
                        // Chunks are acknowledged for the master's ledger,
                        // which only a scheduled crash keeps.
                        if let Some(ft) = self.ft.as_mut().filter(|ft| ft.crash.is_some()) {
                            ft.chunk_acks.push_back((chunk, ordinals.len()));
                        }
                        p.queue.extend(ordinals);
                        p.requested = false;
                        self.profile.chunks += 1;
                    }
                }
            }
            SipMsg::Takeover {
                pardo_pc,
                epoch,
                chunk,
                ordinals,
            } => {
                if let Some(ft) = self.ft.as_mut() {
                    ft.takeovers.push_back(TakeoverChunk {
                        pardo_pc,
                        epoch,
                        chunk,
                        ordinals,
                    });
                }
            }
            SipMsg::RankDead {
                rank,
                inherited_ops,
            } => {
                self.on_rank_dead(rank, inherited_ops);
            }
            SipMsg::NoMoreChunks { pardo_pc, epoch } => {
                if let Some(p) = &mut self.pardo {
                    if p.start_pc == pardo_pc && p.epoch == epoch {
                        p.exhausted = true;
                        p.requested = false;
                    }
                }
            }
            SipMsg::BarrierRelease { kind } => {
                self.barrier_release = Some(kind);
            }
            SipMsg::ReduceResult { value } => {
                self.reduce_result = Some(value);
            }
            SipMsg::CkptRelease { label } => {
                self.ckpt_released.insert(label);
            }
            SipMsg::DeleteArray { array } => {
                self.mem.home_remove_array(array);
                self.mem.cache_invalidate_array(array);
            }
            SipMsg::Shutdown => {
                self.shutdown_seen = true;
            }
            // Messages a worker never receives (a Batch is unpacked by the
            // fabric endpoint before delivery, so a bare one is a protocol
            // error too).
            SipMsg::Batch(_)
            | SipMsg::ChunkRequest { .. }
            | SipMsg::ChunkDone { .. }
            | SipMsg::BarrierEnter { .. }
            | SipMsg::ReduceContrib { .. }
            | SipMsg::CkptBlock { .. }
            | SipMsg::CkptDone { .. }
            | SipMsg::EpochMark { .. }
            | SipMsg::EpochAck { .. }
            | SipMsg::WorkerDone { .. }
            | SipMsg::WorkerFailed { .. }
            | SipMsg::ServerDone { .. } => {
                self.warnings
                    .push(format!("worker received unexpected message from {src}"));
            }
        }
    }

    /// A peer addressed a block this home cannot hold — a requester checks
    /// its keys first, so only a broken peer gets here: warned, never
    /// answered.
    fn protocol_error(&mut self, src: Rank, e: RuntimeError) {
        self.warnings
            .push(format!("protocol error: a request from {src}: {e}"));
    }

    /// Forwards any cache evictions logged since the last call to the event
    /// sink (the log is only enabled while tracing, so this is a no-op with
    /// no allocation otherwise).
    pub(crate) fn drain_evictions_into_trace(&mut self) {
        if !self.trace.is_on() {
            return;
        }
        for (key, bytes) in self.mem.drain_evictions() {
            self.trace.instant(EventKind::CacheEvict { key, bytes });
        }
    }

    /// A block — or a sparse array's absence record — arrived in reply to a
    /// fetch, completing the demand fetch in flight. The cache entry shares
    /// the envelope's allocation.
    fn on_block(&mut self, key: BlockKey, payload: Payload) {
        if let Some(ft) = self.ft.as_mut() {
            ft.fetch_answered(&key);
        }
        let filled = match &payload {
            Payload::Data(data) => Some(data.heap_bytes()),
            Payload::Absent { .. } => {
                self.profile.metrics.sparse.bytes_not_shipped += self.layout.block_bytes(key.array);
                None
            }
        };
        // The cache hands back the flight this arrival completed.
        let fetch = self.mem.cache_fill(key, payload);
        if let Some(Flight { issued, req }) = fetch {
            let flight_ns = issued.elapsed().as_nanos() as u64;
            self.profile.metrics.comm.flight_nanos += flight_ns;
            if self.trace.is_on() {
                let end = self.trace.now_ns();
                self.trace.span(
                    EventKind::Flight {
                        op: CommOp::Get,
                        key,
                        id: req.0,
                    },
                    end.saturating_sub(flight_ns),
                    end,
                );
            }
        }
        if let Some(bytes) = filled {
            if self.trace.is_on() && fetch.is_some() {
                self.trace.instant(EventKind::CacheFill { key, bytes });
            }
        }
        self.drain_evictions_into_trace();
    }

    /// Closes the traced flight span of an acknowledged PUT/PREPARE.
    fn finish_put_flight(&mut self, op: OpId, key: BlockKey, kind: CommOp) {
        if !self.trace.is_on() {
            return;
        }
        if let Some(t0) = self.put_flights.remove(&op.0) {
            let ns = t0.elapsed().as_nanos() as u64;
            let end = self.trace.now_ns();
            self.trace.span(
                EventKind::Flight {
                    op: kind,
                    key,
                    id: op.0,
                },
                end.saturating_sub(ns),
                end,
            );
        }
    }

    /// Waits (servicing messages and pumping retries) until `done(self)`
    /// holds. Returns the time spent waiting — nothing, with no clock read
    /// and no wait recorded, when it already holds on entry. Aborts with an
    /// error naming `what` if shutdown is raised mid-wait or the retry
    /// budget runs out.
    ///
    /// This is the *single* accounting point for wait time: every blocked
    /// interval lands in the cause-attributed `metrics.wait` totals exactly
    /// once, here — callers that also fold the returned duration into a
    /// per-pc figure are attributing, not re-counting.
    pub(crate) fn wait_until(
        &mut self,
        cause: WaitCause,
        what: impl std::fmt::Display,
        mut done: impl FnMut(&Self) -> bool,
    ) -> Result<Duration, RuntimeError> {
        if done(self) {
            return Ok(Duration::ZERO);
        }
        let t0 = Instant::now();
        loop {
            self.service_messages();
            self.pump_retries()?;
            if done(self) {
                let end = Instant::now();
                let waited = end - t0;
                self.profile.add_wait(cause, waited);
                // A sub-microsecond wait (the awaited message was already in
                // the inbox) would only smear noise over the timeline.
                if waited.as_nanos() >= 1_000 {
                    self.trace.span_between(EventKind::Wait { cause }, t0, end);
                }
                return Ok(waited);
            }
            if self.shutdown_seen || self.endpoint.shutdown_raised() {
                return Err(RuntimeError::Comm {
                    kind: CommKind::Poisoned,
                    rank: self.endpoint.rank(),
                    key: None,
                    context: format!("run aborted while waiting for {what}"),
                });
            }
            if self.endpoint.is_crashed() {
                return Err(RuntimeError::Comm {
                    kind: CommKind::RankDead,
                    rank: self.endpoint.rank(),
                    key: None,
                    context: format!("rank crashed while waiting for {what}"),
                });
            }
            self.block_on_inbox();
        }
    }

    // ---- index environment -------------------------------------------------------

    /// The storage block a ref denotes under the current index values, and
    /// the window within it when the ref is sub-addressed (errors if an
    /// index is unbound — sema prevents, but corrupted bytecode shouldn't
    /// panic).
    pub(crate) fn resolve(
        &self,
        r: &RefFacts,
    ) -> Result<(BlockKey, Option<SliceSpec>), RuntimeError> {
        let env = &self.env;
        (self.layout.storage_target(r, |i| env[i.index()])).map_err(|i| {
            RuntimeError::BadProgram(format!(
                "index `{}` used while undefined",
                self.layout.program.indices[i.index()].name
            ))
        })
    }

    // ---- block lifetimes ------------------------------------------------------------

    /// Returns a handle's storage to the pool if this was the last holder;
    /// a still-shared handle is dropped and counted back (the other holder —
    /// a home, a flight in the retry state, a journal entry — keeps the
    /// allocation alive).
    pub(crate) fn release_handle(&mut self, h: BlockHandle) {
        release_to(&self.pool, h);
    }

    /// Frees all temp blocks (end of a pardo iteration) back to the pool.
    pub(crate) fn free_temps(&mut self) {
        for (_, block) in self.temps.iter_mut().filter_map(Option::take) {
            release_to(&self.pool, block);
        }
    }

    /// Invalidate cached copies of every array of `kind` (stale after a
    /// barrier).
    pub(crate) fn invalidate_cached_kind(&mut self, kind: ArrayKind) {
        for (i, decl) in self.layout.program.arrays.iter().enumerate() {
            if decl.kind == kind {
                self.mem.cache_invalidate_array(ArrayId(i as u32));
            }
        }
    }
}

/// Returns a handle's storage to `pool` if this was the last holder. A
/// still-shared block has left for good (a temp put into a home): the pool
/// stops counting it.
fn release_to(pool: &BlockPool, h: BlockHandle) {
    if h.is_shared() {
        pool.forget(h.len());
    } else {
        pool.release(h.into_block());
    }
}
