//! Worker state and the asynchronous progress engine.
//!
//! Each worker "loops through the instruction table executing bytecode
//! instructions, periodically checking for messages and processing them"
//! (§V-B). This module holds the worker's stores (home blocks, cache,
//! temps, locals), its pardo machinery, outstanding-ack tracking, and the
//! message pump; the instruction dispatch lives in [`crate::interp`].

use crate::cache::{BlockGet, CacheEntry, Flight};
use crate::error::{CommKind, RuntimeError};
use crate::events::{CommOp, EventKind, RecoveryEvent, TraceSink};
use crate::ft::{self, Exhausted, FtState, JournalEntry, Retry, TakeoverChunk};
use crate::layout::{Layout, SegVals, SipConfig};
use crate::memory::BlockManager;
use crate::metrics::WaitCause;
use crate::msg::{BarrierKind, BlockKey, OpId, Payload, SipMsg};
use crate::profile::WorkerProfile;
use crate::registry::SuperRegistry;
use sia_blocks::{Block, BlockHandle};
use sia_blocks::{BlockPool, ContractCtx, PoolConfig};
use sia_bytecode::{ArrayId, ArrayKind, BlockRef, IndexId, PutMode};
use sia_fabric::{Endpoint, Rank, ReqId};
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

/// How a block access treats a non-resident block: issue the fetch and
/// return immediately (`get`/`request`/prefetch), or block until the data
/// is resident (operand reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fetch {
    NoWait,
    Wait,
}

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

/// The in-progress pardo of a worker.
#[derive(Debug)]
pub(crate) struct PardoState {
    pub start_pc: u32,
    /// Which encounter of this pardo this is (increments every time the
    /// worker reaches the PardoStart).
    pub epoch: u64,
    pub end_pc: u32,
    pub indices: Vec<IndexId>,
    /// Inclusive segment range per index, which iteration ordinals decode
    /// against.
    pub ranges: Vec<(i64, i64)>,
    /// Assigned iteration ordinals not yet executed.
    pub queue: VecDeque<u64>,
    /// A ChunkRequest is outstanding.
    pub requested: bool,
    /// Master said the space is exhausted.
    pub exhausted: bool,
    /// The body's unconditional top-level `get`/`request` refs: what the
    /// chunk look-ahead fetches for the iterations in `queue`.
    pub gets: Arc<[BlockRef]>,
    /// How many iterations ahead the look-ahead may run: the window's bytes
    /// over the bytes `gets` pulls per iteration (0 = no look-ahead).
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
    /// Encounter counters per pardo pc.
    pub(crate) pardo_epochs: HashMap<u32, u64>,
    /// Look-ahead refs per pardo pc (see [`PardoState::gets`]), found at
    /// the first encounter.
    pub(crate) pardo_gets: HashMap<u32, Arc<[BlockRef]>>,
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
            pardo_epochs: HashMap::new(),
            pardo_gets: HashMap::new(),
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

    /// Applies a store sent in `epoch` to the authoritative store (used by
    /// the home for remote puts and by the owner for local ones), under the
    /// rules of [`BlockManager::home_store`].
    pub(crate) fn apply_store_local(
        &mut self,
        key: BlockKey,
        payload: Payload,
        mode: PutMode,
        epoch: Option<u64>,
    ) -> Result<(), RuntimeError> {
        // Sparse screening at the home: a payload under the threshold is
        // dropped and only its norm bound is recorded. Also reached by a
        // fault-tolerance journal replay of a put the sender dropped (replay
        // resends the full block), keeping replay idempotent with the drop.
        let payload = match payload {
            Payload::Data(data) => match self.screen(&key, &data) {
                Some(norm) => Payload::Absent { norm },
                None => Payload::Data(data),
            },
            absent => absent,
        };
        if self.mem.home_store(key, payload, mode, epoch)? {
            self.warnings.push(format!(
                "possible barrier misuse: block {key:?} replaced after being read \
                 in the same sip_barrier epoch"
            ));
        }
        // A fresher value exists; drop any stale cached copy.
        self.mem.cache_invalidate(&key);
        Ok(())
    }

    /// True when blocks of `array` are screened: the array is declared
    /// sparse and the run has a positive sparsity threshold.
    pub(crate) fn sparsity_active(&self, array: ArrayId) -> bool {
        self.config.sparsity_threshold > 0.0 && self.layout.array_sparse(array)
    }

    /// Sparse screening: the norm of `data` when `key`'s array is screened
    /// and the norm falls under the threshold (the store then carries only
    /// the norm); `None` means the block itself is stored.
    fn screen(&self, key: &BlockKey, data: &BlockHandle) -> Option<f64> {
        if !self.sparsity_active(key.array) {
            return None;
        }
        let norm = data.norm();
        (norm < self.config.sparsity_threshold).then_some(norm)
    }

    /// What the home store's `held` entry for `key` serves: the block
    /// (sharing the store's allocation), a sparse array's typed absence
    /// with its norm bound (0.0 if never written), or `None` for a dense
    /// array's unfilled block.
    fn as_served(&self, key: &BlockKey, held: Option<Payload>) -> Option<Payload> {
        match held {
            Some(Payload::Data(data)) => Some(Payload::Data(data)),
            held if self.layout.array_sparse(key.array) => Some(Payload::Absent {
                norm: match held {
                    Some(Payload::Absent { norm }) => norm,
                    _ => 0.0,
                },
            }),
            _ => None,
        }
    }

    /// [`Worker::as_served`] as a reader sees it: a dense array's unfilled
    /// block reads as zero ("blocks are allocated … only when actually
    /// filled"), which is what makes symmetric-array declarations cheap.
    fn as_read(&self, key: &BlockKey, held: Option<Payload>) -> Payload {
        self.as_served(key, held).unwrap_or_else(|| {
            Payload::Data(BlockHandle::zeros(
                self.layout.declared_block_shape(key.array),
            ))
        })
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

    pub(crate) fn index_value(&self, id: IndexId) -> i64 {
        self.env[id.index()]
    }

    pub(crate) fn set_index(&mut self, id: IndexId, v: i64) {
        self.env[id.index()] = v;
    }

    /// Values of a ref's indices (errors if any is unbound — sema prevents,
    /// but corrupted bytecode shouldn't panic).
    pub(crate) fn seg_values(&self, indices: &[IndexId]) -> Result<SegVals, RuntimeError> {
        let mut segs = SegVals::zeroed(indices.len());
        for (seg, &i) in segs.iter_mut().zip(indices) {
            *seg = self.index_value(i);
            if *seg == 0 {
                return Err(RuntimeError::BadProgram(format!(
                    "index `{}` used while undefined",
                    self.layout.program.indices[i.index()].name
                )));
            }
        }
        Ok(segs)
    }

    // ---- block access ---------------------------------------------------------------

    /// Home of a distributed block (skipping dead workers under fault
    /// tolerance) or a served one, by the array's kind. The single resolver
    /// on the worker: every caller goes through here (or through
    /// [`Layout::home_of`] with an explicit dead mask), so nothing can pick
    /// the stale non-excluding variant during recovery. A key that is no
    /// block of its array is refused here, before any home is resolved or
    /// anything is sent.
    pub(crate) fn home_of(&self, key: &BlockKey) -> Result<Rank, RuntimeError> {
        match self.layout.array_kind(key.array) {
            ArrayKind::Served if self.layout.topology.io_servers == 0 => {
                return Err(RuntimeError::ServedIo(
                    "program uses served arrays but io_servers = 0".into(),
                ));
            }
            ArrayKind::Distributed | ArrayKind::Served => {}
            other => {
                return Err(RuntimeError::BadProgram(format!(
                    "block access on {other:?} array"
                )));
            }
        }
        self.layout.ordinal_of(key)?;
        let dead = self.ft.as_ref().map(|ft| ft.dead.as_slice()).unwrap_or(&[]);
        Ok(self.layout.home_of(key, dead))
    }

    /// The single entry point for distributed/served block access, returning
    /// a typed [`BlockGet`] instead of implicitly materializing zero blocks.
    ///
    /// [`Fetch::NoWait`] issues the asynchronous fetch behind
    /// `get`/`request`/prefetch (a no-op when the block is homed here,
    /// cached, or already in flight) and returns [`BlockGet::Pending`].
    /// [`Fetch::Wait`] blocks on an in-flight fetch — or issues a late one —
    /// if necessary, and returns [`BlockGet::Ready`] with the data or
    /// [`BlockGet::AbsentZero`] when the block is typed-absent from a sparse
    /// array; the time blocked is added to `wait` for the profiler.
    pub(crate) fn access_key(
        &mut self,
        key: BlockKey,
        fetch: Fetch,
        wait: &mut Duration,
    ) -> Result<BlockGet, RuntimeError> {
        let home = self.home_of(&key)?;
        if home == self.endpoint.rank() {
            // Authoritative store; nothing to fetch.
            if fetch == Fetch::NoWait {
                return Ok(BlockGet::Pending);
            }
            let held = self.mem.home_read(&key)?;
            return Ok(match self.as_read(&key, held) {
                Payload::Data(h) => BlockGet::Ready(h),
                Payload::Absent { norm } => BlockGet::AbsentZero { norm },
            });
        }
        if fetch == Fetch::NoWait {
            self.fetch_unless_cached(home, key)?;
            return Ok(BlockGet::Pending);
        }
        loop {
            let hit = match self.mem.cache_lookup(&key) {
                Some(CacheEntry::Ready(b)) => Some(BlockGet::Ready(b.clone())),
                Some(&CacheEntry::Absent { norm }) => Some(BlockGet::AbsentZero { norm }),
                Some(CacheEntry::InFlight(_)) => None,
                None => {
                    // Late fetch — the contraction operator "ensures that the
                    // necessary blocks are available and waits … if
                    // necessary". Also reached when cache pressure evicted a
                    // filled entry before this waiter observed it: the next
                    // round trip re-fetches (counted as a refetch).
                    self.fetch_unless_cached(home, key)?;
                    None
                }
            };
            match hit {
                Some(BlockGet::Ready(h)) => {
                    // Sharing the cached handle pins it against eviction
                    // while the caller holds it.
                    self.mem.note_share(&h);
                    return Ok(BlockGet::Ready(h));
                }
                Some(got) => return Ok(got),
                None => {}
            }
            // Wait until the entry leaves the in-flight state: Ready (the
            // next lookup shares it — eviction only runs on this thread, so
            // it cannot vanish in between) or evicted/absent (loop re-arms
            // the fetch).
            let waited = self.wait_until(
                WaitCause::BlockArrival,
                format_args!("block {key:?}"),
                |w| !matches!(w.mem.cache_peek(&key), Some(CacheEntry::InFlight(_))),
            )?;
            // Time blocked on a fetch is comm latency the prefetcher failed
            // to hide — the "exposed" half of the overlap metric.
            self.profile.metrics.comm.exposed_nanos += waited.as_nanos() as u64;
            *wait += waited;
        }
    }

    /// Fetches `key` from `home` unless the cache holds it or it is already
    /// on its way: marks it in flight — the entry carries the flight's issue
    /// time and request id, which back the overlap metric — and sends the
    /// fetch, registering it for retry under fault tolerance. `home` comes
    /// from [`Worker::home_of`], which refused any key outside its array's
    /// declared segments.
    fn fetch_unless_cached(&mut self, home: Rank, key: BlockKey) -> Result<(), RuntimeError> {
        // A real id is only needed for retry correlation (FT) or flight
        // correlation in the trace; fault-free untraced runs skip it.
        let (endpoint, correlated) = (&self.endpoint, self.ft.is_some() || self.trace.is_on());
        let issued = self.mem.cache_mark_in_flight(key, || Flight {
            issued: Instant::now(),
            req: if correlated {
                endpoint.next_req_id()
            } else {
                ReqId::NONE
            },
        });
        let Some(Flight { req, .. }) = issued else {
            return Ok(());
        };
        self.profile.metrics.comm.fetches += 1;
        if let Some(ft) = self.ft.as_mut() {
            ft.track_fetch(key, req);
        }
        let msg = SipMsg::Fetch {
            key,
            req,
            epoch: self.dist_epoch,
        };
        if self.ft.is_some() {
            // The fetch is registered for retry; a send failure means the
            // home just died and the retry will re-route after RankDead.
            let _ = self.endpoint.stage(home, msg);
        } else {
            self.endpoint.stage(home, msg)?;
        }
        Ok(())
    }

    /// Reads the block a ref denotes, waiting for in-flight fetches. Returns
    /// a shared handle aliasing the resident block — mutation by the caller
    /// goes through copy-on-write, so correctness is preserved without the
    /// old defensive deep copy.
    ///
    /// `wait` accumulates blocked time for the profiler.
    pub(crate) fn read_block(
        &mut self,
        array: ArrayId,
        ref_indices: &[IndexId],
        wait: &mut Duration,
    ) -> Result<BlockHandle, RuntimeError> {
        let segs = self.seg_values(ref_indices)?;
        let (key, slice) = self.layout.storage_target(array, ref_indices, &segs);
        let kind = self.layout.array_kind(array);
        let whole = match kind {
            ArrayKind::Temp => match &self.temps[array.index()] {
                Some((stored_key, block)) if *stored_key == key => {
                    let h = block.clone();
                    self.mem.note_share(&h);
                    h
                }
                _ => {
                    return Err(RuntimeError::TempUndefined {
                        array: self.layout.array(array).name.clone(),
                    });
                }
            },
            ArrayKind::Local | ArrayKind::Static => match self.mem.local_share(&key)? {
                Some(h) => h,
                None => {
                    return Err(RuntimeError::BlockNotAvailable {
                        key,
                        context: format!(
                            "local/static block of `{}` never written",
                            self.layout.array(array).name
                        ),
                    });
                }
            },
            ArrayKind::Distributed | ArrayKind::Served => {
                match self.access_key(key, Fetch::Wait, wait)? {
                    BlockGet::Ready(h) => h,
                    // Dense consumers still see an absent block as zeros;
                    // screening-aware consumers use `read_block_get`.
                    BlockGet::AbsentZero { .. } => {
                        BlockHandle::zeros(self.layout.declared_block_shape(array))
                    }
                    BlockGet::Pending => {
                        return Err(RuntimeError::Internal(
                            "wait-mode access returned pending".into(),
                        ));
                    }
                }
            }
        };
        match slice {
            None => Ok(whole),
            Some((offsets, extents)) => {
                let spec = sia_blocks::SliceSpec::new(&offsets, &extents);
                sia_blocks::extract_slice(&whole, &spec)
                    .map(BlockHandle::new)
                    .map_err(|e| RuntimeError::Internal(format!("slice extraction failed: {e}")))
            }
        }
    }

    /// Screening-aware read for consumers that can exploit typed absence
    /// (the contraction path): like [`Worker::read_block`], but an absent
    /// sparse block comes back as [`BlockGet::AbsentZero`] with its norm
    /// bound instead of a materialized zero block. A slice of an absent
    /// block is absent with the same bound (`‖sub‖F ≤ ‖whole‖F`).
    pub(crate) fn read_block_get(
        &mut self,
        array: ArrayId,
        ref_indices: &[IndexId],
        wait: &mut Duration,
    ) -> Result<BlockGet, RuntimeError> {
        let kind = self.layout.array_kind(array);
        if !matches!(kind, ArrayKind::Distributed | ArrayKind::Served) {
            // Temp/local/static arrays are never sparse.
            return self
                .read_block(array, ref_indices, wait)
                .map(BlockGet::Ready);
        }
        let segs = self.seg_values(ref_indices)?;
        let (key, slice) = self.layout.storage_target(array, ref_indices, &segs);
        match self.access_key(key, Fetch::Wait, wait)? {
            BlockGet::Ready(whole) => match slice {
                None => Ok(BlockGet::Ready(whole)),
                Some((offsets, extents)) => {
                    let spec = sia_blocks::SliceSpec::new(&offsets, &extents);
                    sia_blocks::extract_slice(&whole, &spec)
                        .map(|b| BlockGet::Ready(BlockHandle::new(b)))
                        .map_err(|e| {
                            RuntimeError::Internal(format!("slice extraction failed: {e}"))
                        })
                }
            },
            absent @ BlockGet::AbsentZero { .. } => Ok(absent),
            BlockGet::Pending => Err(RuntimeError::Internal(
                "wait-mode access returned pending".into(),
            )),
        }
    }

    /// Writes `block` to the storage a ref denotes (temp/local/static only;
    /// distributed/served writes go through put/prepare). Accepts anything
    /// convertible to a [`BlockHandle`], so a shared handle is stored without
    /// materializing a copy.
    pub(crate) fn write_block(
        &mut self,
        array: ArrayId,
        ref_indices: &[IndexId],
        block: impl Into<BlockHandle>,
    ) -> Result<(), RuntimeError> {
        let block = block.into();
        let segs = self.seg_values(ref_indices)?;
        let (key, slice) = self.layout.storage_target(array, ref_indices, &segs);
        let kind = self.layout.array_kind(array);
        match slice {
            None => match kind {
                ArrayKind::Temp => {
                    if let Some((_, old)) = self.temps[array.index()].replace((key, block)) {
                        self.release_handle(old);
                    }
                    Ok(())
                }
                ArrayKind::Local | ArrayKind::Static => self.mem.local_insert(key, block),
                other => Err(RuntimeError::BadProgram(format!(
                    "direct write to {other:?} array"
                ))),
            },
            Some((offsets, extents)) => {
                // Insertion: write the subblock into the (existing or fresh)
                // parent block.
                let spec = sia_blocks::SliceSpec::new(&offsets, &extents);
                let parent_shape = self.layout.declared_block_shape(array);
                match kind {
                    ArrayKind::Temp => {
                        let entry = self.temps[array.index()]
                            .get_or_insert_with(|| (key, BlockHandle::zeros(parent_shape)));
                        if entry.0 != key {
                            *entry = (key, BlockHandle::zeros(parent_shape));
                        }
                        sia_blocks::insert_slice(entry.1.make_mut(), &spec, &block)
                            .map_err(|e| RuntimeError::Internal(format!("insert failed: {e}")))
                    }
                    ArrayKind::Local | ArrayKind::Static => {
                        let parent = self
                            .mem
                            .local_mut_or_insert(key, || BlockHandle::zeros(parent_shape))?;
                        sia_blocks::insert_slice(parent.make_mut(), &spec, &block)
                            .map_err(|e| RuntimeError::Internal(format!("insert failed: {e}")))
                    }
                    other => Err(RuntimeError::BadProgram(format!(
                        "direct write to {other:?} array"
                    ))),
                }
            }
        }
    }

    /// Mutates a writable block in place (for `+=`, `*=` on temps/locals).
    pub(crate) fn modify_block(
        &mut self,
        array: ArrayId,
        ref_indices: &[IndexId],
        f: impl FnOnce(&mut Block),
    ) -> Result<(), RuntimeError> {
        let segs = self.seg_values(ref_indices)?;
        let (key, slice) = self.layout.storage_target(array, ref_indices, &segs);
        if slice.is_some() {
            // Read-modify-write through the slice path.
            let mut wait = Duration::ZERO;
            let mut sub = self.read_block(array, ref_indices, &mut wait)?;
            f(sub.make_mut());
            return self.write_block(array, ref_indices, sub);
        }
        match self.layout.array_kind(array) {
            ArrayKind::Temp => match &mut self.temps[array.index()] {
                Some((stored_key, block)) if *stored_key == key => {
                    f(block.make_mut());
                    Ok(())
                }
                _ => Err(RuntimeError::TempUndefined {
                    array: self.layout.array(array).name.clone(),
                }),
            },
            ArrayKind::Local | ArrayKind::Static => match self.mem.local_get_mut(&key)? {
                Some(block) => {
                    f(block.make_mut());
                    Ok(())
                }
                None => Err(RuntimeError::BlockNotAvailable {
                    key,
                    context: "in-place update of unwritten local/static block".into(),
                }),
            },
            other => Err(RuntimeError::BadProgram(format!(
                "in-place update of {other:?} array"
            ))),
        }
    }

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

    // ---- fault tolerance --------------------------------------------------------

    /// Sends a store (PUT or PREPARE, by `key`'s array kind) to `home` and
    /// counts it outstanding until acknowledged; under fault tolerance the
    /// op is also tracked for retry — and, for puts, journal replay. The
    /// journal entry, the retained pending payload, and the wire message
    /// all share one allocation.
    ///
    /// A store that would take the unacknowledged bytes past the window
    /// first waits (into `wait`) for acks to bring them down to half of it:
    /// a worker that never has to wait for anything else — its gets looked
    /// ahead, or none at all — would otherwise run its whole chunk of
    /// blocks into the home's inbox. `home` comes from
    /// [`Worker::home_of`], which refused any key outside its array's
    /// declared segments.
    pub(crate) fn send_store(
        &mut self,
        home: Rank,
        key: BlockKey,
        data: BlockHandle,
        mode: PutMode,
        op: OpId,
        wait: &mut Duration,
    ) -> Result<(), RuntimeError> {
        let served = self.layout.array_kind(key.array) == ArrayKind::Served;
        let bytes = self.layout.block_bytes(key.array);
        if self.unacked_bytes > 0 && self.unacked_bytes + bytes > self.window_bytes {
            *wait += self.wait_until(WaitCause::AckDrain, "store window", |w| {
                w.unacked_bytes <= w.window_bytes / 2
            })?;
        }
        // Tracked ops get a traced flight span; untracked (`OpId::NONE`)
        // stores have no correlatable id, so they are counted but not
        // spanned.
        if self.trace.is_on() && op.is_tracked() {
            self.put_flights.insert(op.0, Instant::now());
        }
        // Sparse screening at the sender: a payload under the threshold
        // ships as a norm record instead of the block.
        let dropped = self.screen(&key, &data);
        if dropped.is_some() {
            self.profile.metrics.sparse.bytes_not_shipped += data.heap_bytes();
        }
        let epoch = Some(self.dist_epoch);
        let wire = |data: BlockHandle| SipMsg::Store {
            key,
            payload: match dropped {
                Some(norm) => Payload::Absent { norm },
                None => Payload::Data(data),
            },
            mode,
            op,
            epoch,
        };
        // A re-armed store (already pending) is not counted again.
        let new = match self.ft.as_mut() {
            Some(ft) => {
                // I/O servers never die in the fault model, so prepares are
                // not journaled.
                if !served && ft.crash.is_some() {
                    self.mem.note_share(&data);
                    ft.journal.push(JournalEntry {
                        op: op.0,
                        key,
                        data: data.clone(),
                        mode,
                    });
                }
                self.mem.note_share(&data);
                ft.arm_flight(op, key, data.clone(), mode, served)
            }
            None => true,
        };
        if new {
            self.outstanding[served as usize] += 1;
            self.unacked_bytes += bytes;
        }
        let staged = self.endpoint.stage(home, wire(data));
        // Tracked for retry: a failed send to a dying home re-routes once
        // the master broadcasts RankDead.
        if self.ft.is_none() {
            staged?;
        }
        if served {
            // The freshest copy is at the server now.
            self.mem.cache_invalidate(&key);
        }
        Ok(())
    }

    /// True when every store to arrays of `kind` — PUTs for distributed,
    /// PREPAREs for served — has been acknowledged.
    pub(crate) fn stores_drained(&self, kind: ArrayKind) -> bool {
        self.outstanding[(kind == ArrayKind::Served) as usize] == 0
    }

    /// Derives the duplicate-suppression id for a PUT/PREPARE at `pc` on
    /// `key`, consuming one slot of the per-iteration op sequence. Untracked
    /// (`OpId::NONE`) on fault-free runs. Inside pardos and takeover replays
    /// the id is worker-independent (re-execution of the iteration
    /// reproduces it anywhere); outside, the worker index is mixed in so
    /// each rank's SPMD accumulate counts once.
    pub(crate) fn derive_op(&mut self, pc: u32, key: &BlockKey) -> OpId {
        let Some(ft) = &self.ft else {
            return OpId::NONE;
        };
        let seq = self.op_seq;
        self.op_seq += 1;
        let spmd = if self.pardo.is_some() || ft.in_takeover {
            None
        } else {
            Some(self.worker_index())
        };
        OpId(ft::derive_op_id(
            pc,
            self.dist_epoch,
            key,
            &self.env,
            seq,
            spmd,
        ))
    }

    /// Applies a store sent in `epoch` (local or arriving over the wire)
    /// with duplicate suppression: a tracked op already in the applied
    /// window is dropped. This is what makes retries, fabric duplication,
    /// and chunk re-execution idempotent — for blocks and norm records
    /// alike, which share the one window.
    pub(crate) fn apply_store_deduped(
        &mut self,
        key: BlockKey,
        payload: Payload,
        mode: PutMode,
        op: OpId,
        epoch: Option<u64>,
    ) -> Result<(), RuntimeError> {
        let window_epoch = self.dist_epoch;
        let duplicate = op.is_tracked()
            && !self
                .ft
                .as_mut()
                .map(|ft| ft.applied.note(op.0, window_epoch))
                .unwrap_or(true);
        if duplicate {
            self.profile.metrics.fault.dup_puts_suppressed += 1;
            return Ok(());
        }
        self.apply_store_local(key, payload, mode, epoch)
    }

    /// Retries timed-out tracked operations (no-op on fault-free runs).
    /// Errors when an operation exhausts its retry budget.
    pub(crate) fn pump_retries(&mut self) -> Result<(), RuntimeError> {
        let Some(ft) = self.ft.as_mut() else {
            return Ok(());
        };
        // Nothing tracked, or nothing due yet: no walk over what is pending.
        let Some(due) = ft.next_deadline() else {
            return Ok(());
        };
        let now = Instant::now();
        if now < due {
            return Ok(());
        }
        let (layout, epoch) = (&self.layout, self.dist_epoch);
        let mut resend: Vec<(Rank, SipMsg)> = Vec::new();
        let mut put_retries = 0u64;
        let mut prepare_retries = 0u64;
        for (&op, p) in ft.pending.iter_mut() {
            if now < p.retry.deadline() {
                continue;
            }
            let served = p.served;
            let home = layout.home_of(&p.key, &ft.dead);
            p.retry
                .bump()
                .map_err(|Exhausted(attempts)| RuntimeError::Comm {
                    kind: CommKind::Timeout,
                    rank: home,
                    key: Some(p.key),
                    context: format!(
                        "{} unacknowledged after {attempts} attempts",
                        if served { "PREPARE" } else { "PUT" },
                    ),
                })?;
            if served {
                prepare_retries += 1;
            } else {
                put_retries += 1;
            }
            // The resend shares the retained payload's allocation.
            resend.push((home, p.store_msg(OpId(op), epoch)));
        }
        let mut fetch_retries = 0u64;
        let mut refreshed: Vec<BlockKey> = Vec::new();
        for (key, f) in ft.fetches.iter_mut() {
            if now < f.retry.deadline() {
                continue;
            }
            let home = layout.home_of(key, &ft.dead);
            f.retry
                .bump()
                .map_err(|Exhausted(attempts)| RuntimeError::Comm {
                    kind: CommKind::Timeout,
                    rank: home,
                    key: Some(*key),
                    context: format!(
                        "{} reply lost after {attempts} attempts",
                        if layout.array_kind(key.array) == ArrayKind::Served {
                            "REQUEST"
                        } else {
                            "GET"
                        },
                    ),
                })?;
            fetch_retries += 1;
            refreshed.push(*key);
            resend.push((
                home,
                SipMsg::Fetch {
                    key: *key,
                    req: f.req,
                    epoch,
                },
            ));
        }
        ft.settle_deadline();
        self.profile.metrics.fault.put_retries += put_retries;
        self.profile.metrics.fault.prepare_retries += prepare_retries;
        self.profile.metrics.fault.fetch_retries += fetch_retries;
        for key in &refreshed {
            self.mem.cache_refresh_in_flight(key);
        }
        for (to, msg) in resend {
            // A send error means the peer is gone; the master will declare
            // it dead and re-route, so keep retrying until then.
            let _ = self.endpoint.stage(to, msg);
        }
        Ok(())
    }

    /// Fires the deterministic crash schedule: once this worker has
    /// completed its configured number of pardo iterations, it kills its
    /// endpoint and unwinds. Called at iteration boundaries, the only point
    /// at which its last epoch checkpoint is promised consistent.
    pub(crate) fn maybe_crash(&mut self) -> Result<(), RuntimeError> {
        let due = self.ft.as_ref().and_then(|ft| ft.crash).is_some_and(|c| {
            c.worker == self.worker_index() && self.pardo_iters_done >= c.after_iterations
        });
        if !due {
            return Ok(());
        }
        self.endpoint.kill();
        Err(RuntimeError::Comm {
            kind: CommKind::RankDead,
            rank: self.endpoint.rank(),
            key: None,
            context: "injected crash (crash schedule)".into(),
        })
    }

    /// Bookkeeping after one completed pardo iteration: drives the crash
    /// schedule and, when one is scheduled, chunk acknowledgements.
    pub(crate) fn note_pardo_iter_done(&mut self, pardo_pc: u32, epoch: u64) {
        self.pardo_iters_done += 1;
        let master = self.layout.topology.master();
        let Some(ft) = self.ft.as_mut() else {
            return;
        };
        if ft.in_takeover {
            return; // the takeover runner acks the whole chunk itself
        }
        let Some(front) = ft.chunk_acks.front_mut() else {
            return;
        };
        front.1 = front.1.saturating_sub(1);
        if front.1 == 0 {
            let chunk = front.0;
            ft.chunk_acks.pop_front();
            let _ = self.endpoint.send(
                master,
                SipMsg::ChunkDone {
                    pardo_pc,
                    epoch,
                    chunk,
                },
            );
        }
    }

    /// Runs the fault-tolerance epoch transition after a `sip_barrier`
    /// release (the epoch counter has already advanced): checkpoint the
    /// authoritative blocks when a crash is scheduled, clear the put journal,
    /// and prune the applied-op window.
    pub(crate) fn on_sip_barrier_released(&mut self) {
        let widx = self.worker_index();
        let epoch = self.dist_epoch;
        let Some(ft) = self.ft.as_mut() else {
            return;
        };
        if ft.crash.is_some() {
            if let Some(dir) = &self.run_dir {
                let path = ft::epoch_ckpt_path(dir, widx);
                // The snapshot shares the authoritative blocks' allocations.
                let snapshot = self.mem.home_shares(None);
                if let Err(e) = ft::write_epoch_checkpoint(&path, epoch, &snapshot, &ft.applied) {
                    self.warnings.push(format!("epoch checkpoint failed: {e}"));
                }
            }
        }
        ft.journal.clear();
        ft.applied.prune(epoch);
    }

    /// Handles a `RankDead` broadcast: marks the worker dead, inherits the
    /// corpse's applied-op window (so journal replay cannot double-apply
    /// what its restored checkpoint already contains), replays current-epoch
    /// puts that were homed there, and re-routes in-flight fetches.
    fn on_rank_dead(&mut self, dead_rank: Rank, inherited_ops: Vec<u64>) {
        if !self.layout.topology.is_worker(dead_rank) {
            return;
        }
        let dead_idx = self.layout.topology.worker_index(dead_rank);
        let epoch = self.dist_epoch;
        let layout = Arc::clone(&self.layout);
        let Some(ft) = self.ft.as_mut() else {
            return;
        };
        if ft.dead.get(dead_idx).copied().unwrap_or(true) {
            return; // unknown index or already processed
        }
        let prev_dead = ft.dead.clone();
        ft.dead[dead_idx] = true;
        self.trace.instant(EventKind::Recovery {
            what: RecoveryEvent::RankDead,
        });
        for op in inherited_ops {
            ft.applied.note(op, epoch);
        }
        let mut sends: Vec<(Rank, SipMsg)> = Vec::new();
        // Replay this epoch's puts that were homed at the corpse. The
        // master restored the corpse's last checkpoint to the new homes
        // *before* broadcasting the death, so replay lands on (or dedups
        // against) consistent state. The journal is a superset of the
        // pending puts, so unacked dead-homed puts are re-armed here too.
        // Each replay shares the journal entry's allocation.
        let mut replays = 0u64;
        let to_replay: Vec<(u64, BlockKey, BlockHandle, PutMode, Rank)> = ft
            .journal
            .iter()
            .filter(|e| layout.home_of_distributed_excluding(&e.key, &prev_dead) == dead_rank)
            .map(|e| {
                let new_home = layout.home_of_distributed_excluding(&e.key, &ft.dead);
                (e.op, e.key, e.data.clone(), e.mode, new_home)
            })
            .collect();
        for (op, key, data, mode, new_home) in to_replay {
            replays += 1;
            // The journal holds puts only.
            if ft.arm_flight(OpId(op), key, data, mode, false) {
                self.outstanding[0] += 1;
                self.unacked_bytes += layout.block_bytes(key.array);
            }
            sends.push((new_home, ft.pending[&op].store_msg(OpId(op), epoch)));
        }
        // Re-route unanswered fetches that were addressed to the corpse.
        let mut reroutes = 0u64;
        for (key, f) in ft.fetches.iter_mut() {
            if layout.home_of(key, &prev_dead) != dead_rank {
                continue;
            }
            let new_home = layout.home_of(key, &ft.dead);
            f.retry = Retry::new();
            reroutes += 1;
            sends.push((
                new_home,
                SipMsg::Fetch {
                    key: *key,
                    req: f.req,
                    epoch,
                },
            ));
        }
        self.profile.metrics.fault.journal_replays += replays;
        self.profile.metrics.fault.reroutes += reroutes;
        for (to, msg) in sends {
            let _ = self.endpoint.stage(to, msg);
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
