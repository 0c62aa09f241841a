//! Fault-tolerance state and the checkpoint file record.
//!
//! All of this is live only when [`SipConfig::fault`](crate::SipConfig) is
//! set; a fault-free run never allocates an [`FtState`]. Armed or not, a
//! worker counts its unacknowledged stores in the same two integers
//! (`Worker::outstanding`). The fork is kept because
//! it is measured: arming an `FtState` with nothing injected costs
//! `putget_fine` 8.8 % of its wall time (0.266 → 0.289 s over 10
//! alternating pairs on a 2-vCPU Xeon, the armed run faster in 3), and
//! still 6.4 % with the applied-op window and the pending map hashed by
//! `KeyHasher` — over the 5 % the ROADMAP (deletion-pass item 4) allows
//! the merge. No wait walks what is pending any more
//! ([`FtState::next_deadline`] is a stored bound, `Worker::stores_drained`
//! a counter); what is left is per operation — a clock reading per
//! [`Retry`], a map entry and a retained payload per store.
//!
//! The recovery protocol (see DESIGN.md "Fault model & recovery"):
//!
//! * Every PUT/PREPARE carries a content-derived [`OpId`]; receivers keep a
//!   window of applied ids ([`AppliedOps`]) and suppress duplicates, which
//!   makes sender retries, fabric duplication, *and* chunk re-execution
//!   idempotent.
//! * Senders retain tracked operations (payload included) until acked, and
//!   retry with exponential backoff ([`Retry`], the only clock here).
//! * When a crash is scheduled each worker checkpoints its authoritative
//!   distributed blocks (plus the applied-op window) to `run_dir` at every
//!   `sip_barrier` release; when the fabric reports a rank killed the
//!   master restores that rank's last checkpoint to the surviving homes,
//!   broadcasts the death, and survivors replay their current-epoch put
//!   journals that were homed at the corpse.
//!
//! The worker's side of that protocol — op ids, duplicate suppression,
//! retries, the crash schedule, epoch checkpoints, a peer's death and
//! takeover chunks — is the `impl Worker` block next to [`FtState`].

use crate::error::{CommKind, RuntimeError};
use crate::events::{EventKind, RecoveryEvent};
use crate::interp::bind_iteration;
use crate::layout::CrashSchedule;
use crate::metrics::WaitCause;
use crate::msg::{BlockKey, KeyMap, OpId, Payload, SipMsg};
use crate::worker::Worker;
use sia_blocks::{Block, BlockHandle, Shape};
use sia_bytecode::{ArrayId, ArrayKind, Instruction as I, PutMode};
use sia_fabric::{Rank, ReqId};
use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wait for an ack or a reply before the first resend.
const RETRY_TIMEOUT: Duration = Duration::from_millis(40);
/// Growth of that wait per resend.
const RETRY_BACKOFF: u32 = 2;
/// Resends before the operation fails with `Comm { Timeout }`.
const MAX_RETRIES: u32 = 8;

/// When a tracked operation was last sent, how long to wait for its answer,
/// and how often it has been resent. The one retry clock: stores, fetches
/// and the master's restore flight all carry it, and a rank's next deadline
/// is the earliest [`Retry::deadline`] among the operations it tracks.
#[derive(Debug, Clone)]
pub(crate) struct Retry {
    pub sent_at: Instant,
    /// Current timeout (grows by the backoff factor per retry).
    pub timeout: Duration,
    pub attempts: u32,
}

/// A retry budget ran out after this many transmissions.
#[derive(Debug)]
pub(crate) struct Exhausted(pub u32);

impl Retry {
    /// A first transmission, sent now.
    pub(crate) fn new() -> Self {
        Retry {
            sent_at: Instant::now(),
            timeout: RETRY_TIMEOUT,
            attempts: 0,
        }
    }

    /// When the operation is due for a resend.
    pub(crate) fn deadline(&self) -> Instant {
        self.sent_at + self.timeout
    }

    /// Books a resend sent now, backing the timeout off — or reports the
    /// budget spent.
    pub(crate) fn bump(&mut self) -> Result<(), Exhausted> {
        if self.attempts >= MAX_RETRIES {
            return Err(Exhausted(self.attempts + 1));
        }
        self.attempts += 1;
        self.sent_at = Instant::now();
        self.timeout *= RETRY_BACKOFF;
        Ok(())
    }
}

/// The op ids applied at a home — a worker's distributed blocks, an I/O
/// server's served ones — each tagged with the barrier epoch it arrived
/// in. Journals clear at each barrier, so no retry or replay can still
/// name an op two epochs back: that is what [`prune`](Self::prune) drops.
#[derive(Debug, Default)]
pub(crate) struct AppliedOps(HashMap<u64, u64>);

impl AppliedOps {
    /// Records an applied op id; false when it was already applied (a
    /// duplicate to suppress).
    pub(crate) fn note(&mut self, op: u64, epoch: u64) -> bool {
        self.0.insert(op, epoch).is_none()
    }

    /// Drops the records older than the epoch before `epoch`.
    pub(crate) fn prune(&mut self, epoch: u64) {
        self.0.retain(|_, e| *e + 2 > epoch);
    }
}

/// A tracked, unacknowledged store (PUT or PREPARE — the key's array kind
/// says which). The payload is retained so the operation can be retried (or
/// re-routed to a new home) verbatim; the handle shares the wire message's
/// allocation, so retention is free.
#[derive(Debug, Clone)]
pub(crate) struct PendingOp {
    pub key: BlockKey,
    pub data: BlockHandle,
    pub mode: PutMode,
    /// A PREPARE (the key is a served array's), not a PUT.
    pub served: bool,
    pub retry: Retry,
}

impl PendingOp {
    /// The wire message that (re)sends this store: retries and journal
    /// replays ship the full block, sharing the retained allocation.
    /// `epoch` is the sender's current one: a store is acknowledged before
    /// its sender crosses a barrier, so it is also the one it was sent in.
    pub(crate) fn store_msg(&self, op: OpId, epoch: u64) -> SipMsg {
        SipMsg::Store {
            key: self.key,
            payload: Payload::Data(self.data.clone()),
            mode: self.mode,
            op,
            epoch: Some(epoch),
        }
    }
}

/// A tracked, unanswered fetch (GET or REQUEST, by the key's array kind).
#[derive(Debug, Clone)]
pub(crate) struct FetchState {
    pub req: ReqId,
    pub retry: Retry,
}

/// A journaled remote put (replayed to the new home if the old home dies
/// within the current barrier epoch).
#[derive(Debug, Clone)]
pub(crate) struct JournalEntry {
    pub op: u64,
    pub key: BlockKey,
    pub data: BlockHandle,
    pub mode: PutMode,
}

/// A re-queued chunk handed to a worker already parked at the post-pardo
/// barrier.
#[derive(Debug)]
pub(crate) struct TakeoverChunk {
    pub pardo_pc: u32,
    pub epoch: u64,
    pub chunk: u64,
    /// The ordinals of the original grant.
    pub ordinals: Vec<u64>,
}

/// Per-worker fault-tolerance state (absent on fault-free runs).
#[derive(Debug)]
pub(crate) struct FtState {
    /// The run's scheduled crash, if any: what the put journal and the
    /// epoch checkpoint are kept for.
    pub crash: Option<CrashSchedule>,
    /// Unacknowledged tracked operations, keyed by op id.
    pub pending: HashMap<u64, PendingOp>,
    /// Remote distributed puts of the current barrier epoch (cleared at
    /// `sip_barrier` release). Only kept when a crash is scheduled.
    pub journal: Vec<JournalEntry>,
    /// Op ids applied at this rank (home side).
    pub applied: AppliedOps,
    /// Unanswered fetches by block key.
    pub fetches: KeyMap<FetchState>,
    /// A lower bound on the earliest [`Retry::deadline`] among `pending` and
    /// `fetches`; `None` exactly when both are empty. Arming an operation
    /// lowers it to that operation's deadline if need be; an ack or an
    /// answer leaves it as it is, i.e. stale (early) at worst: the rank
    /// wakes once, finds nothing due and
    /// [`settle_deadline`](Self::settle_deadline) makes it exact again.
    due: Option<Instant>,
    /// Dead workers by worker index (agreed via `RankDead` broadcasts).
    pub dead: Vec<bool>,
    /// Chunk-ack accounting: chunks execute FIFO, so the head entry is the
    /// chunk the next completed iteration belongs to. Only kept when a
    /// crash is scheduled — the master keeps no chunk ledger otherwise.
    pub chunk_acks: VecDeque<(u64, usize)>,
    /// Re-queued chunks received while parked at a barrier.
    pub takeovers: VecDeque<TakeoverChunk>,
    /// A takeover chunk is being executed (puts count as pardo-context for
    /// op-id derivation even though `Worker::pardo` is `None`).
    pub in_takeover: bool,
}

impl FtState {
    pub(crate) fn new(crash: Option<CrashSchedule>, workers: usize) -> Self {
        FtState {
            crash,
            pending: HashMap::new(),
            journal: Vec::new(),
            applied: AppliedOps::default(),
            fetches: KeyMap::default(),
            due: None,
            dead: vec![false; workers],
            chunk_acks: VecDeque::new(),
            takeovers: VecDeque::new(),
            in_takeover: false,
        }
    }

    /// No later than the earliest instant this worker has something to do
    /// unprompted: the resend of a tracked store or fetch. `None` when
    /// nothing is pending — an armed worker holds no other timer.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.due
    }

    /// Makes [`next_deadline`](Self::next_deadline) exact: one pass over
    /// what is tracked, taken when the bound has come due, not per wait.
    pub(crate) fn settle_deadline(&mut self) {
        let stores = self.pending.values().map(|p| &p.retry);
        let fetches = self.fetches.values().map(|f| &f.retry);
        self.due = stores.chain(fetches).map(Retry::deadline).min();
    }

    fn tracked_one(&mut self, retry: &Retry) {
        let deadline = retry.deadline();
        self.due = Some(self.due.map_or(deadline, |due| due.min(deadline)));
    }

    fn untracked_one(&mut self) {
        if self.pending.is_empty() && self.fetches.is_empty() {
            self.due = None;
        }
    }

    /// Tracks a fetch just sent under `req` until its block arrives.
    pub(crate) fn track_fetch(&mut self, key: BlockKey, req: ReqId) {
        let retry = Retry::new();
        self.tracked_one(&retry);
        self.fetches.insert(key, FetchState { req, retry });
    }

    /// The block of a tracked fetch arrived (or nothing was tracked).
    pub(crate) fn fetch_answered(&mut self, key: &BlockKey) {
        if self.fetches.remove(key).is_some() {
            self.untracked_one();
        }
    }

    /// A store was acknowledged; false for a duplicated or late ack, which
    /// finds nothing pending.
    pub(crate) fn store_acked(&mut self, op: OpId) -> bool {
        if self.pending.remove(&op.0).is_none() {
            return false;
        }
        self.untracked_one();
        true
    }

    /// Stops tracking everything.
    pub(crate) fn forget_all(&mut self) {
        self.pending.clear();
        self.fetches.clear();
        self.due = None;
    }

    /// Arms (or re-arms) a tracked store flight: the full block is retained
    /// until the home acknowledges, so a retry or journal replay resends it
    /// even when the first transmission was a screened norm record (the
    /// home's op dedup keeps that idempotent). True when the op was not
    /// already pending.
    pub(crate) fn arm_flight(
        &mut self,
        op: OpId,
        key: BlockKey,
        data: BlockHandle,
        mode: PutMode,
        served: bool,
    ) -> bool {
        let flight = PendingOp {
            key,
            data,
            mode,
            served,
            retry: Retry::new(),
        };
        self.tracked_one(&flight.retry);
        self.pending.insert(op.0, flight).is_none()
    }
}

/// The worker's side of the recovery protocol: op ids, duplicate
/// suppression, retries, the crash schedule, epoch checkpoints, a peer's
/// death and takeover chunks.
impl Worker {
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
        OpId(derive_op_id(pc, self.dist_epoch, key, &self.env, seq, spmd))
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
                let path = epoch_ckpt_path(dir, widx);
                // The snapshot shares the authoritative blocks' allocations.
                let snapshot = self.mem.home_shares(None);
                if let Err(e) = write_epoch_checkpoint(&path, epoch, &snapshot, &ft.applied) {
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
    pub(crate) fn on_rank_dead(&mut self, dead_rank: Rank, inherited_ops: Vec<u64>) {
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

    /// Executes a re-queued chunk of a dead worker while parked at the
    /// post-pardo barrier. The iterations replay with `in_takeover` set, so
    /// op-id derivation matches the original execution and every put the
    /// corpse managed to deliver is suppressed as a duplicate. The chunk is
    /// acknowledged only after its puts drain, so the master's release
    /// implies the replayed data is home.
    pub(crate) fn run_takeover_chunk(&mut self, chunk: TakeoverChunk) -> Result<(), RuntimeError> {
        let layout = Arc::clone(&self.layout);
        let (Ok((I::PardoStart { end_pc, .. }, _)), Some(pardo)) = (
            layout.instruction(chunk.pardo_pc),
            layout.pardo(chunk.pardo_pc),
        ) else {
            return Err(RuntimeError::Internal(
                "takeover chunk does not point at a pardo".into(),
            ));
        };
        let end_pc = *end_pc;
        if let Some(ft) = self.ft.as_mut() {
            ft.in_takeover = true;
        }
        self.trace.instant(EventKind::Recovery {
            what: RecoveryEvent::Takeover,
        });
        let result = (|| -> Result<(), RuntimeError> {
            for &ordinal in &chunk.ordinals {
                bind_iteration(&mut self.env, &pardo.indices, &pardo.ranges, ordinal);
                self.op_seq = 0;
                self.profile.iterations += 1;
                let mut pc = chunk.pardo_pc + 1;
                while pc != end_pc {
                    let (ins, facts) = layout.instruction(pc)?;
                    let mut wait = Duration::ZERO;
                    match self.step(pc, ins, facts, &mut wait)? {
                        Some(n) => pc = n,
                        None => {
                            return Err(RuntimeError::BadProgram(
                                "halt inside a pardo body".into(),
                            ));
                        }
                    }
                }
                self.free_temps();
                self.pardo_iters_done += 1;
            }
            // The master counts this chunk complete only once its data is
            // durable at the (surviving) homes.
            self.wait_until(WaitCause::Recovery, "takeover put acks", |w| {
                w.stores_drained(ArrayKind::Distributed)
            })?;
            Ok(())
        })();
        if let Some(ft) = self.ft.as_mut() {
            ft.in_takeover = false;
        }
        for idx in pardo.indices.iter() {
            self.env[idx.index()] = 0;
        }
        result?;
        let master = self.layout.topology.master();
        self.endpoint.send(
            master,
            SipMsg::ChunkDone {
                pardo_pc: chunk.pardo_pc,
                epoch: chunk.epoch,
                chunk: chunk.chunk,
            },
        )?;
        Ok(())
    }
}

/// Derives a content-based op id: FNV-1a over the instruction pc, the
/// barrier epoch, the destination key, the full index environment, and a
/// per-iteration sequence number (disambiguating two textually identical
/// puts executed under the same environment, e.g. a procedure called
/// twice). Outside pardos (SPMD execution) the worker index is mixed in so
/// each worker's accumulate counts once; inside pardos (and takeover
/// replays) it is *not*, so a re-executed iteration reproduces the same id
/// on any worker.
pub(crate) fn derive_op_id(
    pc: u32,
    epoch: u64,
    key: &BlockKey,
    env: &[i64],
    seq: u64,
    spmd_worker: Option<usize>,
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    mix(pc as u64);
    mix(epoch);
    mix(key.array.0 as u64);
    for &s in key.segs() {
        mix(s as u64);
    }
    for &v in env {
        mix(v as u64);
    }
    mix(seq);
    if let Some(w) = spmd_worker {
        mix(0x5350_4d44); // "SPMD" tag keeps pardo/non-pardo ids disjoint
        mix(w as u64);
    }
    if h == 0 {
        h = 1; // 0 is the untracked sentinel
    }
    h
}

// ---- checkpoint files ---------------------------------------------------------
//
// One record, two files: the master's `blocks_to_list` checkpoint and a
// worker's epoch checkpoint are both `magic · block count · blocks ·
// trailer`, a block being key · `u8` rank · `u64` extents · payload. They
// differ in the magic and in the trailer — none for `blocks_to_list`,
// epoch and applied ops for the epoch checkpoint.

/// Magic of a `blocks_to_list` checkpoint.
pub(crate) const CKPT_MAGIC: &[u8; 8] = b"SIACKPT2";
/// Magic of a worker's epoch checkpoint.
const EPOCH_MAGIC: &[u8; 8] = b"SIAEPCK2";

/// Writes a checkpoint file atomically (tmp + rename, so a reader only ever
/// sees a complete one). Takes anything that borrows a [`Block`]; handles
/// share their store's allocations, so no block is copied to be saved.
pub(crate) fn write_blocks<B: Borrow<Block>>(
    path: &Path,
    magic: &[u8; 8],
    blocks: &[(BlockKey, B)],
    trailer: &[u8],
) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        let mut payload = Vec::new();
        f.write_all(magic)?;
        f.write_all(&(blocks.len() as u64).to_le_bytes())?;
        for (key, block) in blocks {
            let block = block.borrow();
            f.write_all(&key.array.0.to_le_bytes())?;
            f.write_all(&[key.rank])?;
            for s in key.segs() {
                f.write_all(&s.to_le_bytes())?;
            }
            let dims = block.shape().dims();
            f.write_all(&[dims.len() as u8])?;
            for &d in dims {
                f.write_all(&(d as u64).to_le_bytes())?;
            }
            payload.clear();
            block.append_le_bytes(&mut payload);
            f.write_all(&payload)?;
        }
        f.write_all(trailer)?;
        f.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// A bounds-checked reader over the bytes of a file from disk (checkpoints
/// here, the store header in `store.rs`). Every read is `None` past the
/// end — nothing in the file is trusted to index it or to size an
/// allocation.
pub(crate) struct Cursor<'a>(pub &'a [u8]);

impl<'a> Cursor<'a> {
    /// Splits `n` bytes off the front.
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1)?.first().copied()
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A block key: `u32` array id, `u8` rank (at most 8), `i32` segments.
    fn key(&mut self) -> Option<BlockKey> {
        let array = ArrayId(self.u32()?);
        let rank = self.u8()? as usize;
        if rank > 8 {
            return None;
        }
        let segs = (0..rank)
            .map(|_| self.u32().map(|s| s as i32 as i64))
            .collect::<Option<Vec<i64>>>()?;
        Some(BlockKey::new(array, &segs))
    }

    /// A block: `u8` rank (more than any shape has is refused before an
    /// extent is read), `u64` extents, then the little-endian payload.
    fn block(&mut self) -> Option<Block> {
        let rank = self.u8()? as usize;
        if rank > sia_blocks::MAX_RANK {
            return None;
        }
        let dims = (0..rank)
            .map(|_| usize::try_from(self.u64()?).ok())
            .collect::<Option<Vec<usize>>>()?;
        let shape = Shape::try_new(&dims)?;
        let data = self.take(shape.len().checked_mul(8)?)?;
        Block::from_le_bytes(shape, data)
    }

    /// What [`write_blocks`] wrote ahead of its trailer. The count is
    /// bounded by the bytes that remain, never trusted to size the vector.
    pub(crate) fn blocks(&mut self, magic: &[u8; 8]) -> Option<Vec<(BlockKey, Block)>> {
        if self.take(8)? != magic {
            return None;
        }
        let count = self.u64()?;
        let mut out = Vec::new();
        for _ in 0..count {
            out.push((self.key()?, self.block()?));
        }
        Some(out)
    }
}

/// Path of worker `widx`'s epoch checkpoint inside `run_dir`.
pub(crate) fn epoch_ckpt_path(run_dir: &Path, widx: usize) -> PathBuf {
    run_dir.join(format!("ftckpt_w{widx}.bin"))
}

/// Writes a worker's epoch checkpoint: its authoritative distributed blocks
/// plus the applied-op window.
pub(crate) fn write_epoch_checkpoint(
    path: &Path,
    epoch: u64,
    blocks: &[(BlockKey, BlockHandle)],
    applied: &AppliedOps,
) -> std::io::Result<()> {
    let ops = applied.0.keys();
    let trailer: Vec<u8> = [epoch, ops.len() as u64]
        .into_iter()
        .chain(ops.copied())
        .flat_map(u64::to_le_bytes)
        .collect();
    write_blocks(path, EPOCH_MAGIC, blocks, &trailer)
}

/// What an epoch checkpoint holds: `(epoch, blocks, applied ops)`.
type EpochCheckpoint = (u64, Vec<(BlockKey, Block)>, Vec<u64>);

/// Reads an epoch checkpoint back. The file comes from disk, so nothing in
/// it is trusted: a truncated or inconsistent one is `InvalidData`, never a
/// panic or an allocation its own length cannot back.
pub(crate) fn read_epoch_checkpoint(path: &Path) -> std::io::Result<EpochCheckpoint> {
    let raw = std::fs::read(path)?;
    parse_epoch_checkpoint(&raw).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("corrupt epoch checkpoint {}", path.display()),
        )
    })
}

fn parse_epoch_checkpoint(raw: &[u8]) -> Option<EpochCheckpoint> {
    let mut raw = Cursor(raw);
    let blocks = raw.blocks(EPOCH_MAGIC)?;
    let epoch = raw.u64()?;
    let nops = raw.u64()?;
    let mut ops = Vec::new();
    for _ in 0..nops {
        ops.push(raw.u64()?);
    }
    raw.0.is_empty().then_some((epoch, blocks, ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_id_stable_and_context_sensitive() {
        let key = BlockKey::new(ArrayId(2), &[1, 3]);
        let env = [1, 3, 0, 2];
        let a = derive_op_id(10, 1, &key, &env, 0, None);
        let b = derive_op_id(10, 1, &key, &env, 0, None);
        assert_eq!(a, b, "same context must reproduce the id");
        assert_ne!(a, 0);
        assert_ne!(a, derive_op_id(11, 1, &key, &env, 0, None), "pc matters");
        assert_ne!(a, derive_op_id(10, 2, &key, &env, 0, None), "epoch matters");
        assert_ne!(
            a,
            derive_op_id(10, 1, &key, &env, 1, None),
            "occurrence sequence matters"
        );
        assert_ne!(
            a,
            derive_op_id(10, 1, &key, &[1, 3, 0, 9], 0, None),
            "index env matters"
        );
        let w0 = derive_op_id(10, 1, &key, &env, 0, Some(0));
        let w1 = derive_op_id(10, 1, &key, &env, 0, Some(1));
        assert_ne!(w0, w1, "SPMD puts must count once per worker");
        assert_ne!(a, w0, "pardo and SPMD ids must not collide");
    }

    #[test]
    fn applied_ops_prune_two_epochs_back() {
        let mut applied = AppliedOps::default();
        applied.note(1, 1);
        applied.note(2, 2);
        applied.prune(3);
        assert!(
            applied.note(1, 3),
            "epoch 1 is out of every journal's reach"
        );
        assert!(!applied.note(2, 3), "epoch 2 may still be replayed");
    }

    /// What a blocked worker asks per wait is kept, not recomputed: whether
    /// a store is new (the worker counts it then) or acked for the first
    /// time, and a deadline that is never later than the earliest resend and
    /// is gone when nothing is tracked.
    #[test]
    fn pending_counts_and_deadline_follow_arms_and_acks() {
        let earliest = |ft: &FtState| {
            let stores = ft.pending.values().map(|p| p.retry.deadline());
            stores
                .chain(ft.fetches.values().map(|f| f.retry.deadline()))
                .min()
        };
        let block = || BlockHandle::new(Block::zeros(Shape::new(&[2])));
        let key = |i| BlockKey::new(ArrayId(0), &[i]);
        let mut ft = FtState::new(None, 2);
        assert_eq!(ft.next_deadline(), None);
        assert!(ft.arm_flight(OpId(1), key(1), block(), PutMode::Replace, false));
        assert!(ft.arm_flight(OpId(2), key(2), block(), PutMode::Replace, true));
        assert!(
            !ft.arm_flight(OpId(1), key(1), block(), PutMode::Replace, false),
            "re-armed, not new"
        );
        ft.track_fetch(key(3), ReqId(7));
        assert_eq!(ft.pending.len(), 2);
        assert!(ft.next_deadline() <= earliest(&ft));
        // A resend backs one deadline off; the bound may stay early, and
        // settling makes it the new earliest exactly.
        ft.pending.get_mut(&1).unwrap().retry.bump().unwrap();
        assert!(ft.next_deadline() <= earliest(&ft));
        ft.settle_deadline();
        assert_eq!(ft.next_deadline(), earliest(&ft));
        assert!(ft.store_acked(OpId(1)));
        assert!(!ft.store_acked(OpId(1)), "a duplicated ack finds nothing");
        assert_eq!(ft.pending.len(), 1);
        assert!(ft.store_acked(OpId(2)));
        assert!(ft.next_deadline().is_some(), "the fetch is still tracked");
        ft.fetch_answered(&key(3));
        assert_eq!((ft.pending.len(), ft.next_deadline()), (0, None));
    }

    #[test]
    fn epoch_checkpoint_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sia-ft-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = epoch_ckpt_path(&dir, 1);
        let key = BlockKey::new(ArrayId(4), &[2, 1]);
        let mut block = Block::zeros(Shape::new(&[2, 3]));
        for (i, v) in block.data_mut().iter_mut().enumerate() {
            *v = i as f64 * 0.5;
        }
        let mut applied = AppliedOps::default();
        assert!(applied.note(77, 3));
        assert!(applied.note(99, 3));
        assert!(!applied.note(99, 3), "a second sighting is a duplicate");
        write_epoch_checkpoint(&path, 3, &[(key, block.clone().into())], &applied).unwrap();
        let (epoch, blocks, ops) = read_epoch_checkpoint(&path).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].0, key);
        assert_eq!(blocks[0].1.data(), block.data());
        let mut ops = ops;
        ops.sort_unstable();
        assert_eq!(ops, vec![77, 99]);

        // The file is outside input: every truncation, a zero extent, a
        // rank no shape has and counts no file could back are `InvalidData`
        // — never a panic or an allocation sized by the file's own claims.
        let valid = std::fs::read(&path).unwrap();
        let patched = |at: usize, bytes: &[u8]| {
            let mut raw = valid.clone();
            raw[at..at + bytes.len()].copy_from_slice(bytes);
            raw
        };
        // magic 8 · nblocks 8 · array 4 · rank 1 · segs 2×4 · ndims 1 · dims 2×8
        // · payload 6×8 · epoch 8 · nops 8 · ops 2×8
        let (nblocks_at, ndims_at, dim0_at, nops_at) = (8, 29, 30, 102);
        let mut corrupt: Vec<Vec<u8>> = (0..valid.len()).map(|cut| valid[..cut].to_vec()).collect();
        corrupt.push([&valid[..], &[0]].concat()); // trailing bytes
        corrupt.push(b"SIACKPT2".to_vec()); // the other file's magic
        corrupt.push(patched(nblocks_at, &u64::MAX.to_le_bytes()));
        corrupt.push(patched(nops_at, &u64::MAX.to_le_bytes()));
        corrupt.push(patched(ndims_at, &[9]));
        corrupt.push(patched(dim0_at, &0u64.to_le_bytes()));
        corrupt.push(patched(dim0_at, &u64::MAX.to_le_bytes()));
        for raw in corrupt {
            std::fs::write(&path, &raw).unwrap();
            let err = read_epoch_checkpoint(&path).expect_err("corrupt checkpoint decoded");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
