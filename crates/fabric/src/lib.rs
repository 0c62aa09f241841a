//! # sia-fabric — the SIA's communication substrate
//!
//! The original SIP runs its master, workers, and I/O servers as MPI
//! processes and insists that "all message passing is asynchronous". This
//! crate provides the same contract without MPI: a set of *ranks* (threads in
//! one process) exchanging typed messages through nonblocking endpoints.
//!
//! Semantics mirror the MPI subset the SIP uses:
//!
//! * [`Endpoint::send`] is `mpi_isend`-like: it never blocks the sender and
//!   returns a [`SendHandle`] that reports completion (delivery into the
//!   receiver's queue).
//! * [`Endpoint::try_recv`] / [`Endpoint::recv_deadline`] are the
//!   `mpi_iprobe`/`mpi_recv` pair the SIP's progress loop uses: workers
//!   "periodically check for messages and process them". A rank with
//!   nothing to compute blocks until its next message or its next due
//!   timer, whichever is first; raising shutdown or killing a rank wakes
//!   every blocked receiver.
//! * Per-(sender, receiver) FIFO ordering is guaranteed, as in MPI.
//!
//! The fabric is generic over the message type; `sia-runtime` instantiates it
//! with the SIP protocol messages. Message sizes (for the traffic counters
//! the profiler reports) come from the [`Message`] trait.

pub mod fault;
pub mod stats;

pub use fault::{FaultCounters, FaultPlan, FaultSnapshot};
pub use stats::TrafficCounters;

use crossbeam::channel::{unbounded, Receiver, Sender};
use fault::{Injector, Verdict};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A rank: the identity of one participant (master, worker, or I/O server).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank(pub usize);

impl fmt::Debug for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Messages carried by the fabric report an approximate payload size so the
/// runtime can keep the traffic counters the paper's profiler exposes.
pub trait Message: Send + 'static {
    /// Approximate wire size in bytes (payload only).
    fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }

    /// Whether a [`FaultPlan`] may perturb this message. Defaults to `true`;
    /// runtimes return `false` for control-plane traffic (barriers, chunk
    /// scheduling, shutdown) that is assumed reliable.
    fn faultable(&self) -> bool {
        true
    }

    /// A copy for duplicate injection. Defaults to `None`, which downgrades
    /// a duplicate verdict to a single delivery; clonable protocols return
    /// `Some(self.clone())`. Messages that carry block payloads behind an
    /// `Arc` (the runtime's `BlockHandle`) make both delivery and
    /// duplication zero-copy: the envelope moves the sender's allocation to
    /// the receiver, and a duplicate is another share of it, never a deep
    /// copy of the data plane.
    fn dup(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }

    /// Coalesces several messages bound for one destination into a single
    /// envelope ([`Endpoint::stage`] / [`Endpoint::flush`]). The default
    /// returns the input unchanged, meaning the protocol does not batch;
    /// protocols that do return a container message whose
    /// [`unbatch`](Self::unbatch) restores the originals in order. A
    /// protocol may refuse a particular mix (e.g. control-plane traffic
    /// mixed into a data batch) by returning `Err` — the fabric then ships
    /// the messages individually.
    fn batch(msgs: Vec<Self>) -> Result<Self, Vec<Self>>
    where
        Self: Sized,
    {
        Err(msgs)
    }

    /// Splits a batched envelope back into its parts, in the order they
    /// were staged. `Err(self)` (the default) marks an ordinary message.
    fn unbatch(self) -> Result<Vec<Self>, Self>
    where
        Self: Sized,
    {
        Err(self)
    }
}

/// Correlates a request with its reply so in-flight operations can be
/// matched, deduplicated, and retried idempotently. Allocated by
/// [`Endpoint::next_req_id`]; the issuing rank lives in the high bits, so
/// ids are unique fabric-wide without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReqId(pub u64);

impl ReqId {
    /// The "no request" sentinel (useful for unsolicited replies).
    pub const NONE: ReqId = ReqId(0);

    /// The rank that allocated this id.
    pub fn origin(&self) -> Rank {
        Rank((self.0 >> 48) as usize)
    }
}

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{:x}", self.0)
    }
}

/// A delivered message with its sender and a per-link sequence number.
#[derive(Debug)]
pub struct Envelope<M> {
    /// The sending rank.
    pub src: Rank,
    /// Position in the sender→receiver stream (1-based). A duplicated
    /// message carries the same number as its original, so receivers can
    /// recognise fabric-level duplicates.
    pub seq: u64,
    /// The payload.
    pub msg: M,
}

/// Completion handle returned by [`Endpoint::send`] (the analogue of the
/// `MPI_Request` from `mpi_isend`).
///
/// Delivery into the receiver's queue is immediate in-process, so the handle
/// is complete as soon as `send` returns unless the receiver disappeared; it
/// exists so runtime code keeps the request-based structure of the original
/// and so tests can assert on delivery.
#[derive(Debug)]
pub struct SendHandle {
    delivered: bool,
}

impl SendHandle {
    /// True when the message reached the receiver's queue.
    pub fn is_complete(&self) -> bool {
        self.delivered
    }
}

/// Why a send failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendErrorKind {
    /// The destination endpoint has been dropped.
    PeerGone,
    /// The fabric-wide shutdown flag was raised before the send.
    Shutdown,
    /// This endpoint was killed by [`Endpoint::kill`].
    Crashed,
}

/// Typed error from [`Endpoint::send`]. Unlike the earlier fabric, sends
/// after shutdown fail loudly instead of silently succeeding into a queue
/// nobody will drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError {
    /// The intended destination.
    pub to: Rank,
    /// What went wrong.
    pub kind: SendErrorKind,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SendErrorKind::PeerGone => write!(f, "peer {} has shut down", self.to),
            SendErrorKind::Shutdown => write!(f, "send to {} after fabric shutdown", self.to),
            SendErrorKind::Crashed => write!(f, "send to {} from a crashed rank", self.to),
        }
    }
}

impl std::error::Error for SendError {}

struct Shared {
    stats: Vec<TrafficCounters>,
    faults: Vec<FaultCounters>,
    crashed: Vec<AtomicBool>,
    shutdown: AtomicBool,
    epoch: AtomicU64,
    /// World tag: every envelope of this fabric belongs to the job the tag
    /// names. 0 for untagged (single-job) worlds. Multi-tenant runtimes
    /// give each job its own fabric world, so the tag attributes all of a
    /// world's traffic to one job without per-message overhead.
    tag: u64,
}

/// One rank's connection to the fabric. Owned by the rank's thread.
pub struct Endpoint<M: Message> {
    rank: Rank,
    /// `None` on the wire is a wake-up: it carries nothing, and makes a
    /// blocked receiver look at the shutdown and crash flags again.
    inbox: Receiver<Option<Envelope<M>>>,
    peers: Vec<Sender<Option<Envelope<M>>>>,
    shared: Arc<Shared>,
    /// Next sequence number per destination link.
    link_seq: Vec<AtomicU64>,
    /// Next request-id counter (rank-prefixed in [`next_req_id`](Self::next_req_id)).
    req_seq: AtomicU64,
    /// Fault injector; `None` on a perfect fabric.
    injector: Option<Injector<Envelope<M>>>,
    /// Per-destination staging buffers for envelope batching. `RefCell`
    /// because an endpoint is owned by exactly one thread (the fabric's
    /// contract); the endpoint stays `Send` without becoming `Sync`.
    staged: RefCell<Vec<Vec<M>>>,
    /// Messages staged across all destinations, so a flush with nothing to
    /// ship — most of them, in a rank loop that flushes whenever its inbox
    /// runs dry — costs one load instead of a walk over every peer.
    staged_total: Cell<usize>,
    /// Arrivals unpacked from a batched envelope, drained ahead of the
    /// inbox so per-link FIFO order survives coalescing.
    unpacked: RefCell<VecDeque<Envelope<M>>>,
    /// Envelopes moved out of the inbox by one drain and not yet delivered:
    /// a rank that looks for messages at every instruction boundary takes
    /// the inbox lock once per look that finds any, and never for one that
    /// finds none.
    arrived: RefCell<VecDeque<Option<Envelope<M>>>>,
}

impl<M: Message> Endpoint<M> {
    /// This endpoint's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Total number of ranks in the fabric.
    pub fn world_size(&self) -> usize {
        self.peers.len()
    }

    /// The world's job tag (0 when the fabric was built untagged). Every
    /// envelope sent through this endpoint belongs to the job it names.
    pub fn world_tag(&self) -> u64 {
        self.shared.tag
    }

    /// Nonblocking send (the `mpi_isend` analogue).
    ///
    /// Under a [`FaultPlan`], a faultable message may be silently dropped
    /// (the handle still reports completion — exactly the failure mode a
    /// lossy network presents to `mpi_isend`), duplicated, or delayed.
    ///
    /// # Errors
    /// A typed [`SendError`]: [`PeerGone`](SendErrorKind::PeerGone) if the
    /// destination endpoint was dropped, [`Shutdown`](SendErrorKind::Shutdown)
    /// if the fabric-wide shutdown flag is up, and
    /// [`Crashed`](SendErrorKind::Crashed) if this rank was killed.
    pub fn send(&self, to: Rank, msg: M) -> Result<SendHandle, SendError> {
        // Per-link FIFO: anything staged for this destination goes first.
        self.flush_to(to)?;
        self.send_now(to, msg)
    }

    /// Stages a message for `to` without sending it; [`flush`](Self::flush)
    /// (or a later [`send`](Self::send) to the same destination) ships the
    /// buffer, coalescing multiple staged messages into one envelope when
    /// the protocol's [`Message::batch`] accepts them. The data plane's
    /// way out of a rank: everything a rank stages while it drains its
    /// inbox or issues a look-ahead window leaves as one envelope per
    /// destination at its next flush — and
    /// [`recv_deadline`](Self::recv_deadline) flushes before it parks, so
    /// a staged message never waits on a sleeping sender.
    pub fn stage(&self, to: Rank, msg: M) -> Result<(), SendError> {
        self.check_open(to)?;
        self.staged.borrow_mut()[to.0].push(msg);
        self.staged_total.set(self.staged_total.get() + 1);
        Ok(())
    }

    /// Ships every staged message (all destinations). Buffers of more than
    /// one message are offered to [`Message::batch`]; a batch travels as
    /// one envelope (one traffic-counter message, one fault verdict) and
    /// the receiver's [`Message::unbatch`] restores the parts in order.
    /// Every destination is tried; the error returned is the first met.
    pub fn flush(&self) -> Result<(), SendError> {
        if self.staged_total.get() == 0 {
            return Ok(());
        }
        // One unreachable peer must not keep the others' messages back: the
        // caller may be about to park on their answers.
        let mut outcome = Ok(());
        for r in 0..self.peers.len() {
            outcome = outcome.and(self.flush_to(Rank(r)));
        }
        outcome
    }

    /// Ships the staging buffer of one destination.
    fn flush_to(&self, to: Rank) -> Result<(), SendError> {
        let msgs = {
            let mut staged = self.staged.borrow_mut();
            match staged[to.0].len() {
                0 => return Ok(()),
                // A lone message leaves its buffer, and the buffer's
                // capacity, where it is.
                1 => {
                    let msg = staged[to.0].pop().expect("one staged message");
                    drop(staged);
                    self.staged_total.set(self.staged_total.get() - 1);
                    return self.send_now(to, msg).map(drop);
                }
                _ => std::mem::take(&mut staged[to.0]),
            }
        };
        self.staged_total.set(self.staged_total.get() - msgs.len());
        let n = msgs.len() as u64;
        match M::batch(msgs) {
            Ok(batched) => {
                // n messages leave as one envelope: n−1 coalesced away.
                self.shared.stats[self.rank.0].record_coalesced(n - 1);
                self.send_now(to, batched)?;
            }
            Err(msgs) => {
                for m in msgs {
                    self.send_now(to, m)?;
                }
            }
        }
        Ok(())
    }

    /// Sends stop once this rank is killed or shutdown is raised.
    fn check_open(&self, to: Rank) -> Result<(), SendError> {
        let kind = if self.is_crashed() {
            SendErrorKind::Crashed
        } else if self.shutdown_raised() {
            SendErrorKind::Shutdown
        } else {
            return Ok(());
        };
        Err(SendError { to, kind })
    }

    /// The unconditional send path (staging already flushed).
    fn send_now(&self, to: Rank, msg: M) -> Result<SendHandle, SendError> {
        self.check_open(to)?;
        let now = self.tick();
        let bytes = msg.approx_bytes();
        let faultable = msg.faultable();
        let env = Envelope {
            src: self.rank,
            seq: self.link_seq[to.0].fetch_add(1, Ordering::Relaxed) + 1,
            msg,
        };
        let verdict = match &self.injector {
            Some(inj) if faultable => inj.verdict(&self.shared.faults[self.rank.0]),
            _ => Verdict::Deliver,
        };
        // Whatever the verdict, the sender sees a completed isend: traffic
        // counters record the attempt, and loss is only observable through
        // the missing reply.
        self.shared.stats[self.rank.0].record_send(to, bytes);
        match verdict {
            Verdict::Drop => Ok(SendHandle { delivered: true }),
            Verdict::Delay(span) => {
                let inj = self.injector.as_ref().unwrap();
                inj.hold(now + span, to.0, env);
                Ok(SendHandle { delivered: true })
            }
            Verdict::Deliver | Verdict::Duplicate => {
                let dup = if verdict == Verdict::Duplicate {
                    env.msg.dup().map(|m| Envelope {
                        src: env.src,
                        seq: env.seq,
                        msg: m,
                    })
                } else {
                    None
                };
                match self.peers[to.0].send(Some(env)) {
                    Ok(()) => {
                        if let Some(d) = dup {
                            let _ = self.peers[to.0].send(Some(d));
                        }
                        Ok(SendHandle { delivered: true })
                    }
                    Err(_) => Err(SendError {
                        to,
                        kind: SendErrorKind::PeerGone,
                    }),
                }
            }
        }
    }

    /// Nonblocking receive (the `mpi_iprobe` + `mpi_recv` analogue).
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        if self.is_crashed() {
            return None;
        }
        if let Some(env) = self.unpacked.borrow_mut().pop_front() {
            return Some(env);
        }
        let now = self.tick();
        self.release_due(now);
        loop {
            let next = self.arrived.borrow_mut().pop_front();
            match next {
                Some(Some(env)) => return Some(self.deliver(env)),
                // `None` on the wire is a wake-up; the caller reads the flags.
                Some(None) => {}
                None => {
                    if self.inbox.drain_into(&mut self.arrived.borrow_mut()) == 0 {
                        return None;
                    }
                }
            }
        }
    }

    /// The one blocking receive: the next message, or `None` when there is
    /// something else to look at — `deadline` passed (counted in
    /// [`TrafficCounters::deadline_wakeups`]), a peer raised shutdown or
    /// was killed, or this rank is dead. With `None` as the deadline only a
    /// message or a flag ends the wait: a rank computes its deadline from
    /// the timers it holds, and one with none due has no reason to look.
    /// Before it blocks it ships everything [`stage`](Self::stage)d, so a
    /// forgotten [`flush`](Self::flush) costs latency, never a deadlock.
    pub fn recv_deadline(&self, deadline: Option<Instant>) -> Option<Envelope<M>> {
        if let Some(env) = self.try_recv() {
            return Some(env);
        }
        if self.is_crashed() || self.shutdown_raised() {
            return None;
        }
        // Nothing staged may wait on a sleeping sender: whoever this rank
        // is about to wait for may be waiting for exactly these messages.
        // A send error here means shutdown or a dead peer, which the caller
        // reads off the flags.
        let _ = self.flush();
        self.release_held();
        let woken = match deadline {
            Some(d) => self.inbox.recv_deadline(d).ok(),
            None => self.inbox.recv().ok(),
        };
        if woken.is_none() {
            self.shared.stats[self.rank.0].record_deadline_wakeup();
        }
        // `None` on the wire: woken to look at a flag.
        woken.flatten().map(|env| self.deliver(env))
    }

    /// [`recv_deadline`](Self::recv_deadline) with the deadline `timeout`
    /// from now.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        self.recv_deadline(Some(Instant::now() + timeout))
    }

    /// Books an arrival and unpacks batched envelopes. The parts of a batch
    /// share the envelope's sequence number (the OpId/ReqId layer inside the
    /// messages does per-operation dedup; the shared seq marks them as one
    /// wire transfer).
    fn deliver(&self, env: Envelope<M>) -> Envelope<M> {
        self.shared.stats[self.rank.0].record_recv(env.src, env.msg.approx_bytes());
        let Envelope { src, seq, msg } = env;
        match msg.unbatch() {
            Ok(parts) => {
                let mut q = self.unpacked.borrow_mut();
                for m in parts {
                    q.push_back(Envelope { src, seq, msg: m });
                }
                q.pop_front().expect("unbatch returned no messages")
            }
            Err(msg) => Envelope { src, seq, msg },
        }
    }

    /// Advances the fault clock (no-op on a perfect fabric).
    fn tick(&self) -> u64 {
        self.injector.as_ref().map_or(0, Injector::tick)
    }

    /// Delivers held-back messages whose release op has passed.
    fn release_due(&self, now: u64) {
        if let Some(inj) = &self.injector {
            for (to, env) in inj.due(now) {
                let _ = self.peers[to].send(Some(env));
            }
        }
    }

    /// A delay is counted in fabric operations, and a rank about to block
    /// performs none: its op clock keeps running here for as long as it
    /// holds delayed envelopes (at most `max_delay_ops` ticks), so a
    /// held-back message waits for operations, never for a timer.
    fn release_held(&self) {
        while self.injector.as_ref().is_some_and(|inj| inj.holding()) {
            let now = self.tick();
            self.release_due(now);
        }
    }

    /// Wakes every rank blocked in [`recv_deadline`](Self::recv_deadline)
    /// so it observes a flag that was just set.
    fn wake_all(&self) {
        for peer in &self.peers {
            let _ = peer.send(None);
        }
    }

    /// Kills this endpoint: subsequent sends fail with
    /// [`SendErrorKind::Crashed`] and receives return nothing, as if the
    /// process vanished. The one way a rank dies — the runtime's crash
    /// schedule calls it; irreversible. Wakes every blocked receiver, so
    /// [`peer_crashed`](Self::peer_crashed) is seen without polling.
    pub fn kill(&self) {
        self.shared.crashed[self.rank.0].store(true, Ordering::SeqCst);
        self.shared.faults[self.rank.0].mark_crashed();
        self.wake_all();
    }

    /// True once this rank was killed.
    pub fn is_crashed(&self) -> bool {
        self.shared.crashed[self.rank.0].load(Ordering::SeqCst)
    }

    /// True once `rank` was killed. Visible fabric-wide, and the fabric's
    /// verdict: the runtime declares a rank dead on this and nothing else.
    pub fn peer_crashed(&self, rank: Rank) -> bool {
        self.shared.crashed[rank.0].load(Ordering::SeqCst)
    }

    /// Allocates a fabric-unique request id for request/reply correlation.
    pub fn next_req_id(&self) -> ReqId {
        let n = self.req_seq.fetch_add(1, Ordering::Relaxed) + 1;
        ReqId(((self.rank.0 as u64) << 48) | (n & 0xffff_ffff_ffff))
    }

    /// This rank's fault counters (all zero on a perfect fabric).
    pub fn fault_snapshot(&self) -> FaultSnapshot {
        self.shared.faults[self.rank.0].snapshot()
    }

    /// Raises the fabric-wide shutdown flag (any rank may call this; e.g. the
    /// master after `halt`) and wakes every blocked receiver.
    pub fn raise_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// True once any rank raised shutdown.
    pub fn shutdown_raised(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Traffic counters of this rank.
    pub fn counters(&self) -> &TrafficCounters {
        &self.shared.stats[self.rank.0]
    }

    /// Bumps and returns a fabric-wide epoch counter (used by the runtime to
    /// number barrier generations).
    pub fn next_epoch(&self) -> u64 {
        self.shared.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }
}

impl<M: Message> fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Endpoint({}, world={})", self.rank, self.peers.len())
    }
}

impl<M: Message> Drop for Endpoint<M> {
    fn drop(&mut self) {
        // Staged-but-unflushed messages still ship (a forgotten flush is a
        // latency bug, not a loss bug).
        if !self.is_crashed() {
            let _ = self.flush();
        }
        // Flush held-back messages so a delay near the end of a run behaves
        // like a late delivery, not a drop (drops are counted separately).
        if let Some(inj) = &self.injector {
            if !self.is_crashed() {
                for (to, env) in inj.drain_all() {
                    let _ = self.peers[to].send(Some(env));
                }
            }
        }
    }
}

/// Builds a perfect-delivery fabric of `n` ranks, returning one [`Endpoint`]
/// per rank plus a [`FabricStats`] handle for post-run inspection.
pub fn build<M: Message>(n: usize) -> (Vec<Endpoint<M>>, FabricStats) {
    build_with_faults(n, None)
}

/// Builds a fabric of `n` ranks, optionally injecting faults from a seeded
/// [`FaultPlan`]. The plan must pass [`FaultPlan::validate`].
pub fn build_with_faults<M: Message>(
    n: usize,
    plan: Option<FaultPlan>,
) -> (Vec<Endpoint<M>>, FabricStats) {
    build_tagged(n, plan, 0)
}

/// [`build_with_faults`] with a job tag: the whole world (and therefore
/// every envelope it carries) is attributed to the job `tag` names. A
/// multi-tenant runtime builds one tagged world per admitted job.
pub fn build_tagged<M: Message>(
    n: usize,
    plan: Option<FaultPlan>,
    tag: u64,
) -> (Vec<Endpoint<M>>, FabricStats) {
    assert!(n > 0, "fabric needs at least one rank");
    if let Some(p) = &plan {
        if let Err(e) = p.validate() {
            panic!("invalid fault plan: {e}");
        }
    }
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    let shared = Arc::new(Shared {
        stats: (0..n).map(|_| TrafficCounters::new(n)).collect(),
        faults: (0..n).map(|_| FaultCounters::default()).collect(),
        crashed: (0..n).map(|_| AtomicBool::new(false)).collect(),
        shutdown: AtomicBool::new(false),
        epoch: AtomicU64::new(0),
        tag,
    });
    let endpoints = receivers
        .into_iter()
        .enumerate()
        .map(|(i, inbox)| Endpoint {
            rank: Rank(i),
            inbox,
            peers: senders.clone(),
            shared: Arc::clone(&shared),
            link_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
            req_seq: AtomicU64::new(0),
            injector: plan.clone().map(|p| Injector::new(p, i)),
            staged: RefCell::new((0..n).map(|_| Vec::new()).collect()),
            staged_total: Cell::new(0),
            unpacked: RefCell::new(VecDeque::new()),
            arrived: RefCell::new(VecDeque::new()),
        })
        .collect();
    let stats = FabricStats {
        shared: Arc::clone(&shared),
    };
    (endpoints, stats)
}

/// Read-only view over all ranks' traffic counters, usable after the rank
/// threads have finished.
pub struct FabricStats {
    shared: Arc<Shared>,
}

impl FabricStats {
    /// Number of ranks in the fabric.
    pub fn world_size(&self) -> usize {
        self.shared.stats.len()
    }

    /// The world's job tag (see [`build_tagged`]); 0 when untagged.
    pub fn world_tag(&self) -> u64 {
        self.shared.tag
    }

    /// Traffic counters of one rank.
    pub fn counters_of(&self, rank: Rank) -> &TrafficCounters {
        &self.shared.stats[rank.0]
    }

    /// Total bytes sent across the whole fabric.
    pub fn total_bytes_sent(&self) -> u64 {
        self.shared.stats.iter().map(|c| c.bytes_sent()).sum()
    }

    /// Total messages sent across the whole fabric.
    pub fn total_messages_sent(&self) -> u64 {
        self.shared.stats.iter().map(|c| c.messages_sent()).sum()
    }

    /// Total messages coalesced away by envelope batching across the whole
    /// fabric (each batch of n staged messages counts n−1).
    pub fn total_messages_coalesced(&self) -> u64 {
        self.shared
            .stats
            .iter()
            .map(|c| c.messages_coalesced())
            .sum()
    }

    /// Fault counters of one rank (all zero on a perfect fabric).
    pub fn fault_snapshot_of(&self, rank: Rank) -> FaultSnapshot {
        self.shared.faults[rank.0].snapshot()
    }

    /// Fault counters summed over all ranks.
    pub fn total_faults(&self) -> FaultSnapshot {
        let mut total = FaultSnapshot::default();
        for f in &self.shared.faults {
            total.absorb(&f.snapshot());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[derive(Debug, Clone, PartialEq)]
    struct Ping(u64, Vec<u8>);

    impl Message for Ping {
        fn approx_bytes(&self) -> usize {
            8 + self.1.len()
        }

        fn dup(&self) -> Option<Self> {
            Some(self.clone())
        }
    }

    #[test]
    fn send_and_receive() {
        let (mut eps, _stats) = build::<Ping>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(Rank(1), Ping(7, vec![1, 2, 3])).unwrap();
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.src, Rank(0));
        assert_eq!(env.msg, Ping(7, vec![1, 2, 3]));
    }

    /// A message shaped like the runtime's block traffic: the data plane
    /// lives behind an `Arc`, so clones share the allocation.
    #[derive(Debug, Clone)]
    struct BlockMsg(Arc<Vec<f64>>);

    impl Message for BlockMsg {
        fn approx_bytes(&self) -> usize {
            self.0.len() * 8
        }

        fn dup(&self) -> Option<Self> {
            Some(self.clone())
        }
    }

    #[test]
    fn in_process_delivery_shares_payload_allocation() {
        // The envelope moves the sender's Arc to the receiver: same
        // allocation on both sides, no data-plane copy. Duplicate injection
        // is another O(1) share of it.
        let retained = Arc::new(vec![1.5f64; 1024]);
        let (mut eps, _stats) = build::<BlockMsg>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(Rank(1), BlockMsg(Arc::clone(&retained))).unwrap();
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(
            Arc::ptr_eq(&env.msg.0, &retained),
            "delivery must share the sender's allocation"
        );
        let dup = env.msg.dup().unwrap();
        assert!(Arc::ptr_eq(&dup.0, &retained));
        assert_eq!(Arc::strong_count(&retained), 3);
    }

    #[test]
    fn fifo_per_pair() {
        let (mut eps, _stats) = build::<Ping>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..100 {
            a.send(Rank(1), Ping(i, vec![])).unwrap();
        }
        for i in 0..100 {
            let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(env.msg.0, i);
        }
    }

    #[test]
    fn self_send_allowed() {
        let (eps, _stats) = build::<Ping>(1);
        let a = &eps[0];
        a.send(Rank(0), Ping(1, vec![])).unwrap();
        assert!(a.try_recv().is_some());
        assert!(a.try_recv().is_none());
    }

    #[test]
    fn cross_thread_exchange() {
        let (mut eps, _stats) = build::<Ping>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let h = thread::spawn(move || {
            // Echo server: return each ping to its sender with value + 1.
            for _ in 0..10 {
                let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
                b.send(env.src, Ping(env.msg.0 + 1, vec![])).unwrap();
            }
        });
        for i in 0..10 {
            a.send(Rank(1), Ping(i, vec![])).unwrap();
            let back = a.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(back.msg.0, i + 1);
        }
        h.join().unwrap();
    }

    #[test]
    fn peer_gone_reported() {
        let (mut eps, _stats) = build::<Ping>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        drop(b);
        // The channel also holds senders inside `a`, so sending still works
        // until all clones drop; dropping `b` drops only the receiver.
        let err = a.send(Rank(1), Ping(0, vec![])).unwrap_err();
        assert_eq!(
            err,
            SendError {
                to: Rank(1),
                kind: SendErrorKind::PeerGone
            }
        );
    }

    #[test]
    fn send_after_shutdown_fails() {
        let (eps, _stats) = build::<Ping>(2);
        eps[0].send(Rank(1), Ping(1, vec![])).unwrap();
        eps[1].raise_shutdown();
        let err = eps[0].send(Rank(1), Ping(2, vec![])).unwrap_err();
        assert_eq!(err.kind, SendErrorKind::Shutdown);
        // The pre-shutdown message is still deliverable.
        assert!(eps[1].try_recv().is_some());
    }

    #[test]
    fn sequence_numbers_per_link() {
        let (mut eps, _stats) = build::<Ping>(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(Rank(1), Ping(0, vec![])).unwrap();
        a.send(Rank(2), Ping(1, vec![])).unwrap();
        a.send(Rank(1), Ping(2, vec![])).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().seq, 1);
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().seq, 2);
        assert_eq!(c.recv_timeout(Duration::from_secs(1)).unwrap().seq, 1);
    }

    #[test]
    fn req_ids_unique_and_rank_tagged() {
        let (eps, _stats) = build::<Ping>(3);
        let r1 = eps[2].next_req_id();
        let r2 = eps[2].next_req_id();
        assert_ne!(r1, r2);
        assert_eq!(r1.origin(), Rank(2));
        assert_ne!(r1, ReqId::NONE);
    }

    #[test]
    fn killed_endpoint_goes_dark() {
        let (mut eps, stats) = build::<Ping>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(Rank(1), Ping(1, vec![])).unwrap();
        b.kill();
        assert!(b.recv_timeout(Duration::from_millis(5)).is_none());
        let err = b.send(Rank(0), Ping(2, vec![])).unwrap_err();
        assert_eq!(err.kind, SendErrorKind::Crashed);
        assert!(a.peer_crashed(Rank(1)));
        assert!(stats.fault_snapshot_of(Rank(1)).crashed);
    }

    #[test]
    fn fault_plan_drops_deterministically() {
        let sent_and_got = |seed| {
            let mut plan = FaultPlan::seeded(seed);
            plan.drop = 0.3;
            let (mut eps, stats) = build_with_faults::<Ping>(2, Some(plan));
            let b = eps.pop().unwrap();
            let a = eps.pop().unwrap();
            for i in 0..200 {
                a.send(Rank(1), Ping(i, vec![])).unwrap();
            }
            let mut got = Vec::new();
            while let Some(env) = b.try_recv() {
                got.push(env.msg.0);
            }
            (got, stats.fault_snapshot_of(Rank(0)).dropped)
        };
        let (got1, dropped1) = sent_and_got(42);
        let (got2, dropped2) = sent_and_got(42);
        assert_eq!(got1, got2, "same seed must lose the same messages");
        assert_eq!(dropped1, dropped2);
        assert!(dropped1 > 20, "~30% of 200 should drop, got {dropped1}");
        assert_eq!(got1.len() as u64, 200 - dropped1);
        let (got3, _) = sent_and_got(43);
        assert_ne!(got1, got3, "different seeds should differ");
    }

    #[test]
    fn fault_plan_duplicates_carry_same_seq() {
        let mut plan = FaultPlan::seeded(7);
        plan.duplicate = 1.0;
        let (mut eps, stats) = build_with_faults::<Ping>(2, Some(plan));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(Rank(1), Ping(5, vec![])).unwrap();
        let first = b.recv_timeout(Duration::from_secs(1)).unwrap();
        let second = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(first.msg, second.msg);
        assert_eq!(first.seq, second.seq);
        assert_eq!(stats.fault_snapshot_of(Rank(0)).duplicated, 1);
    }

    #[test]
    fn delayed_messages_eventually_arrive() {
        let mut plan = FaultPlan::seeded(11);
        plan.delay = 1.0;
        plan.max_delay_ops = 4;
        let (mut eps, stats) = build_with_faults::<Ping>(2, Some(plan));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..20 {
            a.send(Rank(1), Ping(i, vec![])).unwrap();
        }
        drop(a); // flushes anything still held back
        let mut got = Vec::new();
        while let Some(env) = b.try_recv() {
            got.push(env.msg.0);
        }
        assert_eq!(got.len(), 20, "no delayed message may be lost");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_eq!(stats.fault_snapshot_of(Rank(0)).delayed, 20);
    }

    #[test]
    fn non_faultable_messages_pass_unperturbed() {
        #[derive(Debug)]
        struct Ctl(u64);
        impl Message for Ctl {
            fn faultable(&self) -> bool {
                false
            }
        }
        let mut plan = FaultPlan::seeded(9);
        plan.drop = 1.0;
        let (mut eps, stats) = build_with_faults::<Ctl>(2, Some(plan));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..50 {
            a.send(Rank(1), Ctl(i)).unwrap();
        }
        for i in 0..50 {
            assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().msg.0, i);
        }
        assert_eq!(stats.fault_snapshot_of(Rank(0)).dropped, 0);
    }

    #[test]
    fn shutdown_flag_visible_to_all() {
        let (eps, _stats) = build::<Ping>(3);
        assert!(!eps[2].shutdown_raised());
        eps[0].raise_shutdown();
        assert!(eps[1].shutdown_raised());
        assert!(eps[2].shutdown_raised());
    }

    #[test]
    fn counters_track_traffic() {
        let (mut eps, _stats) = build::<Ping>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(Rank(1), Ping(0, vec![0; 100])).unwrap();
        let _ = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(a.counters().messages_sent(), 1);
        assert_eq!(a.counters().bytes_sent(), 108);
        assert_eq!(b.counters().messages_received(), 1);
        assert_eq!(b.counters().bytes_received(), 108);
    }

    #[test]
    fn epoch_monotone() {
        let (eps, _stats) = build::<Ping>(2);
        let e1 = eps[0].next_epoch();
        let e2 = eps[1].next_epoch();
        assert!(e2 > e1);
    }

    /// A protocol with a batch container, shaped like the runtime's
    /// `SipMsg::Batch`.
    #[derive(Debug, Clone, PartialEq)]
    enum Pkt {
        One(u64),
        Many(Vec<Pkt>),
    }

    impl Message for Pkt {
        fn approx_bytes(&self) -> usize {
            match self {
                Pkt::One(_) => 8,
                Pkt::Many(v) => v.iter().map(|m| m.approx_bytes()).sum(),
            }
        }

        fn batch(msgs: Vec<Self>) -> Result<Self, Vec<Self>> {
            Ok(Pkt::Many(msgs))
        }

        fn unbatch(self) -> Result<Vec<Self>, Self> {
            match self {
                Pkt::Many(v) => Ok(v),
                one => Err(one),
            }
        }
    }

    #[test]
    fn staged_messages_coalesce_into_one_envelope() {
        let (mut eps, stats) = build::<Pkt>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..5 {
            a.stage(Rank(1), Pkt::One(i)).unwrap();
        }
        a.flush().unwrap();
        // One wire message, four coalesced away; the receiver sees all
        // five parts, in order, sharing the envelope's sequence number.
        assert_eq!(a.counters().messages_sent(), 1);
        assert_eq!(a.counters().messages_coalesced(), 4);
        assert_eq!(stats.total_messages_coalesced(), 4);
        for i in 0..5 {
            let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(env.msg, Pkt::One(i));
            assert_eq!(env.seq, 1);
            assert_eq!(env.src, Rank(0));
        }
        assert!(b.try_recv().is_none());
        assert_eq!(b.counters().messages_received(), 1);
    }

    #[test]
    fn send_flushes_staged_first_for_fifo() {
        let (mut eps, _stats) = build::<Pkt>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.stage(Rank(1), Pkt::One(0)).unwrap();
        a.stage(Rank(1), Pkt::One(1)).unwrap();
        a.send(Rank(1), Pkt::One(2)).unwrap();
        for i in 0..3 {
            let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(env.msg, Pkt::One(i), "staged traffic must stay FIFO");
        }
    }

    #[test]
    fn single_staged_message_ships_plain() {
        let (mut eps, _stats) = build::<Pkt>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.stage(Rank(1), Pkt::One(9)).unwrap();
        a.flush().unwrap();
        assert_eq!(a.counters().messages_coalesced(), 0);
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap().msg,
            Pkt::One(9)
        );
    }

    #[test]
    fn non_batching_protocol_falls_back_to_individual_sends() {
        let (mut eps, _stats) = build::<Ping>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..3 {
            a.stage(Rank(1), Ping(i, vec![])).unwrap();
        }
        a.flush().unwrap();
        assert_eq!(a.counters().messages_sent(), 3);
        assert_eq!(a.counters().messages_coalesced(), 0);
        for i in 0..3 {
            assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().msg.0, i);
        }
    }

    #[test]
    fn dropping_endpoint_flushes_staged() {
        let (mut eps, _stats) = build::<Pkt>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.stage(Rank(1), Pkt::One(1)).unwrap();
        a.stage(Rank(1), Pkt::One(2)).unwrap();
        drop(a);
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap().msg,
            Pkt::One(1)
        );
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap().msg,
            Pkt::One(2)
        );
    }

    #[test]
    fn dropped_batch_loses_all_parts_once() {
        // A whole-envelope fault verdict applies to the batch: one drop
        // loses every part (each is retried by the protocol layer above).
        let mut plan = FaultPlan::seeded(5);
        plan.drop = 1.0;
        let (mut eps, stats) = build_with_faults::<Pkt>(2, Some(plan));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..4 {
            a.stage(Rank(1), Pkt::One(i)).unwrap();
        }
        a.flush().unwrap();
        assert!(b.recv_timeout(Duration::from_millis(10)).is_none());
        assert_eq!(stats.fault_snapshot_of(Rank(0)).dropped, 1);
    }

    #[test]
    fn recv_timeout_expires() {
        let (eps, _stats) = build::<Ping>(1);
        let t0 = std::time::Instant::now();
        assert!(eps[0].recv_timeout(Duration::from_millis(10)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert_eq!(eps[0].counters().deadline_wakeups(), 1);
    }

    #[test]
    fn kill_and_shutdown_wake_a_receiver_blocked_without_deadline() {
        let (mut eps, _stats) = build::<Ping>(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t0 = Instant::now();
        let parked = thread::spawn(move || {
            // No deadline: only a message or a wake-up ends each wait.
            while !b.peer_crashed(Rank(0)) {
                assert!(b.recv_deadline(None).is_none());
            }
            while !b.shutdown_raised() {
                assert!(b.recv_deadline(None).is_none());
            }
            b.counters().deadline_wakeups()
        });
        thread::sleep(Duration::from_millis(20));
        a.kill();
        thread::sleep(Duration::from_millis(20));
        c.raise_shutdown();
        assert_eq!(parked.join().unwrap(), 0, "woken by flags, not by time");
        assert!(t0.elapsed() < Duration::from_secs(10));
        // Once shutdown is up an empty inbox never blocks.
        assert!(c.recv_deadline(None).is_none());
    }

    #[test]
    fn blocking_receive_releases_held_back_envelopes() {
        // The sender holds a delayed envelope and then blocks: its op clock
        // keeps ticking inside the receive, so the envelope goes out after
        // its operation count, not after the sender's next timer.
        let mut plan = FaultPlan::seeded(11);
        plan.delay = 1.0;
        let (mut eps, _stats) = build_with_faults::<Ping>(2, Some(plan));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(Rank(1), Ping(1, vec![])).unwrap();
        assert!(a.recv_timeout(Duration::from_millis(1)).is_none());
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().msg.0, 1);
    }
}
