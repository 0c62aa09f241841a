//! Block access and the fetch/store protocol of a worker: where a block
//! lives ([`Worker::home_of`]), reading and writing the blocks a ref
//! denotes, fetching remote blocks into the cache, sending stores to their
//! homes and applying them there, and sparse screening on both sides.

use crate::cache::{BlockGet, CacheEntry, Flight};
use crate::error::RuntimeError;
use crate::ft::JournalEntry;
use crate::layout::RefFacts;
use crate::metrics::WaitCause;
use crate::msg::{BlockKey, OpId, Payload, SipMsg};
use crate::worker::Worker;
use sia_blocks::{Block, BlockHandle};
use sia_bytecode::{ArrayId, ArrayKind, PutMode};
use sia_fabric::{Rank, ReqId};
use std::time::{Duration, Instant};

/// How a block access treats a non-resident block: issue the fetch and
/// return immediately (`get`/`request`/prefetch), or block until the data
/// is resident (operand reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fetch {
    NoWait,
    Wait,
}

impl Worker {
    /// Home of a distributed block (skipping dead workers under fault
    /// tolerance) or a served one, by the array's kind. The single resolver
    /// on the worker: every caller goes through here (or through
    /// [`Layout::home_of`](crate::layout::Layout::home_of) with an explicit
    /// dead mask), so nothing can pick the stale non-excluding variant
    /// during recovery. A key that is no block of its array is refused here,
    /// before any home is resolved or anything is sent.
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
    /// old defensive deep copy. A dense consumer sees a sparse array's
    /// absent block as zeros.
    ///
    /// `wait` accumulates blocked time for the profiler.
    pub(crate) fn read_block(
        &mut self,
        r: &RefFacts,
        wait: &mut Duration,
    ) -> Result<BlockHandle, RuntimeError> {
        match self.read_block_get(r, wait)? {
            BlockGet::Ready(h) => Ok(h),
            _ => Ok(BlockHandle::zeros(r.shape)),
        }
    }

    /// Screening-aware read for consumers that can exploit typed absence
    /// (the contraction path): like [`Worker::read_block`], but an absent
    /// sparse block comes back as [`BlockGet::AbsentZero`] with its norm
    /// bound instead of a materialized zero block. A slice of an absent
    /// block is absent with the same bound (`‖sub‖F ≤ ‖whole‖F`).
    pub(crate) fn read_block_get(
        &mut self,
        r: &RefFacts,
        wait: &mut Duration,
    ) -> Result<BlockGet, RuntimeError> {
        let (key, window) = self.resolve(r)?;
        let whole = match r.kind {
            ArrayKind::Temp => match &self.temps[r.array.index()] {
                Some((stored_key, block)) if *stored_key == key => {
                    let h = block.clone();
                    self.mem.note_share(&h);
                    h
                }
                _ => {
                    return Err(RuntimeError::TempUndefined {
                        array: self.layout.array(r.array).name.clone(),
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
                            self.layout.array(r.array).name
                        ),
                    });
                }
            },
            ArrayKind::Distributed | ArrayKind::Served => {
                match self.access_key(key, Fetch::Wait, wait)? {
                    BlockGet::Ready(h) => h,
                    absent @ BlockGet::AbsentZero { .. } => return Ok(absent),
                    BlockGet::Pending => {
                        return Err(RuntimeError::Internal(
                            "wait-mode access returned pending".into(),
                        ));
                    }
                }
            }
        };
        // A sub-addressed ref reads the sub-block its window cuts out.
        let Some(spec) = window else {
            return Ok(BlockGet::Ready(whole));
        };
        (sia_blocks::extract_slice(&whole, &spec))
            .map(|sub| BlockGet::Ready(sub.into()))
            .map_err(|e| RuntimeError::Internal(format!("slice extraction failed: {e}")))
    }

    /// Writes `block` to the storage a ref denotes (temp/local/static only;
    /// distributed/served writes go through put/prepare). Accepts anything
    /// convertible to a [`BlockHandle`], so a shared handle is stored without
    /// materializing a copy.
    pub(crate) fn write_block(
        &mut self,
        r: &RefFacts,
        block: impl Into<BlockHandle>,
    ) -> Result<(), RuntimeError> {
        let block = block.into();
        let (key, window) = self.resolve(r)?;
        let Some(spec) = window else {
            return match r.kind {
                ArrayKind::Temp => {
                    if let Some((_, old)) = self.temps[r.array.index()].replace((key, block)) {
                        self.release_handle(old);
                    }
                    Ok(())
                }
                ArrayKind::Local | ArrayKind::Static => self.mem.local_insert(key, block),
                other => Err(RuntimeError::BadProgram(format!(
                    "direct write to {other:?} array"
                ))),
            };
        };
        // Insertion: write the subblock into the (existing or fresh) parent
        // block.
        let parent_shape = r.declared_shape();
        let parent = match r.kind {
            ArrayKind::Temp => {
                let entry = self.temps[r.array.index()]
                    .get_or_insert_with(|| (key, BlockHandle::zeros(parent_shape)));
                if entry.0 != key {
                    *entry = (key, BlockHandle::zeros(parent_shape));
                }
                &mut entry.1
            }
            ArrayKind::Local | ArrayKind::Static => self
                .mem
                .local_mut_or_insert(key, || BlockHandle::zeros(parent_shape))?,
            other => {
                return Err(RuntimeError::BadProgram(format!(
                    "direct write to {other:?} array"
                )));
            }
        };
        sia_blocks::insert_slice(parent.make_mut(), &spec, &block)
            .map_err(|e| RuntimeError::Internal(format!("insert failed: {e}")))
    }

    /// Mutates a writable block in place (for `+=`, `*=` on temps/locals).
    pub(crate) fn modify_block(
        &mut self,
        r: &RefFacts,
        f: impl FnOnce(&mut Block),
    ) -> Result<(), RuntimeError> {
        let (key, window) = self.resolve(r)?;
        if window.is_some() {
            // Read-modify-write through the slice path.
            let mut wait = Duration::ZERO;
            let mut sub = self.read_block(r, &mut wait)?;
            f(sub.make_mut());
            return self.write_block(r, sub);
        }
        match r.kind {
            ArrayKind::Temp => match &mut self.temps[r.array.index()] {
                Some((stored_key, block)) if *stored_key == key => {
                    f(block.make_mut());
                    Ok(())
                }
                _ => Err(RuntimeError::TempUndefined {
                    array: self.layout.array(r.array).name.clone(),
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

    /// Applies a store sent in `epoch` to the authoritative store (used by
    /// the home for remote puts and by the owner for local ones), under the
    /// rules of
    /// [`BlockManager::home_store`](crate::memory::BlockManager::home_store).
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
    pub(crate) fn as_read(&self, key: &BlockKey, held: Option<Payload>) -> Payload {
        self.as_served(key, held).unwrap_or_else(|| {
            Payload::Data(BlockHandle::zeros(
                self.layout.declared_block_shape(key.array),
            ))
        })
    }
}
