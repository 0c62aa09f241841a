//! The per-rank block manager: one owner for every resident block.
//!
//! The paper's SIP is defined by disciplined block memory management —
//! preallocated block stacks per size class, an LRU block cache, and a
//! dry run that predicts per-worker memory before the real run. This module
//! is our equivalent: a [`BlockManager`] unifies the previously separate
//! home store (authoritative blocks of distributed arrays), local store
//! (local/static arrays), and remote-copy cache behind one byte-accounted
//! facade, with the dry-run `memory_budget` enforced as a runtime ceiling.
//!
//! Policy classes per `ArrayKind`:
//! * **pinned** — home blocks of distributed arrays and local/static blocks
//!   are authoritative and never evicted;
//! * **evictable** — cached copies of remote (distributed/served) blocks,
//!   LRU-replaced by *bytes* (see [`crate::cache`]);
//! * **pooled scratch** — temp blocks recycle through the
//!   [`sia_blocks::BlockPool`] and are bounded separately (`POOL_BYTES` in `worker.rs`).
//!
//! All blocks move as [`BlockHandle`]s: serving a home block, filling a
//! cache entry, journaling a put, snapshotting an epoch checkpoint, and
//! carrying a fabric envelope share one allocation. The manager counts every
//! avoided clone so the zero-copy property is *asserted*, not assumed.

use crate::cache::{BlockCache, CacheEntry, CacheStats, Flight};
use crate::error::RuntimeError;
use crate::msg::{BlockKey, KeyMap, Payload};
use sia_blocks::BlockHandle;
use sia_bytecode::{ArrayId, PutMode};

/// Snapshot of the manager's byte accounting and zero-copy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Bytes pinned right now (home + local/static blocks).
    pub pinned_bytes: u64,
    /// Bytes of ready cached remote copies right now.
    pub cached_bytes: u64,
    /// High-water mark of `pinned + cached` over the run.
    pub high_water_bytes: u64,
    /// The enforced budget (0 = unlimited).
    pub budget_bytes: u64,
    /// Deep copies avoided by sharing a handle instead of cloning a block.
    pub clones_avoided: u64,
    /// Payload bytes those avoided clones would have copied.
    pub bytes_clone_avoided: u64,
    /// Data-plane deep copies that still happened (CoW on a shared handle,
    /// boundary materialization). Zero on the in-process fast path.
    pub deep_copies: u64,
    /// Cache evictions forced by budget pressure (beyond LRU capacity).
    pub budget_evictions: u64,
}

/// Everything a home knows about one of its blocks, behind one map probe.
#[derive(Debug, Default)]
struct HomeSlot {
    /// The block, or — for a sparse array whose payload fell under the
    /// sparsity threshold — its Frobenius-norm bound (an entry of the norm
    /// table); `None` while nothing was stored.
    block: Option<Payload>,
    /// The last `sip_barrier` epoch a peer's fetch was served from here and
    /// the last one a Replace-put landed: what the barrier-misuse check
    /// compares against the current epoch.
    served: Option<u64>,
    replaced: Option<u64>,
}

/// One rank's unified block store: pinned home/local maps, the byte-LRU
/// cache of remote copies, byte accounting, and budget enforcement.
pub struct BlockManager {
    home: KeyMap<HomeSlot>,
    /// Home slots holding a norm record: the norm table's length.
    home_norms: usize,
    local: KeyMap<BlockHandle>,
    cache: BlockCache,
    budget: Option<u64>,
    pinned_bytes: u64,
    high_water: u64,
    clones_avoided: u64,
    bytes_clone_avoided: u64,
    deep_copies: u64,
    budget_evictions: u64,
}

impl BlockManager {
    /// Creates a manager with a byte-sized cache and an optional enforced
    /// per-rank budget.
    pub fn new(cache_capacity_bytes: u64, budget: Option<u64>) -> Self {
        BlockManager {
            home: KeyMap::default(),
            home_norms: 0,
            local: KeyMap::default(),
            cache: BlockCache::new(cache_capacity_bytes.max(1)),
            budget,
            pinned_bytes: 0,
            high_water: 0,
            clones_avoided: 0,
            bytes_clone_avoided: 0,
            deep_copies: 0,
            budget_evictions: 0,
        }
    }

    /// Total resident bytes under management: pinned + cached payloads plus
    /// the norm table a sparse home keeps in place of dropped payloads — the
    /// same three components the dry run's realized estimate charges.
    pub fn resident_bytes(&self) -> u64 {
        self.pinned_bytes + self.cache.ready_bytes() + self.norm_table_bytes()
    }

    fn note_usage(&mut self) {
        let now = self.resident_bytes();
        if now > self.high_water {
            self.high_water = now;
        }
    }

    /// Records a handle share that replaced what used to be a deep copy.
    pub fn note_share(&mut self, h: &BlockHandle) {
        self.clones_avoided += 1;
        self.bytes_clone_avoided += h.heap_bytes();
    }

    /// Records a data-plane deep copy that could not be avoided.
    pub fn note_deep_copy(&mut self) {
        self.deep_copies += 1;
    }

    /// Starts logging cache evictions (for the event tracer). Off by
    /// default; the eviction path stays allocation-free on untraced runs.
    pub fn enable_evict_log(&mut self) {
        self.cache.enable_evict_log();
    }

    /// Takes the `(key, bytes)` evictions logged since the last drain.
    pub fn drain_evictions(&mut self) -> Vec<(BlockKey, u64)> {
        self.cache.drain_evictions()
    }

    /// Applies budget pressure: evicts unshared cached copies LRU-first
    /// until resident bytes fit the budget, and returns a typed
    /// [`RuntimeError::OverBudget`] if pinned + unevictable bytes still
    /// exceed it. Called at instruction boundaries so every charge is
    /// checked soon after it lands.
    pub fn enforce_budget(&mut self) -> Result<(), RuntimeError> {
        let Some(budget) = self.budget else {
            return Ok(());
        };
        if self.resident_bytes() <= budget {
            return Ok(());
        }
        let target = budget.saturating_sub(self.pinned_bytes + self.norm_table_bytes());
        let before = self.cache.stats().evictions;
        self.cache.evict_until(target);
        self.budget_evictions += self.cache.stats().evictions - before;
        let resident = self.resident_bytes();
        if resident > budget {
            return Err(RuntimeError::OverBudget {
                resident_bytes: resident,
                budget,
            });
        }
        Ok(())
    }

    // ---- pinned home blocks (distributed arrays homed here) ----------------

    /// What the home holds for `key`: the block (a shared handle — a
    /// zero-copy serve) or its norm record; `None` when nothing was stored.
    pub fn home_read(&mut self, key: &BlockKey) -> Option<Payload> {
        let held = self.home.get(key)?.block.clone();
        if let Some(Payload::Data(h)) = &held {
            self.note_share(h);
        }
        held
    }

    /// [`home_read`](Self::home_read) for a peer's fetch in `epoch`: stamps
    /// the block as served in it, and says whether a Replace-put already
    /// landed on it in the same epoch.
    pub fn home_fetch(&mut self, key: BlockKey, epoch: u64) -> (Option<Payload>, bool) {
        let slot = self.home.entry(key).or_default();
        slot.served = Some(epoch);
        let replaced = slot.replaced == Some(epoch);
        let held = slot.block.clone();
        if let Some(Payload::Data(h)) = &held {
            self.note_share(h);
        }
        (held, replaced)
    }

    /// Applies a store to the authoritative block for `key` in `epoch`. A
    /// Replace adopts the payload outright and is stamped; an Accumulate
    /// adds into the resident block copy-on-write (in place unless a serve
    /// still shares it). A norm record replaces the block on a Replace; on
    /// an Accumulate it is a no-op over a resident block (the dropped
    /// contribution is within the screening bound) and sums the bounds over
    /// a recorded absence (triangle inequality). Returns whether this was a
    /// Replace of a block already served to a peer in the same epoch.
    pub fn home_store(
        &mut self,
        key: BlockKey,
        payload: Payload,
        mode: PutMode,
        epoch: u64,
    ) -> bool {
        let slot = self.home.entry(key).or_default();
        let replaced_after_read = mode == PutMode::Replace && slot.served == Some(epoch);
        if mode == PutMode::Replace {
            slot.replaced = Some(epoch);
        }
        let new = match (payload, mode, &mut slot.block) {
            (Payload::Data(data), PutMode::Accumulate, Some(Payload::Data(held))) => {
                held.make_mut().accumulate(&data);
                None
            }
            (Payload::Absent { .. }, PutMode::Accumulate, Some(Payload::Data(_))) => None,
            (Payload::Absent { norm }, PutMode::Accumulate, held) => {
                let prior = match held {
                    Some(Payload::Absent { norm }) => *norm,
                    _ => 0.0,
                };
                Some(Payload::Absent { norm: prior + norm })
            }
            (payload, _, _) => Some(payload),
        };
        if let Some(new) = new {
            self.pinned_bytes += new.heap_bytes();
            self.home_norms += matches!(new, Payload::Absent { .. }) as usize;
            if let Some(old) = slot.block.replace(new) {
                self.pinned_bytes -= old.heap_bytes();
                self.home_norms -= matches!(old, Payload::Absent { .. }) as usize;
            }
        }
        self.note_usage();
        replaced_after_read
    }

    /// Approximate heap footprint of the norm table — what a sparse home
    /// pays instead of zero payloads (key + f64 + map overhead per entry).
    /// The dry run uses the same per-entry constant.
    pub fn norm_table_bytes(&self) -> u64 {
        self.home_norms as u64 * crate::dryrun::NORM_TABLE_ENTRY_BYTES
    }

    /// Drops every home block of `array` (DELETE), including recorded
    /// absences. The epoch stamps stay: a delete is not a barrier.
    pub fn home_remove_array(&mut self, array: ArrayId) {
        let (bytes, norms) = (&mut self.pinned_bytes, &mut self.home_norms);
        self.home.retain(|k, slot| {
            if k.array != array {
                return true;
            }
            match slot.block.take() {
                Some(Payload::Data(h)) => *bytes -= h.heap_bytes(),
                Some(Payload::Absent { .. }) => *norms -= 1,
                None => {}
            }
            slot.served.is_some() || slot.replaced.is_some()
        });
    }

    /// The resident home blocks (with `array` given, only that array's).
    fn home_blocks(
        &self,
        array: Option<ArrayId>,
    ) -> impl Iterator<Item = (BlockKey, &BlockHandle)> {
        self.home
            .iter()
            .filter_map(move |(k, slot)| match &slot.block {
                Some(Payload::Data(h)) if array.is_none_or(|a| k.array == a) => Some((*k, h)),
                _ => None,
            })
    }

    /// Shares every resident home block, or with `array` given that array's
    /// (epoch and `blocks_to_list` checkpoints). Each handle aliases the
    /// authoritative block — no payload is copied.
    pub fn home_shares(&mut self, array: Option<ArrayId>) -> Vec<(BlockKey, BlockHandle)> {
        let snap: Vec<(BlockKey, BlockHandle)> = self
            .home_blocks(array)
            .map(|(k, h)| (k, h.clone()))
            .collect();
        for (_, h) in &snap {
            self.note_share(h);
        }
        snap
    }

    /// Moves every home block out (end-of-run collection).
    pub fn drain_home(&mut self) -> Vec<(BlockKey, BlockHandle)> {
        self.home_norms = 0;
        let drained: Vec<(BlockKey, BlockHandle)> = (self.home.drain())
            .filter_map(|(k, slot)| match slot.block {
                Some(Payload::Data(h)) => Some((k, h)),
                _ => None,
            })
            .collect();
        let bytes: u64 = drained.iter().map(|(_, h)| h.heap_bytes()).sum();
        self.pinned_bytes = self.pinned_bytes.saturating_sub(bytes);
        drained
    }

    /// Number of resident home blocks.
    pub fn home_len(&self) -> usize {
        self.home_blocks(None).count()
    }

    // ---- pinned local/static blocks ----------------------------------------

    /// Shares the local/static block for `key`, if written.
    pub fn local_share(&mut self, key: &BlockKey) -> Option<BlockHandle> {
        let h = self.local.get(key)?.clone();
        self.note_share(&h);
        Some(h)
    }

    /// Inserts (or replaces) a local/static block.
    pub fn local_insert(&mut self, key: BlockKey, data: BlockHandle) {
        self.pinned_bytes += data.heap_bytes();
        if let Some(old) = self.local.insert(key, data) {
            self.pinned_bytes -= old.heap_bytes();
        }
        self.note_usage();
    }

    /// CoW-mutable access to a local/static block.
    pub fn local_get_mut(&mut self, key: &BlockKey) -> Option<&mut BlockHandle> {
        self.local.get_mut(key)
    }

    /// CoW-mutable access, inserting `make()` first if absent (charged).
    pub fn local_mut_or_insert(
        &mut self,
        key: BlockKey,
        make: impl FnOnce() -> BlockHandle,
    ) -> &mut BlockHandle {
        if !self.local.contains_key(&key) {
            let h = make();
            self.pinned_bytes += h.heap_bytes();
            self.local.insert(key, h);
            self.note_usage();
        }
        self.local.get_mut(&key).expect("just inserted")
    }

    /// Takes a local/static block out of the manager (super-instruction
    /// marshalling hands the kernel exclusive ownership).
    pub fn local_take(&mut self, key: &BlockKey) -> Option<BlockHandle> {
        let h = self.local.remove(key)?;
        self.pinned_bytes -= h.heap_bytes();
        Some(h)
    }

    /// Drops every local/static block of `array` (DELETE).
    pub fn local_remove_array(&mut self, array: ArrayId) {
        let bytes = &mut self.pinned_bytes;
        self.local.retain(|k, h| {
            if k.array == array {
                *bytes -= h.heap_bytes();
                false
            } else {
                true
            }
        });
    }

    // ---- evictable cached remote copies ------------------------------------

    /// Cache lookup (refreshes LRU; counts hits/misses).
    pub fn cache_lookup(&mut self, key: &BlockKey) -> Option<&CacheEntry> {
        self.cache.lookup(key)
    }

    /// Cache peek (no LRU refresh, no counters).
    pub fn cache_peek(&self, key: &BlockKey) -> Option<&CacheEntry> {
        self.cache.peek(key)
    }

    /// Marks a fetch in flight unless the block is cached or already on its
    /// way; `Some` (the record `issue` built) means the caller must send it.
    pub fn cache_mark_in_flight(
        &mut self,
        key: BlockKey,
        issue: impl FnOnce() -> Flight,
    ) -> Option<Flight> {
        self.cache.mark_in_flight(key, issue)
    }

    /// Re-arms a presumed-lost in-flight fetch for re-issue.
    pub fn cache_refresh_in_flight(&mut self, key: &BlockKey) -> bool {
        self.cache.refresh_in_flight(key)
    }

    /// Stores an arrived remote block (sharing the sender's allocation) or
    /// the typed-absent answer for a sparse one; returns the flight this
    /// completed, if a fetch of the block was outstanding.
    pub fn cache_fill(&mut self, key: BlockKey, payload: Payload) -> Option<Flight> {
        let flight = self.cache.fill(key, payload);
        self.note_usage();
        flight
    }

    /// Drops one cached copy (a fresher value exists).
    pub fn cache_invalidate(&mut self, key: &BlockKey) {
        self.cache.invalidate(key);
    }

    /// Drops every ready cached copy of `array`.
    pub fn cache_invalidate_array(&mut self, array: ArrayId) {
        self.cache.invalidate_array(array);
    }

    /// Cache counter snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Byte-accounting and zero-copy counter snapshot.
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            pinned_bytes: self.pinned_bytes,
            cached_bytes: self.cache.ready_bytes(),
            high_water_bytes: self.high_water,
            budget_bytes: self.budget.unwrap_or(0),
            clones_avoided: self.clones_avoided,
            bytes_clone_avoided: self.bytes_clone_avoided,
            deep_copies: self.deep_copies,
            budget_evictions: self.budget_evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_blocks::{Block, Shape};

    fn key(i: i64) -> BlockKey {
        BlockKey::new(ArrayId(0), &[i])
    }

    /// 64-byte block.
    fn blk(v: f64) -> BlockHandle {
        BlockHandle::new(Block::filled(Shape::new(&[8]), v))
    }

    /// A Replace-put of `payload` in epoch 0.
    fn put(m: &mut BlockManager, k: BlockKey, payload: Payload) {
        m.home_store(k, payload, PutMode::Replace, 0);
    }

    fn data(v: f64) -> Payload {
        Payload::Data(blk(v))
    }

    fn norm_of(m: &mut BlockManager, k: &BlockKey) -> Option<f64> {
        match m.home_read(k) {
            Some(Payload::Absent { norm }) => Some(norm),
            _ => None,
        }
    }

    fn served(m: &mut BlockManager, k: &BlockKey) -> BlockHandle {
        match m.home_read(k) {
            Some(Payload::Data(h)) => h,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_home_shares_allocation() {
        let mut m = BlockManager::new(1024, None);
        put(&mut m, key(1), data(1.0));
        let first = served(&mut m, &key(1));
        let again = served(&mut m, &key(1));
        assert!(BlockHandle::ptr_eq(&first, &again));
        let s = m.stats();
        assert_eq!(s.clones_avoided, 2);
        assert_eq!(s.bytes_clone_avoided, 128);
        assert_eq!(s.deep_copies, 0);
    }

    #[test]
    fn byte_accounting_and_high_water() {
        let mut m = BlockManager::new(1024, None);
        put(&mut m, key(1), data(1.0));
        m.local_insert(BlockKey::new(ArrayId(1), &[1]), blk(2.0));
        m.cache_fill(BlockKey::new(ArrayId(2), &[1]), Payload::Data(blk(3.0)));
        let s = m.stats();
        assert_eq!(s.pinned_bytes, 128);
        assert_eq!(s.cached_bytes, 64);
        assert_eq!(s.high_water_bytes, 192);
        m.home_remove_array(ArrayId(0));
        let s = m.stats();
        assert_eq!(s.pinned_bytes, 64);
        assert_eq!(s.high_water_bytes, 192, "high water is sticky");
    }

    #[test]
    fn replacing_home_block_does_not_leak_bytes() {
        let mut m = BlockManager::new(1024, None);
        put(&mut m, key(1), data(1.0));
        put(&mut m, key(1), data(2.0));
        assert_eq!(m.stats().pinned_bytes, 64);
    }

    #[test]
    fn budget_pressure_evicts_cache_first() {
        // Budget 192: 128 pinned + up to 64 cached fits; the second cached
        // block pushes resident to 256 and pressure must evict, not error.
        let mut m = BlockManager::new(1024, Some(192));
        put(&mut m, key(1), data(1.0));
        put(&mut m, key(2), data(2.0));
        m.cache_fill(BlockKey::new(ArrayId(2), &[1]), Payload::Data(blk(3.0)));
        m.cache_fill(BlockKey::new(ArrayId(2), &[2]), Payload::Data(blk(4.0)));
        m.enforce_budget()
            .expect("eviction pressure should suffice");
        let s = m.stats();
        assert!(s.pinned_bytes + s.cached_bytes <= 192);
        assert!(s.budget_evictions >= 1);
    }

    #[test]
    fn over_budget_error_when_pinned_exceeds_budget() {
        let mut m = BlockManager::new(1024, Some(100));
        put(&mut m, key(1), data(1.0));
        put(&mut m, key(2), data(2.0)); // 128 pinned > 100, nothing evictable
        match m.enforce_budget() {
            Err(RuntimeError::OverBudget {
                resident_bytes,
                budget,
            }) => {
                assert_eq!(resident_bytes, 128);
                assert_eq!(budget, 100);
            }
            other => panic!("expected OverBudget, got {other:?}"),
        }
    }

    #[test]
    fn budget_respects_consumer_held_cache_entries() {
        // A cached block a consumer acquired a hold on after delivery is
        // pinned in practice: pressure must not evict it, and if that makes
        // the budget unreachable the manager reports OverBudget rather than
        // freeing memory out from under the holder.
        let mut m = BlockManager::new(1024, Some(64));
        m.cache_fill(key(1), Payload::Data(blk(1.0)));
        let held = match m.cache_lookup(&key(1)) {
            Some(CacheEntry::Ready(h)) => h.clone(),
            other => panic!("{other:?}"),
        };
        m.cache_fill(key(2), Payload::Data(blk(2.0)));
        m.enforce_budget().expect("consumer-free entry evicted");
        assert!(matches!(
            m.cache_peek(&key(1)),
            Some(CacheEntry::Ready(h)) if BlockHandle::ptr_eq(h, &held)
        ));
        assert!(m.cache_peek(&key(2)).is_none());
    }

    #[test]
    fn snapshot_home_is_zero_copy() {
        let mut m = BlockManager::new(1024, None);
        put(&mut m, key(1), data(1.0));
        let snap = m.home_shares(None);
        assert_eq!(snap.len(), 1);
        let authoritative = served(&mut m, &key(1));
        assert!(BlockHandle::ptr_eq(&snap[0].1, &authoritative));
        assert_eq!(m.stats().deep_copies, 0);
    }

    #[test]
    fn norm_table_replaces_payload_and_clears_on_delete() {
        let mut m = BlockManager::new(1024, None);
        put(&mut m, key(1), data(1.0));
        assert_eq!(m.stats().pinned_bytes, 64);
        // Dropping under the threshold removes the payload, records the norm.
        put(&mut m, key(1), Payload::Absent { norm: 3e-11 });
        assert_eq!(m.stats().pinned_bytes, 0);
        assert_eq!(m.home_len(), 0);
        assert_eq!(norm_of(&mut m, &key(1)), Some(3e-11));
        let entry = crate::dryrun::NORM_TABLE_ENTRY_BYTES;
        assert_eq!(m.norm_table_bytes(), entry);
        // A real put supersedes the recorded absence.
        put(&mut m, key(1), data(2.0));
        assert_eq!(norm_of(&mut m, &key(1)), None);
        assert_eq!(m.norm_table_bytes(), 0);
        assert_eq!(m.stats().pinned_bytes, 64);
        // DELETE clears norms along with payloads.
        put(&mut m, key(2), Payload::Absent { norm: 1e-12 });
        assert_eq!(m.norm_table_bytes(), entry);
        m.home_remove_array(ArrayId(0));
        assert_eq!(m.norm_table_bytes(), 0);
        assert_eq!(m.home_len(), 0);
        assert_eq!(m.stats().pinned_bytes, 0);
    }

    #[test]
    fn drain_home_credits_bytes() {
        let mut m = BlockManager::new(1024, None);
        put(&mut m, key(1), data(1.0));
        put(&mut m, key(2), data(2.0));
        let drained = m.drain_home();
        assert_eq!(drained.len(), 2);
        assert_eq!(m.stats().pinned_bytes, 0);
        assert_eq!(m.home_len(), 0);
    }

    /// One slot answers a fetch and a store together: the barrier-misuse
    /// stamps are per epoch and per direction, and a store accumulates into
    /// the block it serves without touching the bytes it pins.
    #[test]
    fn a_home_slot_stamps_reads_and_replaces_per_epoch() {
        let mut m = BlockManager::new(1024, None);
        let k = key(1);
        assert!(!m.home_store(k, data(1.0), PutMode::Replace, 0));
        let (held, replaced) = m.home_fetch(k, 0);
        assert!(matches!(held, Some(Payload::Data(_))));
        assert!(replaced, "read after a Replace in the same epoch");
        assert!(
            m.home_store(k, data(2.0), PutMode::Replace, 0),
            "replaced after a read"
        );
        // An accumulate is never a conflict, and adds in place.
        assert!(!m.home_store(k, data(3.0), PutMode::Accumulate, 0));
        assert_eq!(served(&mut m, &k).data()[0], 5.0);
        assert_eq!(m.stats().pinned_bytes, 64);
        // Next epoch: neither direction remembers the last one.
        assert!(!m.home_store(k, data(1.0), PutMode::Replace, 1));
        let (_, replaced) = m.home_fetch(key(2), 1);
        assert!(!replaced, "a never-stored block was never replaced");
        assert!(!m.home_fetch(k, 2).1);
        // A fetch of a block nobody stored leaves it unstored.
        assert_eq!(m.home_len(), 1);
    }

    /// Norm records accumulate by the triangle inequality, vanish under a
    /// resident block, and give way to a real payload.
    #[test]
    fn absent_accumulates_follow_the_screening_rules() {
        let mut m = BlockManager::new(1024, None);
        let acc = |m: &mut BlockManager, p| m.home_store(key(1), p, PutMode::Accumulate, 0);
        acc(&mut m, Payload::Absent { norm: 0.5 });
        acc(&mut m, Payload::Absent { norm: 0.25 });
        assert_eq!(norm_of(&mut m, &key(1)), Some(0.75));
        acc(&mut m, data(2.0));
        assert_eq!(served(&mut m, &key(1)).data()[0], 2.0);
        acc(&mut m, Payload::Absent { norm: 9.0 });
        assert_eq!(served(&mut m, &key(1)).data()[0], 2.0);
        assert_eq!(m.norm_table_bytes(), 0);
    }
}
