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
use sia_bytecode::ArrayId;

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

/// One rank's unified block store: pinned home/local maps, the byte-LRU
/// cache of remote copies, byte accounting, and budget enforcement.
pub struct BlockManager {
    home: KeyMap<BlockHandle>,
    /// Norm table for sparse arrays homed here: blocks whose payload was
    /// dropped under the sparsity threshold, keyed to the Frobenius-norm
    /// bound recorded at drop time. A key is never in both `home` and
    /// `home_norms`.
    home_norms: KeyMap<f64>,
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
            home_norms: KeyMap::default(),
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

    /// Shares the home block for `key`, if resident (zero-copy serve).
    pub fn serve_home(&mut self, key: &BlockKey) -> Option<BlockHandle> {
        let h = self.home.get(key)?.clone();
        self.note_share(&h);
        Some(h)
    }

    /// Is a home block resident for `key`?
    pub fn home_contains(&self, key: &BlockKey) -> bool {
        self.home.contains_key(key)
    }

    /// Inserts (or replaces) the authoritative home block for `key`. A real
    /// payload supersedes any recorded absence.
    pub fn home_insert(&mut self, key: BlockKey, data: BlockHandle) {
        self.pinned_bytes += data.heap_bytes();
        self.home_norms.remove(&key);
        if let Some(old) = self.home.insert(key, data) {
            self.pinned_bytes -= old.heap_bytes();
        }
        self.note_usage();
    }

    /// Records that `key`'s block is absent (exactly zero) with the given
    /// Frobenius-norm bound, dropping any resident payload. The home side of
    /// a sparse put whose norm fell under the threshold.
    pub fn home_record_absent(&mut self, key: BlockKey, norm: f64) {
        if let Some(old) = self.home.remove(&key) {
            self.pinned_bytes -= old.heap_bytes();
        }
        self.home_norms.insert(key, norm);
        self.note_usage();
    }

    /// The recorded norm bound for an absent sparse block homed here, if any.
    pub fn home_absent_norm(&self, key: &BlockKey) -> Option<f64> {
        self.home_norms.get(key).copied()
    }

    /// Number of absent-block entries in the norm table.
    pub fn home_norm_len(&self) -> usize {
        self.home_norms.len()
    }

    /// Approximate heap footprint of the norm table — what a sparse home
    /// pays instead of zero payloads (key + f64 + map overhead per entry).
    /// The dry run uses the same per-entry constant.
    pub fn norm_table_bytes(&self) -> u64 {
        self.home_norms.len() as u64 * crate::dryrun::NORM_TABLE_ENTRY_BYTES
    }

    /// CoW-mutable access to a home block (for accumulate-puts).
    pub fn home_entry_mut(&mut self, key: &BlockKey) -> Option<&mut BlockHandle> {
        self.home.get_mut(key)
    }

    /// Drops every home block of `array` (DELETE), including recorded
    /// absences.
    pub fn home_remove_array(&mut self, array: ArrayId) {
        let bytes = &mut self.pinned_bytes;
        self.home.retain(|k, h| {
            if k.array == array {
                *bytes -= h.heap_bytes();
                false
            } else {
                true
            }
        });
        self.home_norms.retain(|k, _| k.array != array);
    }

    /// Shares every resident home block (epoch checkpoints). Each handle in
    /// the snapshot aliases the authoritative block — no payload is copied.
    pub fn snapshot_home(&mut self) -> Vec<(BlockKey, BlockHandle)> {
        let snap: Vec<(BlockKey, BlockHandle)> =
            self.home.iter().map(|(k, h)| (*k, h.clone())).collect();
        for (_, h) in &snap {
            self.clones_avoided += 1;
            self.bytes_clone_avoided += h.heap_bytes();
        }
        snap
    }

    /// Shares every resident home block of one array (`blocks_to_list`
    /// checkpoints). Zero-copy, like [`BlockManager::snapshot_home`].
    pub fn home_array_shares(&mut self, array: ArrayId) -> Vec<(BlockKey, BlockHandle)> {
        let snap: Vec<(BlockKey, BlockHandle)> = self
            .home
            .iter()
            .filter(|(k, _)| k.array == array)
            .map(|(k, h)| (*k, h.clone()))
            .collect();
        for (_, h) in &snap {
            self.clones_avoided += 1;
            self.bytes_clone_avoided += h.heap_bytes();
        }
        snap
    }

    /// Moves every home block out (end-of-run collection).
    pub fn drain_home(&mut self) -> Vec<(BlockKey, BlockHandle)> {
        self.pinned_bytes = self
            .pinned_bytes
            .saturating_sub(self.home.values().map(|h| h.heap_bytes()).sum());
        self.home.drain().collect()
    }

    /// Number of resident home blocks.
    pub fn home_len(&self) -> usize {
        self.home.len()
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

    #[test]
    fn serve_home_shares_allocation() {
        let mut m = BlockManager::new(1024, None);
        m.home_insert(key(1), blk(1.0));
        let served = m.serve_home(&key(1)).unwrap();
        let again = m.serve_home(&key(1)).unwrap();
        assert!(BlockHandle::ptr_eq(&served, &again));
        let s = m.stats();
        assert_eq!(s.clones_avoided, 2);
        assert_eq!(s.bytes_clone_avoided, 128);
        assert_eq!(s.deep_copies, 0);
    }

    #[test]
    fn byte_accounting_and_high_water() {
        let mut m = BlockManager::new(1024, None);
        m.home_insert(key(1), blk(1.0));
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
        m.home_insert(key(1), blk(1.0));
        m.home_insert(key(1), blk(2.0));
        assert_eq!(m.stats().pinned_bytes, 64);
    }

    #[test]
    fn budget_pressure_evicts_cache_first() {
        // Budget 192: 128 pinned + up to 64 cached fits; the second cached
        // block pushes resident to 256 and pressure must evict, not error.
        let mut m = BlockManager::new(1024, Some(192));
        m.home_insert(key(1), blk(1.0));
        m.home_insert(key(2), blk(2.0));
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
        m.home_insert(key(1), blk(1.0));
        m.home_insert(key(2), blk(2.0)); // 128 pinned > 100, nothing evictable
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
        m.home_insert(key(1), blk(1.0));
        let snap = m.snapshot_home();
        assert_eq!(snap.len(), 1);
        let authoritative = m.serve_home(&key(1)).unwrap();
        assert!(BlockHandle::ptr_eq(&snap[0].1, &authoritative));
        assert_eq!(m.stats().deep_copies, 0);
    }

    #[test]
    fn norm_table_replaces_payload_and_clears_on_delete() {
        let mut m = BlockManager::new(1024, None);
        m.home_insert(key(1), blk(1.0));
        assert_eq!(m.stats().pinned_bytes, 64);
        // Dropping under the threshold removes the payload, records the norm.
        m.home_record_absent(key(1), 3e-11);
        assert_eq!(m.stats().pinned_bytes, 0);
        assert!(m.serve_home(&key(1)).is_none());
        assert_eq!(m.home_absent_norm(&key(1)), Some(3e-11));
        assert_eq!(m.home_norm_len(), 1);
        assert!(m.norm_table_bytes() > 0);
        // A real put supersedes the recorded absence.
        m.home_insert(key(1), blk(2.0));
        assert_eq!(m.home_absent_norm(&key(1)), None);
        assert_eq!(m.stats().pinned_bytes, 64);
        // DELETE clears norms along with payloads.
        m.home_record_absent(key(2), 1e-12);
        m.home_remove_array(ArrayId(0));
        assert_eq!(m.home_norm_len(), 0);
        assert_eq!(m.home_len(), 0);
    }

    #[test]
    fn drain_home_credits_bytes() {
        let mut m = BlockManager::new(1024, None);
        m.home_insert(key(1), blk(1.0));
        m.home_insert(key(2), blk(2.0));
        let drained = m.drain_home();
        assert_eq!(drained.len(), 2);
        assert_eq!(m.stats().pinned_bytes, 0);
        assert_eq!(m.home_len(), 0);
    }
}
