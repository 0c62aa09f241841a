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
//!   are authoritative and never evicted; they sit in per-array block
//!   tables found by [`Layout::block_ordinal`], not in a hash map (see
//!   [`TABLE_PAGE`] for what a table costs);
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
use crate::layout::Layout;
use crate::msg::{BlockKey, Payload};
use sia_blocks::BlockHandle;
use sia_bytecode::{ArrayId, PutMode};
use std::sync::Arc;

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

/// Ordinals per page of a [`BlockTable`]. A worker's home blocks of an
/// array are one slab of consecutive ordinals, so its pages are full but
/// for the two at the slab's ends; its local arrays are dense. A scattered
/// set arises only when a rank dies and `Topology::rehash_from` spreads its
/// blocks over the survivors by hash: then a page a survivor touches may
/// hold one of its blocks. Even so a table costs a worker at most one page
/// per block it holds (a page of home slots is 384 bytes) plus one
/// directory pointer per page of the array; DESIGN.md §12 states the bound
/// and `memory::tests::a_sparse_home_pays_a_page_per_block_at_most` pins it.
pub const TABLE_PAGE: usize = 8;

/// One page of a [`BlockTable`].
type Page<T> = Box<[T; TABLE_PAGE]>;

/// One array's slots, found by [`Layout::block_ordinal`]: a directory over
/// pages of [`TABLE_PAGE`] ordinals. The directory is sized on the first
/// write and a page is allocated when the first of its slots is written, so
/// an array nothing was written to costs one empty directory.
struct BlockTable<T> {
    pages: Vec<Option<Page<T>>>,
}

impl<T> Default for BlockTable<T> {
    fn default() -> Self {
        BlockTable { pages: Vec::new() }
    }
}

impl<T: Default> BlockTable<T> {
    fn get(&self, ordinal: u64) -> Option<&T> {
        let page = self.pages.get(ordinal as usize / TABLE_PAGE)?.as_deref()?;
        Some(&page[ordinal as usize % TABLE_PAGE])
    }

    fn get_mut(&mut self, ordinal: u64) -> Option<&mut T> {
        let page = (self.pages.get_mut(ordinal as usize / TABLE_PAGE)?).as_deref_mut()?;
        Some(&mut page[ordinal as usize % TABLE_PAGE])
    }

    /// The slot at `ordinal` of an array of `total` blocks, allocating its
    /// page — and on the table's first write, the directory. The program
    /// declares how large that is: a directory that cannot be allocated is
    /// a typed error, not an abort.
    fn slot(&mut self, ordinal: u64, total: u64) -> Result<&mut T, RuntimeError> {
        if self.pages.is_empty() {
            let pages = total.div_ceil(TABLE_PAGE as u64);
            let reserved = usize::try_from(pages)
                .ok()
                .filter(|&n| self.pages.try_reserve_exact(n).is_ok());
            let Some(pages) = reserved else {
                return Err(RuntimeError::PoolExhausted {
                    detail: format!("no room for a block table of {pages} pages"),
                });
            };
            self.pages.resize_with(pages, || None);
        }
        let page = self.pages[ordinal as usize / TABLE_PAGE]
            .get_or_insert_with(|| Box::new(std::array::from_fn(|_| T::default())));
        Ok(&mut page[ordinal as usize % TABLE_PAGE])
    }

    /// Every slot of every allocated page, with its ordinal, in ordinal
    /// order.
    fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        (self.pages.iter_mut().enumerate())
            .filter_map(|(p, page)| Some((p * TABLE_PAGE, page.as_deref_mut()?)))
            .flat_map(|(first, page)| {
                (page.iter_mut().enumerate()).map(move |(i, slot)| ((first + i) as u64, slot))
            })
    }

    fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.pages.iter().enumerate())
            .filter_map(|(p, page)| Some((p * TABLE_PAGE, page.as_deref()?)))
            .flat_map(|(first, page)| {
                (page.iter().enumerate()).map(move |(i, slot)| ((first + i) as u64, slot))
            })
    }

    /// Heap bytes of the directory and the allocated pages.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.pages.capacity() * std::mem::size_of::<Option<Page<T>>>()
            + self.pages.iter().flatten().count() * std::mem::size_of::<[T; TABLE_PAGE]>()
    }
}

/// Everything a home knows about one of its blocks, in one table slot.
#[derive(Debug, Default)]
struct HomeSlot {
    /// The block, or — for a sparse array whose payload fell under the
    /// sparsity threshold — its Frobenius-norm bound (an entry of the norm
    /// table); `None` while nothing was stored.
    block: Option<Payload>,
    /// The last `sip_barrier` epoch a read was served from here and
    /// the last one a Replace-put landed: what the barrier-misuse check
    /// compares against the requester's epoch.
    served: Option<u64>,
    replaced: Option<u64>,
}

/// `key`'s table (its array's index) and ordinal in it, or the typed error
/// of a key outside its array's declared segments.
fn locate(layout: &Layout, key: &BlockKey) -> Result<(usize, u64), RuntimeError> {
    Ok((key.array.index(), layout.ordinal_of(key)?))
}

/// One rank's unified block store: pinned home/local block tables, the
/// byte-LRU cache of remote copies, byte accounting, and budget enforcement.
pub struct BlockManager {
    layout: Arc<Layout>,
    /// Per array: the slots of the blocks homed here (only distributed
    /// arrays' tables are written).
    home: Vec<BlockTable<HomeSlot>>,
    /// Home slots holding a norm record: the norm table's length.
    home_norms: usize,
    /// Per array: the local/static blocks held here.
    local: Vec<BlockTable<Option<BlockHandle>>>,
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
    /// Creates a manager for the arrays of `layout`, with a byte-sized cache
    /// and an optional enforced per-rank budget.
    pub fn new(layout: Arc<Layout>, cache_capacity_bytes: u64, budget: Option<u64>) -> Self {
        let arrays = layout.program.arrays.len();
        BlockManager {
            home: std::iter::repeat_with(BlockTable::default)
                .take(arrays)
                .collect(),
            home_norms: 0,
            local: std::iter::repeat_with(BlockTable::default)
                .take(arrays)
                .collect(),
            layout,
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

    /// What the home holds for `key`, read in `epoch` (a peer's fetch, or
    /// the home's own read): the block (a shared handle — a zero-copy
    /// serve) or its norm record, `None` when nothing was stored. Stamps
    /// the block as served in `epoch`, and says whether a Replace-put
    /// already landed on it in the same epoch.
    pub fn home_fetch(
        &mut self,
        key: BlockKey,
        epoch: u64,
    ) -> Result<(Option<Payload>, bool), RuntimeError> {
        let (array, ordinal) = locate(&self.layout, &key)?;
        let total = self.layout.total_blocks(key.array);
        let slot = self.home[array].slot(ordinal, total)?;
        slot.served = slot.served.max(Some(epoch));
        let replaced = slot.replaced == Some(epoch);
        let held = slot.block.clone();
        if let Some(Payload::Data(h)) = &held {
            self.note_share(h);
        }
        Ok((held, replaced))
    }

    /// Applies a store to the authoritative block for `key`, sent in the
    /// sender's `epoch` — `None` for a restore, which stamps nothing. A
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
        epoch: Option<u64>,
    ) -> Result<bool, RuntimeError> {
        let (array, ordinal) = locate(&self.layout, &key)?;
        let total = self.layout.total_blocks(key.array);
        let slot = self.home[array].slot(ordinal, total)?;
        let replaced_after_read = match epoch {
            Some(epoch) if mode == PutMode::Replace => {
                slot.replaced = slot.replaced.max(Some(epoch));
                slot.served == Some(epoch)
            }
            _ => false,
        };
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
        Ok(replaced_after_read)
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
        let Some(table) = self.home.get_mut(array.index()) else {
            return;
        };
        for (_, slot) in table.iter_mut() {
            match slot.block.take() {
                Some(Payload::Data(h)) => self.pinned_bytes -= h.heap_bytes(),
                Some(Payload::Absent { .. }) => self.home_norms -= 1,
                None => {}
            }
        }
    }

    /// The resident home blocks (with `array` given, only that array's), in
    /// array and ordinal order.
    fn home_blocks(
        &self,
        array: Option<ArrayId>,
    ) -> impl Iterator<Item = (BlockKey, &BlockHandle)> {
        let layout = &self.layout;
        (self.home.iter().enumerate())
            .map(|(a, table)| (ArrayId(a as u32), table))
            .filter(move |(a, _)| array.is_none_or(|want| want == *a))
            .flat_map(move |(a, table)| {
                table
                    .iter()
                    .filter_map(move |(ordinal, slot)| match &slot.block {
                        Some(Payload::Data(h)) => Some((layout.block_key(a, ordinal), h)),
                        _ => None,
                    })
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

    /// Moves every home block out (end-of-run collection) and empties the
    /// home tables, stamps included.
    pub fn drain_home(&mut self) -> Vec<(BlockKey, BlockHandle)> {
        let layout = &self.layout;
        let drained: Vec<(BlockKey, BlockHandle)> = (self.home.iter_mut().enumerate())
            .flat_map(|(a, table)| {
                let array = ArrayId(a as u32);
                table
                    .iter_mut()
                    .filter_map(move |(ordinal, slot)| match slot.block.take() {
                        Some(Payload::Data(h)) => Some((layout.block_key(array, ordinal), h)),
                        _ => None,
                    })
            })
            .collect();
        self.home
            .iter_mut()
            .for_each(|table| *table = BlockTable::default());
        self.home_norms = 0;
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
    pub fn local_share(&mut self, key: &BlockKey) -> Result<Option<BlockHandle>, RuntimeError> {
        let (array, ordinal) = locate(&self.layout, key)?;
        let held = self.local[array].get(ordinal).and_then(Option::clone);
        if let Some(h) = &held {
            self.note_share(h);
        }
        Ok(held)
    }

    /// Inserts (or replaces) a local/static block.
    pub fn local_insert(&mut self, key: BlockKey, data: BlockHandle) -> Result<(), RuntimeError> {
        let (array, ordinal) = locate(&self.layout, &key)?;
        let total = self.layout.total_blocks(key.array);
        let slot = self.local[array].slot(ordinal, total)?;
        self.pinned_bytes += data.heap_bytes();
        if let Some(old) = slot.replace(data) {
            self.pinned_bytes -= old.heap_bytes();
        }
        self.note_usage();
        Ok(())
    }

    /// CoW-mutable access to a local/static block.
    pub fn local_get_mut(
        &mut self,
        key: &BlockKey,
    ) -> Result<Option<&mut BlockHandle>, RuntimeError> {
        let (array, ordinal) = locate(&self.layout, key)?;
        Ok(self.local[array].get_mut(ordinal).and_then(Option::as_mut))
    }

    /// CoW-mutable access, inserting `make()` first if absent (charged).
    pub fn local_mut_or_insert(
        &mut self,
        key: BlockKey,
        make: impl FnOnce() -> BlockHandle,
    ) -> Result<&mut BlockHandle, RuntimeError> {
        if self.local_get_mut(&key)?.is_none() {
            self.local_insert(key, make())?;
        }
        Ok(self.local_get_mut(&key)?.expect("just inserted"))
    }

    /// Takes a local/static block out of the manager (super-instruction
    /// marshalling hands the kernel exclusive ownership).
    pub fn local_take(&mut self, key: &BlockKey) -> Result<Option<BlockHandle>, RuntimeError> {
        let (array, ordinal) = locate(&self.layout, key)?;
        let taken = self.local[array].get_mut(ordinal).and_then(Option::take);
        if let Some(h) = &taken {
            self.pinned_bytes -= h.heap_bytes();
        }
        Ok(taken)
    }

    /// Drops every local/static block of `array` (DELETE).
    pub fn local_remove_array(&mut self, array: ArrayId) {
        let Some(table) = self.local.get_mut(array.index()) else {
            return;
        };
        for (_, slot) in std::mem::take(table).iter_mut() {
            if let Some(h) = slot.take() {
                self.pinned_bytes -= h.heap_bytes();
            }
        }
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
    use crate::layout::{SegmentConfig, Topology};
    use sia_blocks::{Block, Shape};
    use sia_bytecode::{ArrayDecl, ArrayKind, ConstBindings, IndexDecl, IndexId, IndexKind};
    use std::collections::BTreeMap;

    /// A layout over `i = 1..=ni` and `j = 1..=nj` declaring `arrays` as
    /// (name, kind, dims by index id: 0 is `i`, 1 is `j`).
    fn layout_of(
        (ni, nj): (i64, i64),
        arrays: &[(&str, ArrayKind, &[u32])],
        workers: usize,
    ) -> Arc<Layout> {
        let index = |name: &str, high| IndexDecl {
            name: name.into(),
            kind: IndexKind::AoIndex,
            low: sia_bytecode::Value::Lit(1),
            high: sia_bytecode::Value::Lit(high),
        };
        let program = sia_bytecode::Program {
            indices: vec![index("i", ni), index("j", nj)],
            arrays: (arrays.iter())
                .map(|&(name, kind, dims)| ArrayDecl {
                    name: name.into(),
                    kind,
                    dims: dims.iter().map(|&d| IndexId(d)).collect(),
                    sparse: false,
                })
                .collect(),
            ..Default::default()
        };
        let topology = Topology::new(workers, 0);
        let segments = SegmentConfig {
            default: 2,
            ..SegmentConfig::default()
        };
        let layout = Layout::new(Arc::new(program), &ConstBindings::new(), segments, topology);
        Arc::new(layout.unwrap())
    }

    /// Distributed `X(i)` (array 0), local `L(i)` (1) and distributed `C(i)`
    /// (2, for cached copies), `i = 1..=16`.
    fn manager(cache_bytes: u64, budget: Option<u64>) -> BlockManager {
        let arrays: &[(&str, ArrayKind, &[u32])] = &[
            ("X", ArrayKind::Distributed, &[0]),
            ("L", ArrayKind::Local, &[0]),
            ("C", ArrayKind::Distributed, &[0]),
        ];
        let layout = layout_of((16, 1), arrays, 1);
        BlockManager::new(layout, cache_bytes, budget)
    }

    fn key(i: i64) -> BlockKey {
        BlockKey::new(ArrayId(0), &[i])
    }

    /// 64-byte block.
    fn blk(v: f64) -> BlockHandle {
        BlockHandle::new(Block::filled(Shape::new(&[8]), v))
    }

    /// A Replace-put of `payload` in epoch 0.
    fn put(m: &mut BlockManager, k: BlockKey, payload: Payload) {
        m.home_store(k, payload, PutMode::Replace, Some(0)).unwrap();
    }

    fn data(v: f64) -> Payload {
        Payload::Data(blk(v))
    }

    fn norm_of(m: &mut BlockManager, k: &BlockKey) -> Option<f64> {
        match m.home_fetch(*k, 0).unwrap().0 {
            Some(Payload::Absent { norm }) => Some(norm),
            _ => None,
        }
    }

    fn served(m: &mut BlockManager, k: &BlockKey) -> BlockHandle {
        match m.home_fetch(*k, 0).unwrap().0 {
            Some(Payload::Data(h)) => h,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_home_shares_allocation() {
        let mut m = manager(1024, None);
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
        let mut m = manager(1024, None);
        put(&mut m, key(1), data(1.0));
        m.local_insert(BlockKey::new(ArrayId(1), &[1]), blk(2.0))
            .unwrap();
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
        let mut m = manager(1024, None);
        put(&mut m, key(1), data(1.0));
        put(&mut m, key(1), data(2.0));
        assert_eq!(m.stats().pinned_bytes, 64);
    }

    #[test]
    fn budget_pressure_evicts_cache_first() {
        // Budget 192: 128 pinned + up to 64 cached fits; the second cached
        // block pushes resident to 256 and pressure must evict, not error.
        let mut m = manager(1024, Some(192));
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
        let mut m = manager(1024, Some(100));
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
        let mut m = manager(1024, Some(64));
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
        let mut m = manager(1024, None);
        put(&mut m, key(1), data(1.0));
        let snap = m.home_shares(None);
        assert_eq!(snap.len(), 1);
        let authoritative = served(&mut m, &key(1));
        assert!(BlockHandle::ptr_eq(&snap[0].1, &authoritative));
        assert_eq!(m.stats().deep_copies, 0);
    }

    #[test]
    fn norm_table_replaces_payload_and_clears_on_delete() {
        let mut m = manager(1024, None);
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
        let mut m = manager(1024, None);
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
        let mut m = manager(1024, None);
        let k = key(1);
        let store = |m: &mut BlockManager, k, v, mode, epoch| {
            m.home_store(k, data(v), mode, epoch).unwrap()
        };
        assert!(!store(&mut m, k, 1.0, PutMode::Replace, Some(0)));
        let (held, replaced) = m.home_fetch(k, 0).unwrap();
        assert!(matches!(held, Some(Payload::Data(_))));
        assert!(replaced, "read after a Replace in the same epoch");
        assert!(
            store(&mut m, k, 2.0, PutMode::Replace, Some(0)),
            "replaced after a read"
        );
        // An accumulate is never a conflict, and adds in place.
        assert!(!store(&mut m, k, 3.0, PutMode::Accumulate, Some(0)));
        assert_eq!(served(&mut m, &k).data()[0], 5.0);
        assert_eq!(m.stats().pinned_bytes, 64);
        // Next epoch: neither direction remembers the last one.
        assert!(!store(&mut m, k, 1.0, PutMode::Replace, Some(1)));
        let (_, replaced) = m.home_fetch(key(2), 1).unwrap();
        assert!(!replaced, "a never-stored block was never replaced");
        assert!(!m.home_fetch(k, 2).unwrap().1);
        // A fetch of a block nobody stored leaves it unstored.
        assert_eq!(m.home_len(), 1);
    }

    /// The stamps are the requester's epochs and only move forward: a read
    /// from a peer already in the next epoch is no conflict with this
    /// epoch's Replace, a straggler of the older epoch does not pull a stamp
    /// back, and a restore stamps and checks nothing.
    #[test]
    fn stamps_follow_the_requesters_epoch_forward_only() {
        let mut m = manager(1024, None);
        let k = key(3);
        let replace = |m: &mut BlockManager, epoch| {
            m.home_store(k, data(1.0), PutMode::Replace, epoch).unwrap()
        };
        assert!(!replace(&mut m, Some(4)));
        assert!(!m.home_fetch(k, 5).unwrap().1, "a peer one epoch ahead");
        assert!(replace(&mut m, Some(5)), "a same-epoch pair is caught");
        assert!(!m.home_fetch(k, 4).unwrap().1, "a straggler of epoch 4");
        assert!(
            replace(&mut m, Some(5)),
            "the straggler left the stamp at 5"
        );
        assert!(!replace(&mut m, None), "a restore is no conflict");
        assert!(m.home_fetch(k, 5).unwrap().1, "nor does it clear a stamp");
        let fresh = key(4);
        m.home_store(fresh, data(1.0), PutMode::Replace, None)
            .unwrap();
        assert!(
            !m.home_fetch(fresh, 0).unwrap().1,
            "a restore stamps nothing"
        );
    }

    /// Norm records accumulate by the triangle inequality, vanish under a
    /// resident block, and give way to a real payload.
    #[test]
    fn absent_accumulates_follow_the_screening_rules() {
        let mut m = manager(1024, None);
        let acc = |m: &mut BlockManager, p| {
            m.home_store(key(1), p, PutMode::Accumulate, Some(0))
                .unwrap()
        };
        acc(&mut m, Payload::Absent { norm: 0.5 });
        acc(&mut m, Payload::Absent { norm: 0.25 });
        assert_eq!(norm_of(&mut m, &key(1)), Some(0.75));
        acc(&mut m, data(2.0));
        assert_eq!(served(&mut m, &key(1)).data()[0], 2.0);
        acc(&mut m, Payload::Absent { norm: 9.0 });
        assert_eq!(served(&mut m, &key(1)).data()[0], 2.0);
        assert_eq!(m.norm_table_bytes(), 0);
    }

    /// A key outside its array's declared segments — past either end, or of
    /// the wrong rank — is a typed error on every home and local access,
    /// and leaves nothing behind: no slot, no page, no bytes.
    #[test]
    fn keys_outside_the_declared_segments_are_typed_errors() {
        let mut m = manager(1024, None);
        let local = |i: i64| BlockKey::new(ArrayId(1), &[i]);
        for (home, local) in [
            (key(0), local(0)),
            (key(17), local(17)),
            (
                BlockKey::new(ArrayId(0), &[1, 1]),
                BlockKey::new(ArrayId(1), &[]),
            ),
        ] {
            let out_of_range = |r: Result<(), RuntimeError>| {
                assert!(
                    matches!(r, Err(RuntimeError::BlockOutOfRange { .. })),
                    "{home:?}/{local:?}: {r:?}"
                );
            };
            out_of_range(m.home_fetch(home, 0).map(drop));
            out_of_range(
                m.home_store(home, data(1.0), PutMode::Replace, Some(0))
                    .map(drop),
            );
            out_of_range(m.local_insert(local, blk(1.0)));
            out_of_range(m.local_share(&local).map(drop));
            out_of_range(m.local_get_mut(&local).map(drop));
            out_of_range(m.local_mut_or_insert(local, || blk(1.0)).map(drop));
            out_of_range(m.local_take(&local).map(drop));
        }
        assert!(m.home.iter().all(|t| t.pages.is_empty()));
        assert!(m.local.iter().all(|t| t.pages.is_empty()));
        assert_eq!(m.stats().pinned_bytes, 0);
        let err = m.home_fetch(key(17), 0).unwrap_err().to_string();
        assert!(err.contains("`X`") && err.contains("outside"), "{err}");
    }

    /// The table costs a worker at most one page per block it homes plus a
    /// pointer per page of the array (DESIGN.md §12): a worker homing a
    /// scattered sixteenth of a 96×96-block array — one block in 16 by
    /// `placement_hash`, the kind of set the rehash after a rank's death
    /// hands out — stays within that and under the dense table, and an
    /// array it homes nothing of costs an empty directory.
    #[test]
    fn a_sparse_home_pays_a_page_per_block_at_most() {
        assert_eq!(std::mem::size_of::<[HomeSlot; TABLE_PAGE]>(), 384);
        let arrays: &[(&str, ArrayKind, &[u32])] = &[
            ("A", ArrayKind::Distributed, &[0, 1]),
            ("B", ArrayKind::Distributed, &[0, 1]),
        ];
        let layout = layout_of((96, 96), arrays, 16);
        let mut m = BlockManager::new(Arc::clone(&layout), 1024, None);
        let total = layout.total_blocks(ArrayId(0));
        let block = blk(1.0);
        let mut homed = 0;
        for ordinal in 0..total {
            let key = layout.block_key(ArrayId(0), ordinal);
            if key.placement_hash().is_multiple_of(16) {
                let fetched = ordinal % 2 == 0;
                if fetched {
                    m.home_fetch(key, 0).unwrap();
                } else {
                    m.home_store(key, Payload::Data(block.clone()), PutMode::Replace, Some(0))
                        .unwrap();
                }
                homed += 1;
            }
        }
        assert!((400..800).contains(&homed), "a sixteenth of 9216: {homed}");
        let pages = total.div_ceil(TABLE_PAGE as u64) as usize;
        let bound = homed * std::mem::size_of::<[HomeSlot; TABLE_PAGE]>()
            + pages * std::mem::size_of::<Option<Page<HomeSlot>>>();
        let bytes = m.home[0].heap_bytes();
        assert!(bytes <= bound, "{bytes} table bytes over the bound {bound}");
        let dense = total as usize * std::mem::size_of::<HomeSlot>();
        assert!(
            bytes < dense,
            "{bytes} table bytes, {dense} for a dense table"
        );
        assert_eq!(m.home[1].heap_bytes(), 0, "nothing homed, nothing paid");
    }

    /// A block's value in the model: a block filled with one value, or a norm
    /// record.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Val {
        Data(f64),
        Absent(f64),
    }

    /// What the model keeps per home key: the table's slot, spelled out.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct ModelSlot {
        block: Option<Val>,
        served: Option<u64>,
        replaced: Option<u64>,
    }

    fn val_of(p: &Payload) -> Val {
        match p {
            Payload::Data(h) => Val::Data(h.data()[0]),
            Payload::Absent { norm } => Val::Absent(*norm),
        }
    }

    /// Every non-empty home slot of `m`, by key.
    fn home_slots(m: &BlockManager) -> BTreeMap<BlockKey, ModelSlot> {
        let mut slots = BTreeMap::new();
        for (a, table) in m.home.iter().enumerate() {
            for (ordinal, slot) in table.iter() {
                let seen = ModelSlot {
                    block: slot.block.as_ref().map(val_of),
                    served: slot.served,
                    replaced: slot.replaced,
                };
                if seen != ModelSlot::default() {
                    slots.insert(m.layout.block_key(ArrayId(a as u32), ordinal), seen);
                }
            }
        }
        slots
    }

    /// Random sequences of every home and local operation, on layouts of 1,
    /// 2 and 16 workers, against a `BTreeMap` model:
    /// the blocks and stamps of every slot, the pinned bytes, the norm
    /// count and the keys returned agree after every step, and a key
    /// outside the declared segments is refused without a trace.
    #[test]
    fn the_block_tables_follow_a_btreemap_model() {
        const ELEMS: usize = 2;
        let arrays: &[(&str, ArrayKind, &[u32])] = &[
            ("X", ArrayKind::Distributed, &[0, 1]),
            ("Y", ArrayKind::Distributed, &[1]),
            ("L", ArrayKind::Local, &[0, 1]),
        ];
        let (ni, nj) = (24, 6);
        let filled = |v: f64| BlockHandle::new(Block::filled(Shape::new(&[ELEMS]), v));
        let mut cases = 0;
        for workers in [1, 2, 16] {
            let layout = layout_of((ni, nj), arrays, workers);
            // The keys worker 0 homes, and the local keys.
            let keys = |array: u32| -> Vec<BlockKey> {
                let array = ArrayId(array);
                (0..layout.total_blocks(array))
                    .map(|o| layout.block_key(array, o))
                    .collect()
            };
            let homed: Vec<BlockKey> = (keys(0).into_iter().chain(keys(1)))
                .filter(|k| layout.slot_of_distributed(k) == 0)
                .collect();
            let locals = keys(2);
            let outside = [
                BlockKey::new(ArrayId(0), &[0, 1]),
                BlockKey::new(ArrayId(0), &[ni + 1, 1]),
                BlockKey::new(ArrayId(0), &[1, nj + 1]),
                BlockKey::new(ArrayId(1), &[nj + 1]),
                BlockKey::new(ArrayId(1), &[1, 1]),
                BlockKey::new(ArrayId(2), &[1, 0]),
            ];
            for case in 0..8 {
                cases += 1;
                let mut rng = proptest::TestRng::for_case(&format!("tables/{workers}"), case);
                let mut m = BlockManager::new(Arc::clone(&layout), 1024, None);
                let mut home: BTreeMap<BlockKey, ModelSlot> = BTreeMap::new();
                let mut local: BTreeMap<BlockKey, f64> = BTreeMap::new();
                let mut epoch = 0u64;
                for step in 0..600 {
                    let ctx = format!("{workers} workers, case {case}, step {step}");
                    let pick = |rng: &mut proptest::TestRng, from: &[BlockKey]| {
                        from[rng.below(from.len() as u64) as usize]
                    };
                    if rng.below(10) == 0 {
                        // Outside the declared segments: refused, and
                        // nothing changes.
                        let key = pick(&mut rng, &outside);
                        let refused = match rng.below(3) {
                            0 => m.home_fetch(key, epoch).is_err(),
                            1 => (m.home_store(
                                key,
                                Payload::Data(filled(1.0)),
                                PutMode::Replace,
                                Some(epoch),
                            ))
                            .is_err(),
                            _ => m.local_insert(key, filled(1.0)).is_err(),
                        };
                        assert!(refused, "{ctx}: {key:?} accepted");
                    } else if homed.is_empty() {
                        continue;
                    } else {
                        // A peer may run an epoch ahead of this home.
                        let at = epoch + rng.below(2);
                        match rng.below(20) {
                            0..=5 => {
                                let key = pick(&mut rng, &homed);
                                let mode = if rng.below(2) == 0 {
                                    PutMode::Replace
                                } else {
                                    PutMode::Accumulate
                                };
                                let val = if rng.below(3) == 0 {
                                    Val::Absent(0.25 * (1 + rng.below(4)) as f64)
                                } else {
                                    Val::Data((1 + rng.below(4)) as f64)
                                };
                                let stamp = (rng.below(8) != 0).then_some(at);
                                let payload = match val {
                                    Val::Data(v) => Payload::Data(filled(v)),
                                    Val::Absent(norm) => Payload::Absent { norm },
                                };
                                let got = m.home_store(key, payload, mode, stamp).unwrap();
                                let slot = home.entry(key).or_default();
                                let want = match stamp {
                                    Some(e) if mode == PutMode::Replace => {
                                        slot.replaced = slot.replaced.max(Some(e));
                                        slot.served == Some(e)
                                    }
                                    _ => false,
                                };
                                assert_eq!(got, want, "{ctx}: conflict of {key:?}");
                                slot.block = match (val, mode, slot.block) {
                                    (Val::Data(v), PutMode::Accumulate, Some(Val::Data(h))) => {
                                        Some(Val::Data(h + v))
                                    }
                                    (Val::Absent(_), PutMode::Accumulate, Some(Val::Data(h))) => {
                                        Some(Val::Data(h))
                                    }
                                    (Val::Absent(n), PutMode::Accumulate, Some(Val::Absent(p))) => {
                                        Some(Val::Absent(p + n))
                                    }
                                    (val, _, _) => Some(val),
                                };
                            }
                            6..=10 => {
                                let key = pick(&mut rng, &homed);
                                let (held, replaced) = m.home_fetch(key, at).unwrap();
                                let slot = home.entry(key).or_default();
                                slot.served = slot.served.max(Some(at));
                                assert_eq!(held.as_ref().map(val_of), slot.block, "{ctx}");
                                assert_eq!(replaced, slot.replaced == Some(at), "{ctx}");
                            }
                            11 => {
                                let array = ArrayId(rng.below(2) as u32);
                                m.home_remove_array(array);
                                for (_, slot) in home
                                    .range_mut(BlockKey::new(array, &[])..)
                                    .take_while(|(k, _)| k.array == array)
                                {
                                    slot.block = None;
                                }
                            }
                            12 => {
                                let array = match rng.below(3) {
                                    0 => None,
                                    a => Some(ArrayId(a as u32 - 1)),
                                };
                                let shares: Vec<(BlockKey, Val)> = (m.home_shares(array))
                                    .iter()
                                    .map(|(k, h)| (*k, Val::Data(h.data()[0])))
                                    .collect();
                                let want: Vec<(BlockKey, Val)> = (home.iter())
                                    .filter(|(k, _)| array.is_none_or(|a| k.array == a))
                                    .filter_map(|(k, s)| match s.block {
                                        Some(v @ Val::Data(_)) => Some((*k, v)),
                                        _ => None,
                                    })
                                    .collect();
                                assert_eq!(shares, want, "{ctx}: shares of {array:?}");
                            }
                            13 => {
                                if rng.below(8) == 0 {
                                    let drained: Vec<(BlockKey, Val)> = (m.drain_home())
                                        .iter()
                                        .map(|(k, h)| (*k, Val::Data(h.data()[0])))
                                        .collect();
                                    let want: Vec<(BlockKey, Val)> = (home.iter())
                                        .filter_map(|(k, s)| match s.block {
                                            Some(v @ Val::Data(_)) => Some((*k, v)),
                                            _ => None,
                                        })
                                        .collect();
                                    assert_eq!(drained, want, "{ctx}: drained");
                                    home.clear();
                                } else {
                                    epoch += 1;
                                }
                            }
                            14..=16 => {
                                let key = pick(&mut rng, &locals);
                                let v = (1 + rng.below(4)) as f64;
                                m.local_insert(key, filled(v)).unwrap();
                                local.insert(key, v);
                            }
                            17 => {
                                let key = pick(&mut rng, &locals);
                                let taken = m.local_take(&key).unwrap();
                                let want = local.remove(&key);
                                assert_eq!(taken.map(|h| h.data()[0]), want, "{ctx}");
                            }
                            18 => {
                                let key = pick(&mut rng, &locals);
                                let shared = m.local_share(&key).unwrap();
                                let want = local.get(&key).copied();
                                assert_eq!(shared.map(|h| h.data()[0]), want, "{ctx}");
                            }
                            _ => {
                                m.local_remove_array(ArrayId(2));
                                local.clear();
                            }
                        }
                    }
                    home.retain(|_, slot| *slot != ModelSlot::default());
                    assert_eq!(home_slots(&m), home, "{ctx}: slots");
                    let data = home
                        .values()
                        .filter(|s| matches!(s.block, Some(Val::Data(_))));
                    let norms = home
                        .values()
                        .filter(|s| matches!(s.block, Some(Val::Absent(_))));
                    let pinned = (data.count() + local.len()) * ELEMS * 8;
                    assert_eq!(m.stats().pinned_bytes, pinned as u64, "{ctx}: pinned");
                    assert_eq!(
                        m.norm_table_bytes(),
                        norms.count() as u64 * crate::dryrun::NORM_TABLE_ENTRY_BYTES,
                        "{ctx}: norms"
                    );
                }
            }
        }
        assert_eq!(cases, 24);
    }
}
