//! The worker block cache.
//!
//! Fetched remote blocks land here; a block "may be available … because it is
//! still available in the block cache from a recent use. Replacement is done
//! using a LRU strategy." Entries are either [`CacheEntry::Ready`] or
//! [`CacheEntry::InFlight`] (a get/request/prefetch has been issued and the
//! data has not arrived yet). In-flight entries are never evicted — evicting
//! them would strand the arriving reply.
//!
//! Zero-copy delivery makes "is this block still in use?" subtle: an
//! in-process fill *shares* the home rank's allocation, so the `Arc` holder
//! count of a perfectly idle cached copy is already ≥ 2. Each ready entry
//! therefore records the holder count observed when its data arrived (the
//! delivery baseline: the cache itself, the home pin, FT journal shares).
//! Only a holder acquired *afterwards* — the instruction currently reading
//! the block through `lookup` — raises the live count above that baseline
//! and pins the entry against eviction: prefetch pressure must not recycle
//! a block the current instruction is reading, but the home rank keeping
//! its own authoritative copy alive must not make the cache un-evictable.
//!
//! Capacity is accounted in **bytes**, not entry count, so arrays with
//! different block shapes share the cache fairly and the dry-run's
//! `cache_blocks × largest_remote_block` sizing is exact.
//!
//! The counters distinguish hits, misses, and *refetches* (a block that was
//! evicted and had to be fetched again) — the metric behind the paper's
//! BlueGene/P anecdote, where over-eager prefetching caused "eviction and
//! refetching of blocks that would be reused". Refetch detection uses a
//! fixed-size hash filter (8 KiB, one bit per hash bucket) rather than a
//! per-key map, so its memory no longer grows with the number of distinct
//! keys ever fetched; hash collisions can at worst over-count refetches on
//! huge key populations, and the counter is diagnostic only.

use crate::msg::{BlockKey, Payload};
use sia_blocks::BlockHandle;
use std::collections::HashMap;

/// State of one cached block.
#[derive(Debug)]
pub enum CacheEntry {
    /// The data has arrived.
    Ready(BlockHandle),
    /// A fetch is outstanding.
    InFlight,
    /// The home rank answered that the block is absent (exactly zero) from a
    /// sparse array. Carries the Frobenius-norm bound recorded when the
    /// block was dropped, so screening can reuse it without a refetch.
    /// Holds no payload bytes and is never evicted for capacity; a barrier
    /// invalidation removes it like any ready copy (a later put can make
    /// the block real again).
    Absent { norm: f64 },
}

/// Outcome of a typed block lookup through the block-access facade.
///
/// Replaces the old `Option<BlockHandle>` shape: absence of data no longer
/// means "materialize zeros", it is a first-class answer. `AbsentZero` is
/// only produced for arrays declared `sparse`; dense arrays still
/// materialize zero blocks on first touch and always return `Ready`.
#[derive(Debug, Clone)]
pub enum BlockGet {
    /// The block's data is resident; the handle shares the cached (or
    /// home-pinned) allocation.
    Ready(BlockHandle),
    /// The block is absent from a sparse array — exactly zero. `norm` is
    /// the Frobenius-norm bound under which the payload was dropped
    /// (strictly below the run's sparsity threshold).
    AbsentZero {
        /// Frobenius-norm bound of the dropped payload.
        norm: f64,
    },
    /// A fetch is outstanding; the caller must wait for the reply.
    Pending,
}

impl BlockGet {
    /// True when data is resident.
    pub fn is_ready(&self) -> bool {
        matches!(self, BlockGet::Ready(_))
    }

    /// True when the block is typed-absent (exactly zero).
    pub fn is_absent(&self) -> bool {
        matches!(self, BlockGet::AbsentZero { .. })
    }
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied by a ready entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups that found an in-flight entry (wait, not re-issue).
    pub in_flight_hits: u64,
    /// Evictions performed to make room.
    pub evictions: u64,
    /// Fetches of a key that had been evicted earlier in the run.
    pub refetches: u64,
    /// In-flight entries whose fetch was re-issued (reply presumed lost).
    pub reissues: u64,
}

/// Fixed-size one-bit-per-bucket filter remembering which keys have ever
/// been fetched, for refetch detection with bounded memory.
struct RefetchFilter {
    bits: Box<[u64]>,
}

const REFETCH_FILTER_BITS: usize = 1 << 16;

impl RefetchFilter {
    fn new() -> Self {
        RefetchFilter {
            bits: vec![0u64; REFETCH_FILTER_BITS / 64].into_boxed_slice(),
        }
    }

    /// Sets the key's bucket; returns whether it was already set.
    fn test_and_set(&mut self, key: &BlockKey) -> bool {
        let h = key.placement_hash() as usize & (REFETCH_FILTER_BITS - 1);
        let (word, bit) = (h / 64, h % 64);
        let was = (self.bits[word] >> bit) & 1 == 1;
        self.bits[word] |= 1 << bit;
        was
    }
}

/// One resident entry plus its LRU stamp and delivery baseline.
struct Slot {
    entry: CacheEntry,
    /// LRU clock stamp of the last touch.
    stamp: u64,
    /// Holder count of the handle when the data arrived. Holders acquired
    /// later (a consumer reading through `lookup`) push the live count above
    /// this and protect the entry; the delivery shares themselves (home pin,
    /// journal copy) do not.
    base_holders: usize,
}

/// A byte-accounted LRU cache of block handles keyed by [`BlockKey`].
pub struct BlockCache {
    capacity_bytes: u64,
    map: HashMap<BlockKey, Slot>,
    clock: u64,
    ready_bytes: u64,
    ever_fetched: RefetchFilter,
    stats: CacheStats,
    /// Evicted `(key, bytes)` pairs since the last drain — `None` (and never
    /// allocated) unless the tracer asked for it.
    evict_log: Option<Vec<(BlockKey, u64)>>,
}

impl BlockCache {
    /// Creates a cache holding at most `capacity_bytes` of ready block data.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "cache capacity must be positive");
        BlockCache {
            capacity_bytes,
            map: HashMap::new(),
            clock: 0,
            ready_bytes: 0,
            ever_fetched: RefetchFilter::new(),
            stats: CacheStats::default(),
            evict_log: None,
        }
    }

    /// Starts logging evictions (for the event tracer). Off by default so
    /// the eviction path never allocates on untraced runs.
    pub fn enable_evict_log(&mut self) {
        self.evict_log.get_or_insert_with(Vec::new);
    }

    /// Takes the evictions logged since the last drain (empty when the log
    /// was never enabled).
    pub fn drain_evictions(&mut self) -> Vec<(BlockKey, u64)> {
        match self.evict_log.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks up a block, refreshing its LRU position. Returns `None` on miss.
    pub fn lookup(&mut self, key: &BlockKey) -> Option<&CacheEntry> {
        let t = self.tick();
        match self.map.get_mut(key) {
            Some(slot) => {
                slot.stamp = t;
                match &slot.entry {
                    CacheEntry::Ready(_) | CacheEntry::Absent { .. } => self.stats.hits += 1,
                    CacheEntry::InFlight => self.stats.in_flight_hits += 1,
                }
                Some(&slot.entry)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peeks without touching LRU order or counters.
    pub fn peek(&self, key: &BlockKey) -> Option<&CacheEntry> {
        self.map.get(key).map(|s| &s.entry)
    }

    /// Marks a fetch as outstanding (no-op if the key is already present).
    /// Returns true if a new in-flight entry was created (i.e. the caller
    /// should actually issue the fetch). In-flight entries carry no data, so
    /// no room is made until the reply arrives.
    pub fn mark_in_flight(&mut self, key: BlockKey) -> bool {
        if self.map.contains_key(&key) {
            return false;
        }
        // A fresh in-flight entry is a cold lookup (the prefetcher asked for
        // a block the cache does not hold), so it counts as a miss.
        self.stats.misses += 1;
        if self.ever_fetched.test_and_set(&key) {
            self.stats.refetches += 1;
        }
        let t = self.tick();
        self.map.insert(
            key,
            Slot {
                entry: CacheEntry::InFlight,
                stamp: t,
                base_holders: 0,
            },
        );
        true
    }

    /// Re-arms an in-flight entry whose reply is presumed lost, so the
    /// caller can re-issue the fetch. Returns true when the entry exists and
    /// is in flight (LRU position refreshed — the re-issued fetch is the
    /// most recent interest in the block); a ready or absent entry returns
    /// false and is left untouched. This is what makes `InFlight` tolerate
    /// re-issue: a duplicate reply later simply re-fills a ready entry.
    pub fn refresh_in_flight(&mut self, key: &BlockKey) -> bool {
        let t = self.tick();
        match self.map.get_mut(key) {
            Some(Slot {
                entry: CacheEntry::InFlight,
                stamp,
                ..
            }) => {
                *stamp = t;
                self.stats.reissues += 1;
                true
            }
            _ => false,
        }
    }

    /// Stores an arrived reply, completing an in-flight entry (or inserting
    /// fresh — e.g. a block pushed by a multicasting peer). A data handle is
    /// shared with the sender's allocation; no copy is made here. A
    /// typed-absent answer carries no payload bytes, so no room is made.
    ///
    /// A `Ready` entry is never demoted by an absent answer: with envelope
    /// batching, a norm record for a key can legitimately arrive *after*
    /// the real payload it was screened before (the two travelled in
    /// different envelopes, or a retried multicast hop raced a demand
    /// fetch). The payload is the newer truth within an epoch — barrier
    /// invalidation removes the entry, so a genuinely newer absence always
    /// starts from an empty slot.
    pub fn fill(&mut self, key: BlockKey, payload: Payload) {
        // The delivery baseline is read while the handle is still this
        // local binding, standing in for the slot that will hold it, so the
        // count is exactly the shares that came with the data (home pin,
        // journal copy), not a consumer's.
        let (entry, incoming, base) = match payload {
            Payload::Data(data) => {
                let (bytes, base) = (data.heap_bytes(), data.holders());
                (CacheEntry::Ready(data), Some(bytes), base)
            }
            Payload::Absent { norm } => (CacheEntry::Absent { norm }, None, 0),
        };
        let t = self.tick();
        match self.map.get_mut(&key) {
            Some(slot) => {
                if let CacheEntry::Ready(old) = &slot.entry {
                    if incoming.is_none() {
                        return;
                    }
                    self.ready_bytes -= old.heap_bytes();
                }
                *slot = Slot {
                    entry,
                    stamp: t,
                    base_holders: base,
                };
            }
            None => {
                self.ever_fetched.test_and_set(&key);
                self.map.insert(
                    key,
                    Slot {
                        entry,
                        stamp: t,
                        base_holders: base,
                    },
                );
            }
        }
        if let Some(bytes) = incoming {
            self.ready_bytes += bytes;
            self.make_room_keeping(Some(&key));
        }
    }

    /// Removes a specific entry (e.g. after a barrier invalidates cached
    /// copies of an array).
    pub fn invalidate(&mut self, key: &BlockKey) {
        if let Some(Slot {
            entry: CacheEntry::Ready(h),
            ..
        }) = self.map.remove(key)
        {
            self.ready_bytes -= h.heap_bytes();
        }
    }

    /// Drops every *ready* entry belonging to `array` (in-flight entries stay:
    /// the reply will still arrive and refill them).
    pub fn invalidate_array(&mut self, array: sia_bytecode::ArrayId) {
        let bytes = &mut self.ready_bytes;
        self.map.retain(|k, slot| {
            if k.array != array {
                return true;
            }
            match &slot.entry {
                CacheEntry::InFlight => true,
                CacheEntry::Ready(h) => {
                    *bytes -= h.heap_bytes();
                    false
                }
                // A later put can make an absent block real; barrier
                // invalidation drops the cached absence like any copy.
                CacheEntry::Absent { .. } => false,
            }
        });
    }

    /// Evicts least-recently-used ready entries until at or under capacity,
    /// sparing `keep` — the entry a fill just completed, which a get may be
    /// waiting on and no consumer has had a chance to hold yet. In-flight
    /// entries and entries a consumer acquired a hold on after delivery are
    /// never evicted; if only those remain, the cache overshoots
    /// temporarily rather than stranding a reply or a live reference.
    fn make_room_keeping(&mut self, keep: Option<&BlockKey>) {
        let _ = self.evict_until_keeping(self.capacity_bytes, keep);
    }

    /// Evicts consumer-free ready entries (LRU-first) until `target_bytes`
    /// of ready data remain (or nothing evictable is left). An entry is
    /// consumer-free when its handle has no holders beyond the delivery
    /// baseline recorded at fill time. Returns the bytes freed. Exposed so
    /// the block manager can apply budget pressure beyond ordinary capacity
    /// replacement.
    pub fn evict_until(&mut self, target_bytes: u64) -> u64 {
        self.evict_until_keeping(target_bytes, None)
    }

    fn evict_until_keeping(&mut self, target_bytes: u64, keep: Option<&BlockKey>) -> u64 {
        let mut freed = 0;
        while self.ready_bytes > target_bytes {
            let victim = self
                .map
                .iter()
                .filter(|(k, s)| {
                    keep != Some(*k)
                        && matches!(&s.entry, CacheEntry::Ready(h) if h.holders() <= s.base_holders)
                })
                .min_by_key(|(_, s)| s.stamp)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    if let Some(Slot {
                        entry: CacheEntry::Ready(h),
                        ..
                    }) = self.map.remove(&k)
                    {
                        let b = h.heap_bytes();
                        self.ready_bytes -= b;
                        freed += b;
                        if let Some(log) = self.evict_log.as_mut() {
                            log.push((k, b));
                        }
                    }
                    self.stats.evictions += 1;
                }
                // Everything left is in flight or held by a live consumer;
                // allow temporary overshoot rather than deadlock.
                None => break,
            }
        }
        freed
    }

    /// Number of resident entries (ready + in flight).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes of ready block data currently resident.
    pub fn ready_bytes(&self) -> u64 {
        self.ready_bytes
    }

    /// The configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_blocks::{Block, Shape};
    use sia_bytecode::ArrayId;

    fn key(i: i64) -> BlockKey {
        BlockKey::new(ArrayId(0), &[i])
    }

    /// A 2-element block: 16 bytes of payload.
    fn blk(v: f64) -> BlockHandle {
        BlockHandle::new(Block::filled(Shape::new(&[2]), v))
    }

    fn data(v: f64) -> Payload {
        Payload::Data(blk(v))
    }

    const B: u64 = 16;

    #[test]
    fn fill_then_hit() {
        let mut c = BlockCache::new(4 * B);
        c.fill(key(1), data(1.0));
        match c.lookup(&key(1)) {
            Some(CacheEntry::Ready(b)) => assert_eq!(b.data()[0], 1.0),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.ready_bytes(), B);
    }

    #[test]
    fn miss_counted() {
        let mut c = BlockCache::new(4 * B);
        assert!(c.lookup(&key(9)).is_none());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = BlockCache::new(2 * B);
        c.fill(key(1), data(1.0));
        c.fill(key(2), data(2.0));
        // Touch 1 so 2 becomes LRU.
        let _ = c.lookup(&key(1));
        c.fill(key(3), data(3.0));
        assert!(c.peek(&key(2)).is_none(), "LRU entry evicted");
        assert!(c.peek(&key(1)).is_some());
        assert!(c.peek(&key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.ready_bytes(), 2 * B);
    }

    #[test]
    fn byte_accurate_eviction_mixed_sizes() {
        // One large block displaces several small ones — entry-count LRU
        // would keep them all and blow the byte budget.
        let small = |v| BlockHandle::new(Block::filled(Shape::new(&[2]), v)); // 16 B
        let large = BlockHandle::new(Block::filled(Shape::new(&[12]), 9.0)); // 96 B
        let mut c = BlockCache::new(8 * B); // 128 B
        for i in 0..4 {
            c.fill(key(i), Payload::Data(small(i as f64)));
        }
        assert_eq!(c.ready_bytes(), 4 * B);
        c.fill(key(100), Payload::Data(large));
        // 64 + 96 = 160 > 128: the two oldest small blocks must go.
        assert_eq!(c.ready_bytes(), 2 * B + 96);
        assert!(c.peek(&key(0)).is_none());
        assert!(c.peek(&key(1)).is_none());
        assert!(c.peek(&key(2)).is_some());
        assert!(c.peek(&key(3)).is_some());
        assert!(c.peek(&key(100)).is_some());
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn consumer_held_entries_pinned_against_eviction() {
        // A handle the "current instruction" acquired *after* delivery is
        // never evicted, even under pressure — the prefetch-vs-working-set
        // guarantee.
        let mut c = BlockCache::new(2 * B);
        c.fill(key(1), data(1.0));
        let held = match c.lookup(&key(1)) {
            Some(CacheEntry::Ready(h)) => h.clone(), // consumer takes a hold
            other => panic!("{other:?}"),
        };
        c.fill(key(2), data(2.0));
        c.fill(key(3), data(3.0)); // pressure: must evict, but not key 1
        assert!(c.peek(&key(1)).is_some(), "held entry survived");
        assert!(c.peek(&key(2)).is_none(), "consumer-free LRU entry evicted");
        drop(held);
        c.fill(key(4), data(4.0)); // key 1 back at its baseline → evictable
        assert!(c.peek(&key(1)).is_none());
        assert_eq!(c.ready_bytes(), 2 * B);
    }

    #[test]
    fn delivery_shares_do_not_pin() {
        // An in-process fill shares the home rank's allocation, so the
        // handle is "shared" from the moment it arrives. Those delivery
        // shares are the baseline, not a consumer hold: the entry must stay
        // evictable or a zero-copy fabric would make the cache unbounded.
        let home_pin = blk(1.0); // stands in for the home rank's copy
        let mut c = BlockCache::new(2 * B);
        c.fill(key(1), Payload::Data(home_pin.clone()));
        c.fill(key(2), data(2.0));
        c.fill(key(3), data(3.0)); // pressure: key 1 is LRU and evictable
        assert!(c.peek(&key(1)).is_none(), "delivery share did not pin");
        assert!(c.peek(&key(2)).is_some());
        assert!(c.peek(&key(3)).is_some());
        assert_eq!(c.ready_bytes(), 2 * B);
        assert!(
            home_pin.data().iter().all(|&v| v == 1.0),
            "home copy intact"
        );
    }

    #[test]
    fn in_flight_never_evicted() {
        let mut c = BlockCache::new(2 * B);
        assert!(c.mark_in_flight(key(1)));
        assert!(c.mark_in_flight(key(2)));
        // In-flight entries hold no bytes; a fill coexists with them.
        c.fill(key(3), data(3.0));
        assert_eq!(c.len(), 3);
        assert!(c.peek(&key(1)).is_some());
        assert!(c.peek(&key(2)).is_some());
    }

    #[test]
    fn mark_in_flight_dedups() {
        let mut c = BlockCache::new(4 * B);
        assert!(c.mark_in_flight(key(1)));
        assert!(!c.mark_in_flight(key(1)), "second mark is a no-op");
        c.fill(key(1), data(1.0));
        assert!(!c.mark_in_flight(key(1)), "ready entry needs no fetch");
    }

    #[test]
    fn refetch_counted() {
        let mut c = BlockCache::new(B);
        c.fill(key(1), data(1.0));
        c.fill(key(2), data(2.0)); // evicts 1
        assert!(c.mark_in_flight(key(1)), "must fetch again");
        assert_eq!(c.stats().refetches, 1);
    }

    #[test]
    fn fill_completes_in_flight() {
        let mut c = BlockCache::new(2 * B);
        c.mark_in_flight(key(1));
        assert!(matches!(c.peek(&key(1)), Some(CacheEntry::InFlight)));
        c.fill(key(1), data(5.0));
        assert!(matches!(c.peek(&key(1)), Some(CacheEntry::Ready(_))));
        assert_eq!(c.len(), 1);
        assert_eq!(c.ready_bytes(), B);
    }

    #[test]
    fn invalidate_array_spares_in_flight() {
        let mut c = BlockCache::new(4 * B);
        c.fill(BlockKey::new(ArrayId(0), &[1]), data(1.0));
        c.fill(BlockKey::new(ArrayId(1), &[1]), data(2.0));
        c.mark_in_flight(BlockKey::new(ArrayId(0), &[2]));
        c.invalidate_array(ArrayId(0));
        assert!(c.peek(&BlockKey::new(ArrayId(0), &[1])).is_none());
        assert!(c.peek(&BlockKey::new(ArrayId(0), &[2])).is_some());
        assert!(c.peek(&BlockKey::new(ArrayId(1), &[1])).is_some());
        assert_eq!(c.ready_bytes(), B, "bytes credited on invalidation");
    }

    #[test]
    fn in_flight_tolerates_reissue() {
        let mut c = BlockCache::new(4 * B);
        assert!(c.mark_in_flight(key(1)));
        // The reply was dropped; the retry layer re-arms the entry instead
        // of being refused by mark_in_flight.
        assert!(!c.mark_in_flight(key(1)));
        assert!(c.refresh_in_flight(&key(1)), "in-flight entry re-armed");
        assert_eq!(c.stats().reissues, 1);
        // The re-issued fetch's reply (or a late duplicate of the original)
        // completes the entry as usual …
        c.fill(key(1), data(7.0));
        assert!(matches!(c.peek(&key(1)), Some(CacheEntry::Ready(_))));
        // … and a second, duplicated reply just refreshes it.
        c.fill(key(1), data(7.0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.ready_bytes(), B, "duplicate fill does not double-count");
        // Ready and absent entries refuse the re-arm.
        assert!(!c.refresh_in_flight(&key(1)));
        assert!(!c.refresh_in_flight(&key(2)));
        assert_eq!(c.stats().reissues, 1);
    }

    #[test]
    fn in_flight_lookup_counted_separately() {
        let mut c = BlockCache::new(2 * B);
        c.mark_in_flight(key(1));
        assert!(matches!(c.lookup(&key(1)), Some(CacheEntry::InFlight)));
        assert_eq!(c.stats().in_flight_hits, 1);
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn evict_until_frees_and_reports() {
        let mut c = BlockCache::new(8 * B);
        for i in 0..6 {
            c.fill(key(i), data(i as f64));
        }
        let freed = c.evict_until(2 * B);
        assert_eq!(freed, 4 * B);
        assert_eq!(c.ready_bytes(), 2 * B);
        // Oldest went first.
        assert!(c.peek(&key(0)).is_none());
        assert!(c.peek(&key(5)).is_some());
    }

    #[test]
    fn absent_completes_in_flight_and_counts_hit() {
        let mut c = BlockCache::new(2 * B);
        c.mark_in_flight(key(1));
        c.fill(key(1), Payload::Absent { norm: 1e-12 });
        match c.lookup(&key(1)) {
            Some(CacheEntry::Absent { norm }) => assert_eq!(*norm, 1e-12),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.ready_bytes(), 0, "absent entries carry no payload");
        assert!(!c.refresh_in_flight(&key(1)), "absent entry refuses re-arm");
    }

    /// Regression (PR 9): a norm record arriving after the real payload
    /// (batched envelopes can reorder the flush that carries each) must
    /// not supersede it. The payload wins; absence only lands in an empty
    /// or in-flight slot.
    #[test]
    fn absent_never_demotes_ready() {
        let mut c = BlockCache::new(4 * B);
        c.fill(key(1), data(1.0));
        assert_eq!(c.ready_bytes(), B);
        c.fill(key(1), Payload::Absent { norm: 0.0 });
        match c.peek(&key(1)) {
            Some(CacheEntry::Ready(h)) => assert_eq!(h.data()[0], 1.0),
            other => panic!("payload was demoted to {other:?}"),
        }
        assert_eq!(c.ready_bytes(), B, "payload bytes stay accounted");
        // After barrier invalidation the slot is empty, so a genuinely
        // newer absence lands.
        c.invalidate(&key(1));
        c.fill(key(1), Payload::Absent { norm: 0.5 });
        assert!(matches!(c.peek(&key(1)), Some(CacheEntry::Absent { .. })));
        assert_eq!(c.ready_bytes(), 0);
        // And a later real fill makes the block concrete again.
        c.fill(key(1), data(2.0));
        assert!(matches!(c.peek(&key(1)), Some(CacheEntry::Ready(_))));
        assert_eq!(c.ready_bytes(), B);
    }

    #[test]
    fn invalidate_array_drops_absent_entries() {
        let mut c = BlockCache::new(4 * B);
        c.fill(
            BlockKey::new(ArrayId(0), &[1]),
            Payload::Absent { norm: 0.0 },
        );
        c.mark_in_flight(BlockKey::new(ArrayId(0), &[2]));
        c.invalidate_array(ArrayId(0));
        assert!(
            c.peek(&BlockKey::new(ArrayId(0), &[1])).is_none(),
            "cached absence invalidated with the array"
        );
        assert!(c.peek(&BlockKey::new(ArrayId(0), &[2])).is_some());
    }
}
