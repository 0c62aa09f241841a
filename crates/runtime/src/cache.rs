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
//! Replacement costs the same whatever the cache holds: the entries that
//! can ever be evicted — ready and in-flight ones — sit in a doubly linked
//! recency list threaded through the slab that stores them (`prev`/`next`
//! slot indices, no allocation per touch), a touch moves an entry to the
//! young end, and an eviction walks from the old end past what it may not
//! take: the entry just filled, in-flight entries and entries a consumer
//! holds. Typed-absent entries hold no bytes and are never evicted for
//! capacity, so they stay off the list instead of lengthening every walk.
//! The victim is the same least-recently-touched evictable entry a scan for
//! the smallest touch stamp would find (the test module keeps that scan as
//! the oracle). An in-flight entry also carries its fetch's [`Flight`]
//! record, so issuing and completing a fetch is one map operation each.
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

use crate::msg::{BlockKey, KeyMap, Payload};
use sia_blocks::BlockHandle;
use sia_fabric::ReqId;
use std::collections::hash_map::Entry;
use std::time::Instant;

/// One outstanding fetch: when it was issued (the start of the flight the
/// overlap metric integrates) and the request id its reply will carry.
#[derive(Debug, Clone, Copy)]
pub struct Flight {
    /// When the fetch was sent.
    pub issued: Instant,
    /// Its request id (`ReqId::NONE` when nothing correlates replies).
    pub req: ReqId,
}

/// State of one cached block.
#[derive(Debug)]
pub enum CacheEntry {
    /// The data has arrived.
    Ready(BlockHandle),
    /// A fetch is outstanding.
    InFlight(Flight),
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

/// "No slot": the end of the recency list, or a slot not on it.
const NIL: u32 = u32::MAX;

/// One resident entry, its delivery baseline and its place in the recency
/// list.
struct Slot {
    key: BlockKey,
    entry: CacheEntry,
    /// Holder count of the handle when the data arrived. Holders acquired
    /// later (a consumer reading through `lookup`) push the live count above
    /// this and protect the entry; the delivery shares themselves (home pin,
    /// journal copy) do not.
    base_holders: usize,
    /// The next older and next younger listed slot.
    prev: u32,
    next: u32,
}

/// The slots and the recency list threaded through them: `head` is the
/// least recently touched listed slot, `tail` the most recent.
struct Slab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl Slab {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Stores an entry in a free slot, off the list.
    fn insert(&mut self, key: BlockKey, entry: CacheEntry, base_holders: usize) -> u32 {
        let slot = Slot {
            key,
            entry,
            base_holders,
            prev: NIL,
            next: NIL,
        };
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Takes slot `i`'s entry out (off the list first) and frees the slot.
    fn remove(&mut self, i: u32) -> CacheEntry {
        self.unlink(i);
        self.free.push(i);
        // A vacated slot keeps no handle alive.
        std::mem::replace(
            &mut self.slots[i as usize].entry,
            CacheEntry::Absent { norm: 0.0 },
        )
    }

    /// Takes slot `i` off the list (a no-op for a slot that is not on it).
    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else if self.head == i {
            self.head = next;
        } else {
            return;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        let slot = &mut self.slots[i as usize];
        (slot.prev, slot.next) = (NIL, NIL);
    }

    /// Makes slot `i` the most recently touched, listing it if it was not.
    fn touch(&mut self, i: u32) {
        if self.tail == i {
            return;
        }
        self.unlink(i);
        self.slots[i as usize].prev = self.tail;
        match self.tail {
            NIL => self.head = i,
            tail => self.slots[tail as usize].next = i,
        }
        self.tail = i;
    }
}

/// A byte-accounted LRU cache of block handles keyed by [`BlockKey`].
pub struct BlockCache {
    capacity_bytes: u64,
    /// Key → slot of `slab`.
    map: KeyMap<u32>,
    slab: Slab,
    ready_bytes: u64,
    ever_fetched: RefetchFilter,
    stats: CacheStats,
    /// Slots the eviction walks have looked at.
    #[cfg(test)]
    walked: u64,
    /// Evicted keys, in eviction order, since the test last took them.
    #[cfg(test)]
    evicted: Vec<BlockKey>,
}

impl BlockCache {
    /// Creates a cache holding at most `capacity_bytes` of ready block data.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "cache capacity must be positive");
        BlockCache {
            capacity_bytes,
            map: KeyMap::default(),
            slab: Slab::new(),
            ready_bytes: 0,
            ever_fetched: RefetchFilter::new(),
            stats: CacheStats::default(),
            #[cfg(test)]
            walked: 0,
            #[cfg(test)]
            evicted: Vec::new(),
        }
    }

    /// Looks up a block, refreshing its LRU position. Returns `None` on miss.
    pub fn lookup(&mut self, key: &BlockKey) -> Option<&CacheEntry> {
        let Some(&i) = self.map.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        let entry = &self.slab.slots[i as usize].entry;
        match entry {
            CacheEntry::Ready(_) | CacheEntry::Absent { .. } => self.stats.hits += 1,
            CacheEntry::InFlight(_) => self.stats.in_flight_hits += 1,
        }
        // An absence holds no bytes, so it has no place in the eviction
        // order.
        if !matches!(entry, CacheEntry::Absent { .. }) {
            self.slab.touch(i);
        }
        Some(&self.slab.slots[i as usize].entry)
    }

    /// Peeks without touching LRU order or counters.
    pub fn peek(&self, key: &BlockKey) -> Option<&CacheEntry> {
        self.map
            .get(key)
            .map(|&i| &self.slab.slots[i as usize].entry)
    }

    /// Marks a fetch as outstanding unless the key is already present.
    /// Returns the new entry's flight record — built by `issue`, which only
    /// runs then — when the caller should actually send the fetch, `None`
    /// when there is nothing to do. In-flight entries carry no data, so no
    /// room is made until the reply arrives.
    pub fn mark_in_flight(
        &mut self,
        key: BlockKey,
        issue: impl FnOnce() -> Flight,
    ) -> Option<Flight> {
        let Entry::Vacant(vacant) = self.map.entry(key) else {
            return None;
        };
        // A fresh in-flight entry is a cold lookup (the prefetcher asked for
        // a block the cache does not hold), so it counts as a miss.
        self.stats.misses += 1;
        if self.ever_fetched.test_and_set(&key) {
            self.stats.refetches += 1;
        }
        let flight = issue();
        let i = self.slab.insert(key, CacheEntry::InFlight(flight), 0);
        self.slab.touch(i);
        vacant.insert(i);
        Some(flight)
    }

    /// Re-arms an in-flight entry whose reply is presumed lost, so the
    /// caller can re-issue the fetch. Returns true when the entry exists and
    /// is in flight (LRU position refreshed — the re-issued fetch is the
    /// most recent interest in the block); a ready or absent entry returns
    /// false and is left untouched. This is what makes `InFlight` tolerate
    /// re-issue: a duplicate reply later simply re-fills a ready entry.
    pub fn refresh_in_flight(&mut self, key: &BlockKey) -> bool {
        match self.map.get(key) {
            Some(&i) if matches!(self.slab.slots[i as usize].entry, CacheEntry::InFlight(_)) => {
                self.slab.touch(i);
                self.stats.reissues += 1;
                true
            }
            _ => false,
        }
    }

    /// Stores an arrived reply, completing an in-flight entry (or inserting
    /// fresh — e.g. a duplicate reply after its flight completed), and
    /// returns the flight it completed, if any. A data handle is shared with the
    /// sender's allocation; no copy is made here. A typed-absent answer
    /// carries no payload bytes, so no room is made.
    ///
    /// A `Ready` entry is never demoted by an absent answer: with envelope
    /// batching, a norm record for a key can legitimately arrive *after*
    /// the real payload it was screened before (the two travelled in
    /// different envelopes, or a retried fetch's reply raced the first
    /// one). The payload is the newer truth within an epoch — barrier
    /// invalidation removes the entry, so a genuinely newer absence always
    /// starts from an empty slot.
    pub fn fill(&mut self, key: BlockKey, payload: Payload) -> Option<Flight> {
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
        let (i, flight) = match self.map.entry(key) {
            Entry::Occupied(found) => {
                let i = *found.get();
                let slot = &mut self.slab.slots[i as usize];
                let flight = match &slot.entry {
                    CacheEntry::Ready(_) if incoming.is_none() => return None,
                    CacheEntry::Ready(old) => {
                        self.ready_bytes -= old.heap_bytes();
                        None
                    }
                    CacheEntry::InFlight(flight) => Some(*flight),
                    CacheEntry::Absent { .. } => None,
                };
                (slot.entry, slot.base_holders) = (entry, base);
                (i, flight)
            }
            Entry::Vacant(vacant) => {
                self.ever_fetched.test_and_set(&key);
                let i = self.slab.insert(key, entry, base);
                vacant.insert(i);
                (i, None)
            }
        };
        match incoming {
            Some(bytes) => {
                self.slab.touch(i);
                self.ready_bytes += bytes;
                // Make room, sparing the entry just completed: a get may be
                // waiting on it and no consumer has had a chance to hold it.
                self.evict_until_keeping(self.capacity_bytes, i);
            }
            None => self.slab.unlink(i),
        }
        flight
    }

    /// Removes a specific entry (e.g. after a barrier invalidates cached
    /// copies of an array).
    pub fn invalidate(&mut self, key: &BlockKey) {
        if let Some(i) = self.map.remove(key) {
            if let CacheEntry::Ready(h) = self.slab.remove(i) {
                self.ready_bytes -= h.heap_bytes();
            }
        }
    }

    /// Drops every *ready* entry belonging to `array` (in-flight entries stay:
    /// the reply will still arrive and refill them).
    pub fn invalidate_array(&mut self, array: sia_bytecode::ArrayId) {
        let (slab, bytes) = (&mut self.slab, &mut self.ready_bytes);
        self.map.retain(|k, &mut i| {
            if k.array != array {
                return true;
            }
            match &slab.slots[i as usize].entry {
                CacheEntry::InFlight(_) => return true,
                CacheEntry::Ready(h) => *bytes -= h.heap_bytes(),
                // A later put can make an absent block real; barrier
                // invalidation drops the cached absence like any copy.
                CacheEntry::Absent { .. } => {}
            }
            slab.remove(i);
            false
        });
    }

    /// Evicts consumer-free ready entries (LRU-first) until `target_bytes`
    /// of ready data remain (or nothing evictable is left). An entry is
    /// consumer-free when its handle has no holders beyond the delivery
    /// baseline recorded at fill time. Returns the bytes freed. Exposed so
    /// the block manager can apply budget pressure beyond ordinary capacity
    /// replacement.
    pub fn evict_until(&mut self, target_bytes: u64) -> u64 {
        self.evict_until_keeping(target_bytes, NIL)
    }

    /// Evicts least-recently-used ready entries down to `target_bytes`,
    /// sparing slot `keep`. In-flight entries and entries a consumer
    /// acquired a hold on after delivery are never evicted; if only those
    /// remain, the cache overshoots temporarily rather than stranding a
    /// reply or a live reference. One walk from the old end serves the
    /// whole call: what it steps over stays unevictable until it returns,
    /// so each next victim is the next evictable entry along.
    fn evict_until_keeping(&mut self, target_bytes: u64, keep: u32) -> u64 {
        let mut freed = 0;
        let mut at = self.slab.head;
        // Running out of list means everything left is in flight or held by
        // a live consumer; allow temporary overshoot rather than deadlock.
        while self.ready_bytes > target_bytes && at != NIL {
            let slot = &self.slab.slots[at as usize];
            let (i, key) = (at, slot.key);
            at = slot.next;
            #[cfg(test)]
            {
                self.walked += 1;
            }
            let evictable = i != keep
                && matches!(&slot.entry, CacheEntry::Ready(h) if h.holders() <= slot.base_holders);
            if !evictable {
                continue;
            }
            self.map.remove(&key);
            if let CacheEntry::Ready(h) = self.slab.remove(i) {
                let b = h.heap_bytes();
                self.ready_bytes -= b;
                freed += b;
                #[cfg(test)]
                self.evicted.push(key);
            }
            self.stats.evictions += 1;
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

    /// Marks `key` in flight; true when a fetch would have to be sent.
    fn mark(c: &mut BlockCache, key: BlockKey) -> bool {
        let issue = || Flight {
            issued: Instant::now(),
            req: ReqId::NONE,
        };
        c.mark_in_flight(key, issue).is_some()
    }

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
    fn fill_spares_the_entry_it_completed() {
        // With everything older held, the only evictable entry is the one
        // the fill just completed — which a get may be waiting on. The
        // cache overshoots instead.
        let mut c = BlockCache::new(B);
        c.fill(key(1), data(1.0));
        let _held = match c.lookup(&key(1)) {
            Some(CacheEntry::Ready(h)) => h.clone(),
            other => panic!("{other:?}"),
        };
        c.fill(key(2), data(2.0));
        assert!(c.peek(&key(1)).is_some() && c.peek(&key(2)).is_some());
        assert_eq!(c.ready_bytes(), 2 * B, "temporary overshoot");
        assert_eq!(c.stats().evictions, 0);
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
        assert!(mark(&mut c, key(1)));
        assert!(mark(&mut c, key(2)));
        // In-flight entries hold no bytes; a fill coexists with them.
        c.fill(key(3), data(3.0));
        assert_eq!(c.len(), 3);
        assert!(c.peek(&key(1)).is_some());
        assert!(c.peek(&key(2)).is_some());
    }

    #[test]
    fn mark_in_flight_dedups() {
        let mut c = BlockCache::new(4 * B);
        assert!(mark(&mut c, key(1)));
        assert!(!mark(&mut c, key(1)), "second mark is a no-op");
        c.fill(key(1), data(1.0));
        assert!(!mark(&mut c, key(1)), "ready entry needs no fetch");
    }

    #[test]
    fn refetch_counted() {
        let mut c = BlockCache::new(B);
        c.fill(key(1), data(1.0));
        c.fill(key(2), data(2.0)); // evicts 1
        assert!(mark(&mut c, key(1)), "must fetch again");
        assert_eq!(c.stats().refetches, 1);
    }

    #[test]
    fn fill_completes_in_flight() {
        let mut c = BlockCache::new(2 * B);
        mark(&mut c, key(1));
        assert!(matches!(c.peek(&key(1)), Some(CacheEntry::InFlight(_))));
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
        mark(&mut c, BlockKey::new(ArrayId(0), &[2]));
        c.invalidate_array(ArrayId(0));
        assert!(c.peek(&BlockKey::new(ArrayId(0), &[1])).is_none());
        assert!(c.peek(&BlockKey::new(ArrayId(0), &[2])).is_some());
        assert!(c.peek(&BlockKey::new(ArrayId(1), &[1])).is_some());
        assert_eq!(c.ready_bytes(), B, "bytes credited on invalidation");
    }

    #[test]
    fn in_flight_tolerates_reissue() {
        let mut c = BlockCache::new(4 * B);
        assert!(mark(&mut c, key(1)));
        // The reply was dropped; the retry layer re-arms the entry instead
        // of being refused by mark_in_flight.
        assert!(!mark(&mut c, key(1)));
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
        mark(&mut c, key(1));
        assert!(matches!(c.lookup(&key(1)), Some(CacheEntry::InFlight(_))));
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
        mark(&mut c, key(1));
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
        mark(&mut c, BlockKey::new(ArrayId(0), &[2]));
        c.invalidate_array(ArrayId(0));
        assert!(
            c.peek(&BlockKey::new(ArrayId(0), &[1])).is_none(),
            "cached absence invalidated with the array"
        );
        assert!(c.peek(&BlockKey::new(ArrayId(0), &[2])).is_some());
    }

    // ---- the order the cache keeps vs the scan it replaced --------------------

    fn is_evictable(slot: &Slot) -> bool {
        matches!(&slot.entry, CacheEntry::Ready(h) if h.holders() <= slot.base_holders)
    }

    /// The touch stamps the cache used to keep per entry, kept beside the
    /// cache under test by the rules it stamped by.
    #[derive(Default)]
    struct Stamps {
        clock: u64,
        of: KeyMap<u64>,
    }

    impl Stamps {
        fn touch(&mut self, key: BlockKey) {
            self.clock += 1;
            self.of.insert(key, self.clock);
        }
    }

    /// The victims an eviction down to `target` bytes must pick, in order,
    /// chosen the way the cache used to choose them: per victim, a scan of
    /// the whole map for the evictable entry with the smallest touch stamp.
    fn scanned_victims(
        c: &BlockCache,
        stamps: &Stamps,
        mut ready: u64,
        target: u64,
        keep: Option<&BlockKey>,
    ) -> Vec<BlockKey> {
        let mut gone: Vec<BlockKey> = Vec::new();
        while ready > target {
            let victim = c
                .map
                .iter()
                .map(|(k, &i)| (k, &c.slab.slots[i as usize]))
                .filter(|(k, s)| keep != Some(*k) && !gone.contains(k) && is_evictable(s))
                .min_by_key(|(k, _)| stamps.of[*k]);
            let Some((k, slot)) = victim else { break };
            if let CacheEntry::Ready(h) = &slot.entry {
                ready -= h.heap_bytes();
            }
            gone.push(*k);
        }
        gone
    }

    /// The recency list holds exactly the map's ready and in-flight keys,
    /// oldest touch first, with links that agree in both directions; absent
    /// entries are off it; every slot is either mapped or free; the byte
    /// count is the ready entries' bytes.
    fn assert_consistent(c: &BlockCache, stamps: &Stamps) {
        let (mut listed, mut at, mut prev, mut last_stamp) = (Vec::new(), c.slab.head, NIL, 0);
        while at != NIL {
            let slot = &c.slab.slots[at as usize];
            assert_eq!(slot.prev, prev, "back link of {:?}", slot.key);
            assert_eq!(c.map.get(&slot.key), Some(&at), "listed slot not mapped");
            let stamp = stamps.of[&slot.key];
            assert!(stamp > last_stamp, "list out of stamp order");
            listed.push(slot.key);
            (prev, last_stamp, at) = (at, stamp, slot.next);
        }
        assert_eq!(c.slab.tail, prev);
        let mut mapped: Vec<BlockKey> = c
            .map
            .iter()
            .filter(|(_, &i)| !matches!(c.slab.slots[i as usize].entry, CacheEntry::Absent { .. }))
            .map(|(k, _)| *k)
            .collect();
        mapped.sort();
        listed.sort();
        assert_eq!(listed, mapped);
        assert_eq!(c.map.len() + c.slab.free.len(), c.slab.slots.len());
        let ready: u64 = c
            .map
            .values()
            .map(|&i| match &c.slab.slots[i as usize].entry {
                CacheEntry::Ready(h) => h.heap_bytes(),
                _ => 0,
            })
            .sum();
        assert_eq!(c.ready_bytes(), ready);
    }

    /// xorshift64*: the model test's only randomness.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % n
        }
    }

    #[test]
    fn kept_order_picks_the_scans_victims() {
        for seed in [1u64, 7, 0x5eed] {
            let mut rng = Rng(seed);
            let capacity = 12 * B;
            let mut c = BlockCache::new(capacity);
            let mut stamps = Stamps::default();
            // What a "consumer" still holds of what it looked up.
            let mut held: Vec<BlockHandle> = Vec::new();
            let mut evictions = 0;
            for _ in 0..2_500 {
                let key = BlockKey::new(ArrayId(rng.below(2) as u32), &[rng.below(24) as i64]);
                let mut expect: Vec<BlockKey> = Vec::new();
                match rng.below(16) {
                    0..=4 => {
                        let found = c.lookup(&key);
                        if found.is_some() {
                            stamps.touch(key);
                        }
                        if let Some(CacheEntry::Ready(h)) = found {
                            if rng.below(3) == 0 {
                                held.push(h.clone());
                            }
                        }
                    }
                    5 => {
                        if mark(&mut c, key) {
                            stamps.touch(key);
                        }
                    }
                    6 => {
                        if c.refresh_in_flight(&key) {
                            stamps.touch(key);
                        }
                    }
                    7..=11 => {
                        // One or three elements, so victims differ in size.
                        let elems = 1 + 2 * rng.below(2) as usize;
                        let block = BlockHandle::new(Block::filled(Shape::new(&[elems]), 1.0));
                        let replaced = match c.peek(&key) {
                            Some(CacheEntry::Ready(old)) => old.heap_bytes(),
                            _ => 0,
                        };
                        let ready = c.ready_bytes() - replaced + block.heap_bytes();
                        expect = scanned_victims(&c, &stamps, ready, capacity, Some(&key));
                        c.fill(key, Payload::Data(block));
                        stamps.touch(key);
                    }
                    12 => {
                        // An absence never demotes (or re-stamps) a payload.
                        if !matches!(c.peek(&key), Some(CacheEntry::Ready(_))) {
                            stamps.touch(key);
                        }
                        c.fill(key, Payload::Absent { norm: 0.5 });
                    }
                    13 => c.invalidate(&key),
                    14 => {
                        if rng.below(8) == 0 {
                            c.invalidate_array(key.array);
                        } else if !held.is_empty() {
                            held.swap_remove(rng.below(held.len() as u64) as usize);
                        }
                    }
                    _ => {
                        let target = rng.below(capacity + 1);
                        expect = scanned_victims(&c, &stamps, c.ready_bytes(), target, None);
                        c.evict_until(target);
                    }
                }
                let evicted = std::mem::take(&mut c.evicted);
                assert_eq!(evicted, expect, "seed {seed}");
                evictions += evicted.len();
                assert_consistent(&c, &stamps);
            }
            assert!(evictions > 200, "seed {seed} evicted only {evictions}");
        }
    }

    /// An eviction looks at the old end of the list, not at the cache: the
    /// slots it visits per victim do not grow with what is resident. (The
    /// scan visited every entry: 64 and 4 096 here.)
    #[test]
    fn eviction_cost_does_not_grow_with_capacity() {
        for resident in [64u64, 4_096] {
            let mut c = BlockCache::new(resident * B);
            for i in 0..resident as i64 {
                c.fill(key(i), data(0.0));
            }
            // A consumer's hold on the oldest entry: every walk steps over it.
            let _held = match c.peek(&key(0)) {
                Some(CacheEntry::Ready(h)) => h.clone(),
                other => panic!("{other:?}"),
            };
            let (walked, evictions) = (c.walked, c.stats().evictions);
            for i in resident as i64..resident as i64 + 2_000 {
                // Fetches run four blocks ahead of their replies.
                mark(&mut c, key(i + 4));
                c.fill(key(i), data(0.0));
            }
            let evictions = c.stats().evictions - evictions;
            assert_eq!(evictions, 2_000, "{resident} resident");
            let per_eviction = (c.walked - walked) as f64 / evictions as f64;
            assert!(
                per_eviction <= 2.0,
                "{per_eviction} slots visited per eviction with {resident} resident"
            );
        }
    }
}
