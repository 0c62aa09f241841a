//! The worker block pool: "stacks of preallocated blocks … of various sizes".
//!
//! Per the paper (§V-B), each SIP worker divides its memory into stacks of
//! preallocated blocks per size class, with the number of blocks of each size
//! determined by the dry-run analysis. [`BlockPool`] reproduces this: storage
//! is recycled by element-count class, a configurable byte budget bounds
//! total residency, and [`PoolStats`] exposes the counters the dry run and
//! profiler need (peak residency validates the dry-run estimate in tests).
//! A class never parks more blocks than it once had handed out at the same
//! time — the number of blocks of that size the program needs — so storage
//! built outside the pool and released into it cannot pile up.
//!
//! The pool is deliberately single-threaded: each worker owns its own pool,
//! exactly as each MPI process owned its own stacks in the original SIP.

use crate::block::Block;
use crate::shape::Shape;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Hard ceiling on bytes of block storage live at once (handed out plus
    /// cached in free stacks). Mirrors the per-worker memory the dry run
    /// budgets against.
    pub max_bytes: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        // 256 MiB default worker budget; the dry run overrides this.
        PoolConfig {
            max_bytes: 256 << 20,
        }
    }
}

/// Counters describing pool behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions satisfied from a free stack.
    pub hits: u64,
    /// Acquisitions that had to allocate fresh storage.
    pub misses: u64,
    /// Blocks currently handed out.
    pub live_blocks: usize,
    /// Bytes currently handed out.
    pub live_bytes: usize,
    /// Peak of `live_bytes` over the pool's lifetime.
    pub peak_bytes: usize,
    /// Bytes parked in free stacks.
    pub free_bytes: usize,
}

/// Error when the byte budget would be exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExhausted {
    /// Bytes the failed acquisition needed.
    pub requested: usize,
    /// Bytes that were available under the budget.
    pub available: usize,
}

impl fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block pool exhausted: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for PoolExhausted {}

/// One size class: its parked storage and how many of its blocks are out.
#[derive(Default)]
struct SizeClass {
    free: Vec<Vec<f64>>,
    /// Blocks of this class handed out and not yet released.
    live: usize,
    /// Most blocks of this class handed out at once: the cap on `free`.
    high_water: usize,
}

struct PoolInner {
    config: PoolConfig,
    /// Size classes keyed by element count.
    classes: BTreeMap<usize, SizeClass>,
    stats: PoolStats,
}

impl PoolInner {
    fn acquire_with(&mut self, shape: Shape, zero: bool) -> Result<Block, PoolExhausted> {
        let elems = shape.len();
        let bytes = elems * std::mem::size_of::<f64>();
        if let Some(mut data) = self.classes.get_mut(&elems).and_then(|c| c.free.pop()) {
            if zero {
                data.fill(0.0);
            }
            self.stats.hits += 1;
            self.stats.free_bytes -= bytes;
            self.hand_out(elems, bytes);
            return Ok(Block::from_data(shape, data));
        }
        let total = self.stats.live_bytes + self.stats.free_bytes;
        if total + bytes > self.config.max_bytes {
            // Try reclaiming free storage of other classes before failing,
            // largest classes first (they free the most per eviction).
            let mut freed = 0usize;
            for class in self.classes.values_mut().rev() {
                if total + bytes - freed <= self.config.max_bytes {
                    break;
                }
                while let Some(v) = class.free.pop() {
                    freed += v.len() * std::mem::size_of::<f64>();
                    drop(v);
                    if total + bytes - freed <= self.config.max_bytes {
                        break;
                    }
                }
            }
            self.stats.free_bytes -= freed;
            if self.stats.live_bytes + self.stats.free_bytes + bytes > self.config.max_bytes {
                return Err(PoolExhausted {
                    requested: bytes,
                    available: self.config.max_bytes
                        - (self.stats.live_bytes + self.stats.free_bytes),
                });
            }
        }
        self.stats.misses += 1;
        self.hand_out(elems, bytes);
        Ok(Block::zeros(shape))
    }

    /// Counts one block of `elems` elements handed out.
    fn hand_out(&mut self, elems: usize, bytes: usize) {
        let class = self.classes.entry(elems).or_default();
        class.live += 1;
        class.high_water = class.high_water.max(class.live);
        self.stats.live_blocks += 1;
        self.stats.live_bytes += bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
    }

    /// Parks a block's storage on its size-class stack, or frees it when the
    /// class already parks as many blocks as it ever had out at once. Blocks
    /// that were not acquired from this pool are *adopted* the same way (the
    /// SIP hands freshly computed blocks to the pool when a temp dies); a
    /// class with none of its blocks out counts nothing back.
    fn release(&mut self, block: Block) {
        let bytes = block.len() * std::mem::size_of::<f64>();
        let class = self.count_back(block.len());
        if class.free.len() < class.high_water {
            class.free.push(block.into_data());
            self.stats.free_bytes += bytes;
        }
    }

    /// Counts one block of `elems` elements back from its holder, if the
    /// class has any out, and returns the class.
    fn count_back(&mut self, elems: usize) -> &mut SizeClass {
        let class = self.classes.entry(elems).or_default();
        if class.live > 0 {
            class.live -= 1;
            self.stats.live_blocks -= 1;
            self.stats.live_bytes -= elems * std::mem::size_of::<f64>();
        }
        class
    }
}

/// A size-classed recycling allocator for blocks, shared cheaply via `Rc`.
#[derive(Clone)]
pub struct BlockPool {
    inner: Rc<RefCell<PoolInner>>,
}

impl BlockPool {
    /// Creates a pool with the given configuration.
    pub fn new(config: PoolConfig) -> Self {
        BlockPool {
            inner: Rc::new(RefCell::new(PoolInner {
                config,
                classes: BTreeMap::new(),
                stats: PoolStats::default(),
            })),
        }
    }

    /// Acquires a zeroed block of `shape`, recycling storage when a block of
    /// the same size class was released earlier. The caller must eventually
    /// [`release`] it.
    ///
    /// [`release`]: BlockPool::release
    pub fn acquire_raw(&self, shape: Shape) -> Result<Block, PoolExhausted> {
        self.inner.borrow_mut().acquire_with(shape, true)
    }

    /// Like [`acquire_raw`], but recycled storage keeps its stale contents
    /// instead of being zero-filled. For scratch every element of which the
    /// caller overwrites before reading — e.g. GEMM pack panels, which
    /// explicitly write or zero-pad the entire region the microkernel
    /// consumes. Fresh allocations are still zeroed (there is nothing to
    /// recycle).
    ///
    /// [`acquire_raw`]: BlockPool::acquire_raw
    pub fn acquire_scratch(&self, shape: Shape) -> Result<Block, PoolExhausted> {
        self.inner.borrow_mut().acquire_with(shape, false)
    }

    /// Returns a raw block's storage to its size-class stack.
    pub fn release(&self, block: Block) {
        self.inner.borrow_mut().release(block);
    }

    /// Counts a block of `elems` elements back without its storage: its
    /// holder passed it on (a temp put into a home) and the pool will never
    /// see it again, so it must stop counting against the budget and the
    /// class's high water.
    pub fn forget(&self, elems: usize) {
        self.inner.borrow_mut().count_back(elems);
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.borrow().stats
    }

    /// Number of distinct size classes with parked storage.
    pub fn size_classes(&self) -> usize {
        let inner = self.inner.borrow();
        inner
            .classes
            .values()
            .filter(|c| !c.free.is_empty())
            .count()
    }

    /// Drops all parked free storage (e.g. between SIAL programs).
    pub fn trim(&self) {
        let mut inner = self.inner.borrow_mut();
        for class in inner.classes.values_mut() {
            class.free.clear();
        }
        inner.stats.free_bytes = 0;
    }
}

impl fmt::Debug for BlockPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockPool({:?})", self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(bytes: usize) -> BlockPool {
        BlockPool::new(PoolConfig { max_bytes: bytes })
    }

    #[test]
    fn recycles_same_size_class() {
        let p = pool(1 << 20);
        let s = Shape::new(&[8, 8]);
        p.release(p.acquire_raw(s).unwrap());
        let _b2 = p.acquire_raw(s).unwrap();
        let st = p.stats();
        assert_eq!(st.misses, 1);
        assert_eq!(st.hits, 1);
    }

    #[test]
    fn recycled_blocks_are_zeroed() {
        let p = pool(1 << 20);
        let s = Shape::new(&[4]);
        let mut b = p.acquire_raw(s).unwrap();
        b.fill(9.0);
        p.release(b);
        let b2 = p.acquire_raw(s).unwrap();
        assert!(b2.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn scratch_skips_zero_fill() {
        let p = pool(1 << 20);
        let s = Shape::new(&[4]);
        let mut b = p.acquire_raw(s).unwrap();
        b.fill(9.0);
        p.release(b);
        let b2 = p.acquire_scratch(s).unwrap();
        assert!(
            b2.data().iter().all(|&x| x == 9.0),
            "recycled scratch keeps stale contents"
        );
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn budget_enforced() {
        let p = pool(1024); // room for 128 doubles
        let a = p.acquire_raw(Shape::new(&[100])).unwrap();
        let err = p.acquire_raw(Shape::new(&[100])).unwrap_err();
        assert_eq!(err.requested, 800);
        p.release(a);
        // After release the storage is parked but reclaimable.
        assert!(p.acquire_raw(Shape::new(&[100])).is_ok());
    }

    #[test]
    fn reclaims_other_classes_under_pressure() {
        let p = pool(1600); // 200 doubles
        p.release(p.acquire_raw(Shape::new(&[100])).unwrap());
        // 800 bytes parked in class 100; a class-150 request needs 1200 and
        // must evict the parked storage to fit.
        let b = p.acquire_raw(Shape::new(&[150]));
        assert!(b.is_ok());
        assert_eq!(p.stats().free_bytes, 0);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let p = pool(1 << 20);
        let a = p.acquire_raw(Shape::new(&[64])).unwrap();
        let b = p.acquire_raw(Shape::new(&[64])).unwrap();
        p.release(a);
        p.release(b);
        assert_eq!(p.stats().peak_bytes, 2 * 64 * 8);
        assert_eq!(p.stats().live_bytes, 0);
    }

    #[test]
    fn trim_drops_parked_storage() {
        let p = pool(1 << 20);
        p.release(p.acquire_raw(Shape::new(&[32])).unwrap());
        assert!(p.stats().free_bytes > 0);
        p.trim();
        assert_eq!(p.stats().free_bytes, 0);
        assert_eq!(p.size_classes(), 0);
    }

    /// Storage built outside the pool and released into it (a temp block
    /// a super instruction computed) is parked only up to what its class
    /// ever had out at once; the rest is freed, however many are released.
    #[test]
    fn adopted_storage_is_capped_at_the_class_high_water() {
        let p = pool(1 << 20);
        let s = Shape::new(&[16]);
        let (a, b) = (p.acquire_raw(s).unwrap(), p.acquire_raw(s).unwrap());
        p.release(a);
        p.release(b);
        assert_eq!(
            p.stats().free_bytes,
            2 * 16 * 8,
            "two out at once, two parked"
        );
        for _ in 0..1000 {
            p.release(Block::zeros(s));
        }
        assert_eq!(p.stats().free_bytes, 2 * 16 * 8, "adopted storage piled up");
        assert_eq!(p.stats().live_blocks, 0);
        // A class the pool never handed out parks nothing.
        p.release(Block::zeros(Shape::new(&[7])));
        assert_eq!(p.stats().free_bytes, 2 * 16 * 8);
        assert_eq!(p.size_classes(), 1);
    }

    /// A block handed out and passed on for good is counted back by
    /// `forget`: the budget and the class's high water stay where one
    /// block out at a time leaves them, however often it happens.
    #[test]
    fn forgotten_blocks_leave_the_live_count() {
        let p = pool(1 << 20);
        let s = Shape::new(&[16]);
        for _ in 0..1000 {
            let passed_on = p.acquire_scratch(s).unwrap();
            p.forget(passed_on.len());
        }
        assert_eq!(p.stats().live_bytes, 0);
        assert_eq!(p.stats().live_blocks, 0);
        // The class's high water is still one: two releases park one.
        p.release(Block::zeros(s));
        p.release(Block::zeros(s));
        assert_eq!(p.stats().free_bytes, 16 * 8);
    }

    #[test]
    fn distinct_classes_tracked() {
        let p = pool(1 << 20);
        p.release(p.acquire_raw(Shape::new(&[8])).unwrap());
        p.release(p.acquire_raw(Shape::new(&[16])).unwrap());
        assert_eq!(p.size_classes(), 2);
    }
}
