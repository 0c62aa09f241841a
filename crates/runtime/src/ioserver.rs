//! I/O servers: the disk tier behind SIAL `served` arrays.
//!
//! "Each I/O server contains a cache for served array blocks. Blocks
//! arriving as a result of a prepare command are placed in the cache and
//! lazily written to disk … Replacement is done using a LRU strategy. All
//! operations of an I/O server are non-blocking." (§V-B)
//!
//! Our server keeps an LRU write-behind cache over a directory of block
//! files. While it holds dirty blocks it waits for the next message only
//! until `WRITE_BEHIND_IDLE` after the last one, then flushes one dirty
//! block per look at the inbox, so a long prepare burst never blocks request
//! service — the in-process analogue of the original's asynchronous I/O. A
//! clean server has no timer and blocks until a message arrives.

use crate::error::RuntimeError;
use crate::events::{EventKind, TraceSink};
use crate::layout::Layout;
use crate::msg::{BlockKey, OpId, Payload, SipMsg};
use sia_blocks::{Block, BlockHandle, Shape, MAX_RANK};
use sia_bytecode::{ArrayKind, PutMode};
use sia_fabric::Endpoint;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::metrics::ServerStats;

/// How long the inbox must stay quiet before lazy write-behind starts
/// flushing dirty blocks.
const WRITE_BEHIND_IDLE: Duration = Duration::from_micros(500);

struct Entry {
    block: BlockHandle,
    dirty: bool,
    stamp: u64,
}

/// The cached keys of one kind (clean or dirty), least recently used first:
/// LRU stamp → key. Stamps are unique (the clock ticks per touch).
type LruOrder = BTreeMap<u64, BlockKey>;

/// One I/O server: an LRU write-behind cache over a block directory.
pub struct IoServer {
    layout: Arc<Layout>,
    endpoint: Endpoint<SipMsg>,
    dir: PathBuf,
    capacity: usize,
    cache: HashMap<BlockKey, Entry>,
    /// Eviction order and flush order: every cached key is in exactly one
    /// of the two, under its entry's stamp. The server consults them per
    /// message (is anything dirty?) and per insertion into a full cache
    /// (which entry goes?), so neither may cost a walk over the cache.
    clean: LruOrder,
    dirty: LruOrder,
    /// Norm table for sparse served arrays: blocks whose prepare was dropped
    /// under the sparsity threshold, keyed to the recorded Frobenius-norm
    /// bound. A key with a resident (cache or disk) payload is never here.
    norms: HashMap<BlockKey, f64>,
    clock: u64,
    stats: ServerStats,
    /// Applied prepare op ids → served epoch they arrived in (duplicate
    /// suppression; pruned two epochs back at each `EpochMark`).
    applied_ops: HashMap<u64, u64>,
    /// Completed served epochs (advanced by `EpochMark`).
    epoch: u64,
    /// Event recorder (disabled unless the runtime installs a live sink).
    trace: TraceSink,
    /// Cross-job warm block cache (serving mode): consulted before disk on
    /// a local-cache miss, fed on every flush. Keyed by block-file path, so
    /// only jobs sharing this server's directory share entries.
    warm: Option<Arc<crate::serve::WarmCache>>,
}

fn key_filename(key: &BlockKey) -> String {
    let segs: Vec<String> = key.segs().iter().map(|s| s.to_string()).collect();
    format!("a{}_{}.blk", key.array.0, segs.join("_"))
}

/// A staging name for an atomic tmp+rename write of `path` that no other
/// writer shares: several servers — other jobs of one daemon, other
/// processes — may write the same file of a shared served directory at
/// once, and each must rename only bytes it wrote itself.
fn staging_path(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("{}-{n}.tmp", std::process::id()))
}

fn write_block_file(path: &Path, block: &Block) -> Result<(), RuntimeError> {
    let mut buf: Vec<u8> = Vec::with_capacity(16 + block.len() * 8);
    let dims = block.shape().dims();
    buf.extend_from_slice(&(dims.len() as u32).to_le_bytes());
    for &d in dims {
        buf.extend_from_slice(&d.to_le_bytes());
    }
    for v in block.data() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    let tmp = staging_path(path);
    fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(&buf))
        .and_then(|_| fs::rename(&tmp, path))
        .map_err(|e| RuntimeError::ServedIo(format!("write {}: {e}", path.display())))
}

/// Decodes the bytes of a block file: `u32` rank, `u32` extents, `f64`
/// elements, all little-endian. `None` when the file is truncated, names a
/// rank or extent no shape can have, or its length does not match its
/// header — the file comes from disk, so nothing in it is trusted.
fn parse_block_file(raw: &[u8]) -> Option<Block> {
    let (rank, rest) = raw.split_first_chunk::<4>()?;
    let rank = u32::from_le_bytes(*rank) as usize;
    if rank > MAX_RANK {
        return None;
    }
    let (dims, data) = rest.split_at_checked(rank * 4)?;
    let dims: Vec<usize> = dims
        .chunks_exact(4)
        .map(|d| u32::from_le_bytes(d.try_into().expect("chunks_exact(4)")) as usize)
        .collect();
    Block::from_le_bytes(Shape::try_new(&dims)?, data)
}

fn read_block_file(path: &Path) -> Result<Option<Block>, RuntimeError> {
    let raw = match fs::read(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(RuntimeError::ServedIo(format!(
                "read {}: {e}",
                path.display()
            )));
        }
    };
    parse_block_file(&raw)
        .map(Some)
        .ok_or_else(|| RuntimeError::ServedIo(format!("corrupt block file {}", path.display())))
}

impl IoServer {
    /// Creates a server storing block files under `dir` (created if absent).
    pub fn new(
        layout: Arc<Layout>,
        endpoint: Endpoint<SipMsg>,
        dir: PathBuf,
        capacity: usize,
    ) -> Result<Self, RuntimeError> {
        fs::create_dir_all(&dir)
            .map_err(|e| RuntimeError::ServedIo(format!("create {}: {e}", dir.display())))?;
        Ok(IoServer {
            layout,
            endpoint,
            dir,
            capacity: capacity.max(1),
            cache: HashMap::new(),
            clean: LruOrder::new(),
            dirty: LruOrder::new(),
            norms: HashMap::new(),
            clock: 0,
            stats: ServerStats::default(),
            applied_ops: HashMap::new(),
            epoch: 0,
            trace: TraceSink::disabled(),
            warm: None,
        })
    }

    /// Installs the event sink (called by the runtime before `run`).
    pub(crate) fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Installs the cross-job warm block cache (serving mode).
    pub(crate) fn set_warm(&mut self, warm: Arc<crate::serve::WarmCache>) {
        self.warm = Some(warm);
    }

    fn path_of(&self, key: &BlockKey) -> PathBuf {
        self.dir.join(key_filename(key))
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn order_of(&mut self, dirty: bool) -> &mut LruOrder {
        if dirty {
            &mut self.dirty
        } else {
            &mut self.clean
        }
    }

    /// Caches `block` under `key` as the most recently used entry,
    /// replacing any entry the key had.
    fn insert(&mut self, key: BlockKey, block: BlockHandle, dirty: bool) {
        self.remove(&key);
        let stamp = self.tick();
        self.order_of(dirty).insert(stamp, key);
        self.cache.insert(
            key,
            Entry {
                block,
                dirty,
                stamp,
            },
        );
    }

    /// Drops `key`'s entry (unflushed if dirty), if it has one.
    fn remove(&mut self, key: &BlockKey) {
        if let Some(e) = self.cache.remove(key) {
            self.order_of(e.dirty).remove(&e.stamp);
        }
    }

    /// Flushes one dirty block (the oldest) — the lazy write-behind step.
    fn flush_one(&mut self) -> Result<bool, RuntimeError> {
        let Some((&stamp, &key)) = self.dirty.first_key_value() else {
            return Ok(false);
        };
        let path = self.path_of(&key);
        let entry = self.cache.get_mut(&key).expect("ordered key is cached");
        write_block_file(&path, &entry.block)?;
        entry.dirty = false;
        self.dirty.remove(&stamp);
        self.clean.insert(stamp, key);
        self.stats.disk_writes += 1;
        if let Some(w) = &self.warm {
            w.insert(path, entry.block.clone());
        }
        self.trace.instant(EventKind::Flush { blocks: 1 });
        Ok(true)
    }

    /// Evicts clean LRU entries (flushing if everything is dirty) until the
    /// cache is within capacity.
    fn make_room(&mut self) -> Result<(), RuntimeError> {
        while self.cache.len() >= self.capacity {
            match self.clean.pop_first() {
                Some((_, key)) => {
                    self.cache.remove(&key);
                }
                // Everything dirty: flush the oldest, then loop.
                None => {
                    if !self.flush_one()? {
                        return Ok(());
                    }
                }
            }
        }
        Ok(())
    }

    fn load(&mut self, key: BlockKey) -> Result<BlockHandle, RuntimeError> {
        if let Some(e) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            // The served copy aliases the cache entry: the reply envelope
            // rides on the same allocation.
            let (block, dirty) = (e.block.clone(), e.dirty);
            self.insert(key, block.clone(), dirty);
            return Ok(block);
        }
        let path = self.path_of(&key);
        // Serving mode: another job's server (or a previous job) may have
        // this block warm in memory — cheaper than the disk round trip.
        let warm_hit = self.warm.as_ref().and_then(|w| w.get(&path));
        let block: BlockHandle = match warm_hit {
            Some(b) => {
                self.stats.warm_hits += 1;
                b
            }
            None => match read_block_file(&path)? {
                Some(b) => {
                    self.stats.disk_reads += 1;
                    let b: BlockHandle = b.into();
                    if let Some(w) = &self.warm {
                        w.insert(path.clone(), b.clone());
                    }
                    b
                }
                None => {
                    // Never prepared: zeros, consistent with lazy allocation.
                    self.stats.zero_serves += 1;
                    BlockHandle::zeros(self.layout.declared_block_shape(key.array))
                }
            },
        };
        self.make_room()?;
        self.insert(key, block.clone(), false);
        Ok(block)
    }

    /// True when `key` has no payload anywhere (neither cache nor disk) —
    /// the typed-absent state of a sparse served block.
    fn is_absent(&self, key: &BlockKey) -> bool {
        !self.cache.contains_key(key) && !self.path_of(key).exists()
    }

    /// Applies a dropped (norm-only) prepare: a Replace removes any resident
    /// payload and records the bound; an Accumulate onto a resident block is
    /// a no-op, onto an absent one it accumulates the bound.
    fn prepare_absent(&mut self, key: BlockKey, norm: f64, mode: PutMode) {
        self.stats.prepares += 1;
        match mode {
            PutMode::Replace => {
                self.remove(&key);
                let path = self.path_of(&key);
                let _ = fs::remove_file(&path);
                if let Some(w) = &self.warm {
                    w.invalidate(&path);
                }
                self.norms.insert(key, norm);
            }
            PutMode::Accumulate => {
                if self.is_absent(&key) {
                    let prior = self.norms.get(&key).copied().unwrap_or(0.0);
                    self.norms.insert(key, prior + norm);
                }
            }
        }
    }

    fn prepare(
        &mut self,
        key: BlockKey,
        data: BlockHandle,
        mode: PutMode,
    ) -> Result<(), RuntimeError> {
        self.stats.prepares += 1;
        // A real payload supersedes any recorded absence.
        self.norms.remove(&key);
        // Any warm copy of this block is now stale (the fresh payload is
        // dirty in the local cache until the next flush republishes it).
        if let Some(w) = &self.warm {
            w.invalidate(&self.path_of(&key));
        }
        match mode {
            PutMode::Replace => {
                self.make_room()?;
                self.insert(key, data, true);
            }
            PutMode::Accumulate => {
                // Accumulate needs the current value (cache or disk).
                let mut cur = self.load(key)?;
                cur.make_mut().accumulate(&data);
                self.insert(key, cur, true);
            }
        }
        Ok(())
    }

    /// True the first time a tracked op id is seen in the dedup window; a
    /// repeat (a sender retry, fabric duplication, or chunk re-execution) is
    /// counted and must not be applied again — though it is still
    /// acknowledged, so the sender's retry loop settles. Blocks and norm
    /// records share the one window. Untracked ops always apply.
    fn first_delivery(&mut self, op: OpId) -> bool {
        if op.is_tracked() && self.applied_ops.insert(op.0, self.epoch).is_some() {
            self.stats.dup_prepares_suppressed += 1;
            return false;
        }
        true
    }

    /// Served arrays are the only ones homed here; a fetch or store of any
    /// other kind was addressed to the wrong role.
    fn check_served(&self, what: &str, key: &BlockKey) -> Result<(), RuntimeError> {
        if self.layout.array_kind(key.array) == ArrayKind::Served {
            return Ok(());
        }
        Err(RuntimeError::Internal(format!(
            "protocol error: I/O server {} received a {what} of non-served block {key:?}",
            self.endpoint.rank()
        )))
    }

    /// Commits a served epoch: flushes everything dirty, records the epoch
    /// in this server's manifest, and prunes the duplicate-suppression
    /// window (nothing can retry across two committed epochs).
    fn mark_epoch(&mut self, epoch: u64) -> Result<(), RuntimeError> {
        self.flush_all()?;
        self.epoch = epoch;
        let path = self
            .dir
            .join(format!("manifest_r{}.txt", self.endpoint.rank().0));
        let tmp = staging_path(&path);
        fs::write(&tmp, format!("{epoch}\n"))
            .and_then(|_| fs::rename(&tmp, &path))
            .map_err(|e| RuntimeError::ServedIo(format!("manifest {}: {e}", path.display())))?;
        self.applied_ops.retain(|_, e| *e + 2 > epoch);
        Ok(())
    }

    fn delete_array(&mut self, array: sia_bytecode::ArrayId) -> Result<(), RuntimeError> {
        self.cache.retain(|k, _| k.array != array);
        self.clean.retain(|_, k| k.array != array);
        self.dirty.retain(|_, k| k.array != array);
        self.norms.retain(|k, _| k.array != array);
        let prefix = format!("a{}_", array.0);
        if let Some(w) = &self.warm {
            w.invalidate_prefix(&self.dir, &prefix);
        }
        let entries =
            fs::read_dir(&self.dir).map_err(|e| RuntimeError::ServedIo(format!("readdir: {e}")))?;
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    /// Flushes all dirty blocks (shutdown).
    pub fn flush_all(&mut self) -> Result<(), RuntimeError> {
        while self.flush_one()? {}
        Ok(())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Runs the server's message loop until shutdown.
    pub fn run(&mut self) -> Result<ServerStats, RuntimeError> {
        let mut last_message = Instant::now();
        loop {
            // Write-behind is the server's only timer, and it holds it only
            // while a block is dirty. Replies and acks are staged: the
            // receive ships them once the inbox is drained, before it
            // parks, so a burst is answered with one envelope per worker.
            let deadline = (!self.dirty.is_empty()).then_some(last_message + WRITE_BEHIND_IDLE);
            match self.endpoint.recv_deadline(deadline) {
                Some(env) => {
                    last_message = Instant::now();
                    let src = env.src;
                    match env.msg {
                        SipMsg::Fetch { key, req } => {
                            self.check_served("fetch", &key)?;
                            // A sparse block with no payload anywhere is
                            // typed-absent: ship the norm bound instead of
                            // materializing and caching a zero block.
                            let payload =
                                if self.layout.array_sparse(key.array) && self.is_absent(&key) {
                                    Payload::Absent {
                                        norm: self.norms.get(&key).copied().unwrap_or(0.0),
                                    }
                                } else {
                                    let t0 = Instant::now();
                                    let reads0 = self.stats.disk_reads;
                                    let data = self.load(key)?;
                                    let disk = self.stats.disk_reads > reads0;
                                    self.trace.span_since(EventKind::Serve { key, disk }, t0);
                                    Payload::Data(data)
                                };
                            let _ = self
                                .endpoint
                                .stage(src, SipMsg::Block { key, payload, req });
                        }
                        SipMsg::Store {
                            key,
                            payload,
                            mode,
                            op,
                        } => {
                            self.check_served("store", &key)?;
                            if self.first_delivery(op) {
                                match payload {
                                    Payload::Data(data) => self.prepare(key, data, mode)?,
                                    Payload::Absent { norm } => {
                                        self.prepare_absent(key, norm, mode)
                                    }
                                }
                            }
                            let _ = self.endpoint.stage(src, SipMsg::StoreAck { key, op });
                        }
                        SipMsg::EpochMark { epoch } => {
                            self.mark_epoch(epoch)?;
                            let _ = self
                                .endpoint
                                .send(self.layout.topology.master(), SipMsg::EpochAck { epoch });
                        }
                        SipMsg::DeleteArray { array } => {
                            self.delete_array(array)?;
                        }
                        SipMsg::Shutdown => {
                            self.flush_all()?;
                            // Ship counters (and recorded events) to the
                            // master, which is draining its inbox for these
                            // after the shutdown broadcast.
                            let (events, dropped) = self.trace.drain();
                            let _ = self.endpoint.send(
                                self.layout.topology.master(),
                                SipMsg::ServerDone {
                                    stats: self.stats,
                                    events,
                                    dropped,
                                },
                            );
                            return Ok(self.stats);
                        }
                        _ => {}
                    }
                }
                None if self.endpoint.shutdown_raised() || self.endpoint.is_crashed() => {
                    self.flush_all()?;
                    return Ok(self.stats);
                }
                // Idle: lazy write-behind makes progress.
                None => {
                    self.flush_one()?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{SegmentConfig, Topology};
    use sia_bytecode::{
        ArrayDecl, ArrayId, ArrayKind, ConstBindings, IndexDecl, IndexId, IndexKind, Program, Value,
    };
    use std::sync::Arc;

    fn test_layout() -> Arc<Layout> {
        let program = Program {
            indices: vec![IndexDecl {
                name: "i".into(),
                kind: IndexKind::AoIndex,
                low: Value::Lit(1),
                high: Value::Lit(4),
            }],
            arrays: vec![ArrayDecl {
                name: "S".into(),
                kind: ArrayKind::Served,
                dims: vec![IndexId(0), IndexId(0)],
                sparse: false,
            }],
            ..Default::default()
        };
        Arc::new(
            Layout::new(
                Arc::new(program),
                &ConstBindings::new(),
                SegmentConfig {
                    default: 4,
                    ..Default::default()
                },
                Topology::new(1, 1),
            )
            .unwrap(),
        )
    }

    fn test_server(dir: &Path, capacity: usize) -> IoServer {
        let (mut eps, _) = sia_fabric::build::<SipMsg>(3);
        let ep = eps.remove(2);
        IoServer::new(test_layout(), ep, dir.to_path_buf(), capacity).unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "sia-io-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn blk(v: f64) -> BlockHandle {
        BlockHandle::new(Block::filled(Shape::new(&[4, 4]), v))
    }

    #[test]
    fn prepare_then_request_roundtrip() {
        let dir = tmpdir("rt");
        let mut s = test_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[1, 2]);
        s.prepare(key, blk(3.0), PutMode::Replace).unwrap();
        let got = s.load(key).unwrap();
        assert_eq!(got, blk(3.0));
        assert_eq!(s.stats().cache_hits, 1);
    }

    #[test]
    fn unprepared_block_reads_zero() {
        let dir = tmpdir("zero");
        let mut s = test_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[3, 3]);
        let got = s.load(key).unwrap();
        assert!(got.data().iter().all(|&x| x == 0.0));
        assert_eq!(s.stats().zero_serves, 1);
    }

    #[test]
    fn eviction_flushes_and_disk_survives() {
        let dir = tmpdir("evict");
        let mut s = test_server(&dir, 2);
        let k1 = BlockKey::new(ArrayId(0), &[1, 1]);
        let k2 = BlockKey::new(ArrayId(0), &[2, 2]);
        let k3 = BlockKey::new(ArrayId(0), &[3, 3]);
        s.prepare(k1, blk(1.0), PutMode::Replace).unwrap();
        s.prepare(k2, blk(2.0), PutMode::Replace).unwrap();
        s.prepare(k3, blk(3.0), PutMode::Replace).unwrap();
        // k1 must have been flushed to disk before eviction; reading it back
        // must hit disk, not zeros.
        let got = s.load(k1).unwrap();
        assert_eq!(got, blk(1.0));
        assert!(s.stats().disk_writes >= 1);
        assert!(s.stats().disk_reads >= 1);
    }

    #[test]
    fn flush_all_persists_everything() {
        let dir = tmpdir("flush");
        let key = BlockKey::new(ArrayId(0), &[4, 4]);
        {
            let mut s = test_server(&dir, 8);
            s.prepare(key, blk(9.0), PutMode::Replace).unwrap();
            s.flush_all().unwrap();
        }
        // A brand-new server over the same directory sees the data.
        let mut s2 = test_server(&dir, 8);
        assert_eq!(s2.load(key).unwrap(), blk(9.0));
        assert_eq!(s2.stats().disk_reads, 1);
    }

    #[test]
    fn delete_array_removes_cache_and_files() {
        let dir = tmpdir("del");
        let mut s = test_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[1, 4]);
        s.prepare(key, blk(5.0), PutMode::Replace).unwrap();
        s.flush_all().unwrap();
        s.delete_array(ArrayId(0)).unwrap();
        let got = s.load(key).unwrap();
        assert!(
            got.data().iter().all(|&x| x == 0.0),
            "deleted block reads zero"
        );
    }

    #[test]
    fn block_file_format_roundtrips() {
        let dir = tmpdir("fmt");
        let path = dir.join("x.blk");
        let b = Block::from_fn(Shape::new(&[2, 3]), |i| (i[0] * 3 + i[1]) as f64);
        write_block_file(&path, &b).unwrap();
        let back = read_block_file(&path).unwrap().unwrap();
        assert_eq!(b, back);
        assert!(read_block_file(&dir.join("missing.blk")).unwrap().is_none());
    }

    /// Regression: the staging name used to be `<file>.tmp` for every writer,
    /// so two servers of one shared directory (two daemon jobs) flushing the
    /// same block raced — one renamed the other's half-written bytes, the
    /// loser's rename then failed.
    #[test]
    fn two_servers_flushing_one_file_do_not_collide() {
        const ROUNDS: usize = 1000;
        let dir = tmpdir("shared");
        let key = BlockKey::new(ArrayId(0), &[2, 2]);
        let file = dir.join(key_filename(&key));
        assert_ne!(
            staging_path(&file),
            staging_path(&file),
            "one name per write"
        );
        // Both threads leave the barrier into `flush_all` together, every
        // round.
        let start = Arc::new(std::sync::Barrier::new(2));
        let writers: Vec<_> = [1.0, 2.0]
            .into_iter()
            .map(|v| {
                let (dir, start) = (dir.clone(), Arc::clone(&start));
                std::thread::spawn(move || -> Result<(), RuntimeError> {
                    let mut s = test_server(&dir, 8);
                    // A failed round still meets the other thread at the
                    // barrier, so a collision fails the test, not hangs it.
                    let mut outcome = Ok(());
                    for _ in 0..ROUNDS {
                        let prepared = s.prepare(key, blk(v), PutMode::Replace);
                        start.wait();
                        outcome = outcome.and(prepared).and(s.flush_all());
                    }
                    outcome
                })
            })
            .collect();
        for w in writers {
            w.join()
                .unwrap()
                .expect("no ServedIo error from a shared directory");
        }
        let last = read_block_file(&file).unwrap().unwrap();
        assert!(
            last == *blk(1.0) || last == *blk(2.0),
            "one writer's whole payload"
        );
        let leftovers = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .count();
        assert_eq!(leftovers, 0, "every staged file was renamed");
    }

    /// A block file is outside input: every truncation and every header no
    /// shape can have is a typed `ServedIo` error — never a panic, never an
    /// allocation sized by the file's own claims.
    #[test]
    fn corrupt_block_files_are_typed_errors() {
        let dir = tmpdir("corrupt");
        let path = dir.join("x.blk");
        let b = Block::from_fn(Shape::new(&[2, 3]), |i| (i[0] * 3 + i[1]) as f64);
        write_block_file(&path, &b).unwrap();
        let valid = fs::read(&path).unwrap();
        assert_eq!(parse_block_file(&valid), Some(b));

        let patched = |at: usize, word: u32| {
            let mut raw = valid.clone();
            raw[at..at + 4].copy_from_slice(&word.to_le_bytes());
            raw
        };
        let mut corrupt: Vec<Vec<u8>> = (0..valid.len()).map(|cut| valid[..cut].to_vec()).collect();
        corrupt.push(patched(0, 9)); // rank over MAX_RANK
        corrupt.push(patched(0, u32::MAX)); // rank no file could back
        corrupt.push(patched(4, 0)); // zero extent
        corrupt.push(patched(4, u32::MAX)); // extent the payload cannot back
        corrupt.push([valid.as_slice(), &[0u8; 8]].concat()); // trailing bytes
        for raw in corrupt {
            fs::write(&path, &raw).unwrap();
            match read_block_file(&path) {
                Err(RuntimeError::ServedIo(m)) => assert!(m.contains("corrupt"), "{m}"),
                other => panic!("{} bytes decoded to {other:?}", raw.len()),
            }
        }
    }

    #[test]
    fn epoch_mark_flushes_and_writes_manifest() {
        let dir = tmpdir("epoch");
        let mut s = test_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[1, 2]);
        assert!(s.first_delivery(OpId(7)));
        s.prepare(key, blk(4.0), PutMode::Replace).unwrap();
        s.mark_epoch(1).unwrap();
        assert!(s.stats().disk_writes >= 1, "mark flushes dirty blocks");
        let manifest = dir.join(format!("manifest_r{}.txt", s.endpoint.rank().0));
        assert_eq!(fs::read_to_string(manifest).unwrap().trim(), "1");
        // The suppression window prunes entries two epochs back.
        s.mark_epoch(2).unwrap();
        s.mark_epoch(3).unwrap();
        assert!(
            !s.applied_ops.contains_key(&7),
            "old applied ops are pruned"
        );
    }

    #[test]
    fn delete_array_clears_norm_table() {
        let dir = tmpdir("absdel");
        let mut s = test_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[1, 3]);
        s.prepare_absent(key, 0.5, PutMode::Replace);
        s.delete_array(ArrayId(0)).unwrap();
        assert!(s.norms.is_empty());
    }

    /// The eviction and flush orders are an index over the cache: whatever
    /// mix of stores, loads, norm records and flushes ran, every cached key
    /// sits in the order of its kind under its own stamp, and nowhere else.
    #[test]
    fn lru_orders_track_the_cache() {
        let dir = tmpdir("orders");
        let mut s = test_server(&dir, 4);
        for step in 0..600i64 {
            let key = BlockKey::new(ArrayId(0), &[1 + step * 7 % 4, 1 + step * 5 % 3]);
            match step % 7 {
                0 | 1 => s.prepare(key, blk(step as f64), PutMode::Replace).unwrap(),
                2 => s.prepare(key, blk(1.0), PutMode::Accumulate).unwrap(),
                3 | 4 => drop(s.load(key).unwrap()),
                5 => drop(s.flush_one().unwrap()),
                _ => s.prepare_absent(key, 0.5, PutMode::Replace),
            }
            if step % 97 == 96 {
                s.delete_array(ArrayId(0)).unwrap();
            }
            assert!(s.cache.len() <= s.capacity, "step {step}");
            assert_eq!(s.clean.len() + s.dirty.len(), s.cache.len(), "step {step}");
            for (k, e) in &s.cache {
                let order = if e.dirty { &s.dirty } else { &s.clean };
                assert_eq!(order.get(&e.stamp), Some(k), "step {step}");
            }
        }
    }

    #[test]
    fn lazy_write_behind_flushes_one_at_a_time() {
        let dir = tmpdir("lazy");
        let mut s = test_server(&dir, 8);
        for i in 1..=3 {
            s.prepare(
                BlockKey::new(ArrayId(0), &[i, i]),
                blk(i as f64),
                PutMode::Replace,
            )
            .unwrap();
        }
        assert_eq!(s.stats().disk_writes, 0, "prepares are lazy");
        assert!(s.flush_one().unwrap());
        assert_eq!(s.stats().disk_writes, 1);
        assert!(s.flush_one().unwrap());
        assert!(s.flush_one().unwrap());
        assert!(!s.flush_one().unwrap(), "nothing left to flush");
    }
}
