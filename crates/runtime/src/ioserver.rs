//! I/O servers: the disk tier behind SIAL `served` arrays.
//!
//! "Each I/O server contains a cache for served array blocks. Blocks
//! arriving as a result of a prepare command are placed in the cache and
//! lazily written to disk … Replacement is done using a LRU strategy. All
//! operations of an I/O server are non-blocking." (§V-B)
//!
//! Our server keeps an LRU write-behind cache over one store file per
//! served array (`store.rs`: a block lives at a computed slot). While
//! it holds dirty blocks it waits for the next message only until
//! `WRITE_BEHIND_IDLE` after the last one, then flushes one dirty block per
//! look at the inbox, so a long prepare burst never blocks request service —
//! the in-process analogue of the original's asynchronous I/O. A clean
//! server has no timer and blocks until a message arrives.

use crate::error::RuntimeError;
use crate::events::{EventKind, TraceSink};
use crate::ft::AppliedOps;
use crate::layout::Layout;
use crate::msg::{BlockKey, KeyMap, OpId, Payload, SipMsg};
use crate::store::Store;
use sia_blocks::BlockHandle;
use sia_bytecode::{ArrayId, ArrayKind, PutMode};
use sia_fabric::Endpoint;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
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

/// The store of every served array the program declares.
type Stores = HashMap<ArrayId, Store>;

/// Where `key` lives: its array's store and its slot in it. Served arrays
/// are the only ones homed at an I/O server; a fetch or store of anything
/// else — another kind of array, a segment outside the declared ranges — was
/// addressed to the wrong role.
fn locate<'a>(
    stores: &'a mut Stores,
    layout: &Layout,
    key: &BlockKey,
) -> Result<(&'a mut Store, u64), RuntimeError> {
    match (stores.get_mut(&key.array), layout.block_ordinal(key)) {
        (Some(store), Some(slot)) => Ok((store, slot)),
        _ => Err(RuntimeError::Internal(format!(
            "protocol error: an I/O server was sent {key:?}, no block of a served array"
        ))),
    }
}

/// One I/O server: an LRU write-behind cache over the served arrays' store
/// files.
pub struct IoServer {
    layout: Arc<Layout>,
    endpoint: Endpoint<SipMsg>,
    stores: Stores,
    capacity: usize,
    cache: KeyMap<Entry>,
    /// Eviction order and flush order: every cached key is in exactly one
    /// of the two, under its entry's stamp. The server consults them per
    /// message (is anything dirty?) and per insertion into a full cache
    /// (which entry goes?), so neither may cost a walk over the cache.
    clean: LruOrder,
    dirty: LruOrder,
    /// Norm table for sparse served arrays: blocks whose prepare was dropped
    /// under the sparsity threshold, keyed to the recorded Frobenius-norm
    /// bound. A key with a resident (cache or disk) payload is never here.
    norms: KeyMap<f64>,
    clock: u64,
    stats: ServerStats,
    /// Applied prepare op ids (duplicate suppression; pruned at each
    /// `EpochMark`).
    applied_ops: AppliedOps,
    /// Completed served epochs (advanced by `EpochMark`).
    epoch: u64,
    /// Event recorder (disabled unless the runtime installs a live sink).
    trace: TraceSink,
}

impl IoServer {
    /// Creates a server keeping the served arrays' store files under `dir`
    /// (created if absent).
    pub fn new(
        layout: Arc<Layout>,
        endpoint: Endpoint<SipMsg>,
        dir: PathBuf,
        capacity: usize,
    ) -> Result<Self, RuntimeError> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| RuntimeError::ServedIo(format!("create {}: {e}", dir.display())))?;
        let stores = (0..layout.program.arrays.len() as u32)
            .map(ArrayId)
            .filter(|&array| layout.array_kind(array) == ArrayKind::Served)
            .map(|array| (array, Store::new(&dir, &layout, array)))
            .collect();
        Ok(IoServer {
            layout,
            endpoint,
            stores,
            capacity: capacity.max(1),
            cache: KeyMap::default(),
            clean: LruOrder::new(),
            dirty: LruOrder::new(),
            norms: KeyMap::default(),
            clock: 0,
            stats: ServerStats::default(),
            applied_ops: AppliedOps::default(),
            epoch: 0,
            trace: TraceSink::disabled(),
        })
    }

    /// Installs the event sink (called by the runtime before `run`).
    pub(crate) fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
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
        let (store, slot) = locate(&mut self.stores, &self.layout, &key)?;
        let entry = self.cache.get_mut(&key).expect("ordered key is cached");
        store.write(slot, &entry.block)?;
        entry.dirty = false;
        self.dirty.remove(&stamp);
        self.clean.insert(stamp, key);
        self.stats.disk_writes += 1;
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

    /// The block `key` holds — from the cache, else from the store — or
    /// `None` when it has no payload anywhere: the typed-absent state of a
    /// sparse served block.
    fn resident(&mut self, key: BlockKey) -> Result<Option<BlockHandle>, RuntimeError> {
        if let Some(e) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            // The served copy aliases the cache entry: the reply envelope
            // rides on the same allocation.
            let (block, dirty) = (e.block.clone(), e.dirty);
            self.insert(key, block.clone(), dirty);
            return Ok(Some(block));
        }
        let (store, slot) = locate(&mut self.stores, &self.layout, &key)?;
        let Some(block) = store.load(slot)? else {
            return Ok(None);
        };
        self.stats.disk_reads += 1;
        let block = BlockHandle::from(block);
        self.make_room()?;
        self.insert(key, block.clone(), false);
        Ok(Some(block))
    }

    fn load(&mut self, key: BlockKey) -> Result<BlockHandle, RuntimeError> {
        if let Some(block) = self.resident(key)? {
            return Ok(block);
        }
        // Never prepared: zeros, consistent with lazy allocation.
        self.stats.zero_serves += 1;
        let zeros = BlockHandle::zeros(self.layout.declared_block_shape(key.array));
        self.make_room()?;
        self.insert(key, zeros.clone(), false);
        Ok(zeros)
    }

    /// What a fetch of `key` is answered with.
    fn fetch(&mut self, key: BlockKey) -> Result<Payload, RuntimeError> {
        let t0 = Instant::now();
        let reads0 = self.stats.disk_reads;
        let data = if self.layout.array_sparse(key.array) {
            // An absent block ships its norm bound instead of being
            // materialized and cached as zeros.
            let Some(data) = self.resident(key)? else {
                let norm = self.norms.get(&key).copied().unwrap_or(0.0);
                return Ok(Payload::Absent { norm });
            };
            data
        } else {
            self.load(key)?
        };
        let disk = self.stats.disk_reads > reads0;
        if self.trace.is_on() {
            self.trace
                .span_between(EventKind::Serve { key, disk }, t0, Instant::now());
        }
        Ok(Payload::Data(data))
    }

    /// Applies a dropped (norm-only) prepare: a Replace removes any resident
    /// payload and records the bound; an Accumulate onto a resident block is
    /// a no-op, onto an absent one it accumulates the bound. Whether a
    /// payload is resident is asked of the cache, then of the slot's head
    /// stamp: no block is read for it.
    fn prepare_absent(
        &mut self,
        key: BlockKey,
        norm: f64,
        mode: PutMode,
    ) -> Result<(), RuntimeError> {
        self.stats.prepares += 1;
        match mode {
            PutMode::Replace => {
                self.remove(&key);
                let (store, slot) = locate(&mut self.stores, &self.layout, &key)?;
                store.clear(slot)?;
                self.norms.insert(key, norm);
            }
            PutMode::Accumulate => {
                let (store, slot) = locate(&mut self.stores, &self.layout, &key)?;
                if !self.cache.contains_key(&key) && !store.present(slot)? {
                    let prior = self.norms.get(&key).copied().unwrap_or(0.0);
                    self.norms.insert(key, prior + norm);
                }
            }
        }
        Ok(())
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
        if op.is_tracked() && !self.applied_ops.note(op.0, self.epoch) {
            self.stats.dup_prepares_suppressed += 1;
            return false;
        }
        true
    }

    /// Commits a served epoch: flushes everything dirty and prunes the
    /// duplicate-suppression window (nothing can retry across two committed
    /// epochs). The `EpochAck` that follows is the commit signal; the
    /// master alone records the epoch on disk.
    fn mark_epoch(&mut self, epoch: u64) -> Result<(), RuntimeError> {
        self.flush_all()?;
        self.epoch = epoch;
        self.applied_ops.prune(epoch);
        Ok(())
    }

    fn delete_array(&mut self, array: ArrayId) -> Result<(), RuntimeError> {
        self.cache.retain(|k, _| k.array != array);
        self.clean.retain(|_, k| k.array != array);
        self.dirty.retain(|_, k| k.array != array);
        self.norms.retain(|k, _| k.array != array);
        match self.stores.get_mut(&array) {
            Some(store) => store.delete(),
            None => Ok(()),
        }
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

    /// Runs the server's message loop until shutdown. An error goes to the
    /// master too, which ends the run: workers wait on this server's replies.
    pub fn run(&mut self) -> Result<ServerStats, RuntimeError> {
        let out = self.serve();
        if let Err(e) = &out {
            let error = e.to_string();
            let master = self.layout.topology.master();
            let _ = self.endpoint.send(master, SipMsg::WorkerFailed { error });
        }
        out
    }

    fn serve(&mut self) -> Result<ServerStats, RuntimeError> {
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
                        SipMsg::Fetch { key, req, .. } => {
                            let payload = self.fetch(key)?;
                            let _ = self
                                .endpoint
                                .stage(src, SipMsg::Block { key, payload, req });
                        }
                        SipMsg::Store {
                            key,
                            payload,
                            mode,
                            op,
                            ..
                        } => {
                            locate(&mut self.stores, &self.layout, &key)?;
                            if self.first_delivery(op) {
                                match payload {
                                    Payload::Data(data) => self.prepare(key, data, mode)?,
                                    Payload::Absent { norm } => {
                                        self.prepare_absent(key, norm, mode)?
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
    use sia_blocks::{Block, Shape};
    use sia_bytecode::{
        ArrayDecl, ArrayId, ArrayKind, ConstBindings, IndexDecl, IndexId, IndexKind, Program, Value,
    };
    use std::fs;
    use std::path::Path;
    use std::sync::Arc;

    fn test_layout() -> Arc<Layout> {
        layout_of(4)
    }

    /// Two served arrays, `S` dense and `Z` sparse, of 4×4 blocks of
    /// `seg`×`seg` elements.
    fn layout_of(seg: usize) -> Arc<Layout> {
        let program = Program {
            indices: vec![IndexDecl {
                name: "i".into(),
                kind: IndexKind::AoIndex,
                low: Value::Lit(1),
                high: Value::Lit(4),
            }],
            arrays: [false, true]
                .map(|sparse| ArrayDecl {
                    name: if sparse { "Z" } else { "S" }.into(),
                    kind: ArrayKind::Served,
                    dims: vec![IndexId(0), IndexId(0)],
                    sparse,
                })
                .into(),
            ..Default::default()
        };
        Arc::new(
            Layout::new(
                Arc::new(program),
                &ConstBindings::new(),
                SegmentConfig {
                    default: seg,
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
        // Another server of the directory has the store open by now.
        let mut other = test_server(&dir, 8);
        let elsewhere = BlockKey::new(ArrayId(0), &[2, 2]);
        assert_eq!(other.load(elsewhere).unwrap(), blk(0.0));
        s.delete_array(ArrayId(0)).unwrap();
        for server in [&mut s, &mut other] {
            assert_eq!(
                server.load(key).unwrap(),
                blk(0.0),
                "deleted block reads zero"
            );
        }
        // It is still one store they share, not one file each.
        other
            .prepare(elsewhere, blk(7.0), PutMode::Replace)
            .unwrap();
        other.flush_all().unwrap();
        assert_eq!(s.load(elsewhere).unwrap(), blk(7.0));
        assert_eq!(store_file(&s).1.len(), HEADER + 6 * (8 + 16 * 8 + 8));
    }

    /// Deleting an array nobody has stored leaves the directory empty — no
    /// header-only store file — while a store another server created is
    /// emptied even by a server that never opened it.
    #[test]
    fn delete_of_a_never_touched_array_creates_no_file() {
        let dir = tmpdir("untouched");
        test_server(&dir, 8).delete_array(ArrayId(0)).unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "nothing created");
        let key = BlockKey::new(ArrayId(0), &[2, 3]);
        let mut writer = test_server(&dir, 8);
        writer.prepare(key, blk(5.0), PutMode::Replace).unwrap();
        writer.flush_all().unwrap();
        test_server(&dir, 8).delete_array(ArrayId(0)).unwrap();
        assert_eq!(
            store_file(&writer).1.len(),
            HEADER,
            "cut back to the header"
        );
    }

    /// A store header over `test_layout`: magic, rank, 2 × (extent, low, high).
    const HEADER: usize = 8 + 8 + 2 * 3 * 8;

    /// The store `s` keeps array 0 in, and the bytes of its file.
    fn store_file(s: &IoServer) -> (PathBuf, Vec<u8>) {
        let path = s.stores[&ArrayId(0)].path.clone();
        let raw = fs::read(&path).unwrap();
        (path, raw)
    }

    #[test]
    fn store_layout_is_header_then_slots_by_ordinal() {
        let dir = tmpdir("fmt");
        let mut s = test_server(&dir, 8);
        // (2,3) of a 4×4 block grid is ordinal 1·4 + 2 = 6.
        let key = BlockKey::new(ArrayId(0), &[2, 3]);
        let b = Block::from_fn(Shape::new(&[4, 4]), |i| (i[0] * 4 + i[1]) as f64);
        s.prepare(key, b.clone().into(), PutMode::Replace).unwrap();
        s.flush_all().unwrap();
        let (path, raw) = store_file(&s);
        assert_eq!(path, dir.join("a0.srv"));
        let (header, slot) = (HEADER, 8 + 16 * 8 + 8);
        assert_eq!(
            raw.len(),
            header + 7 * slot,
            "ends with the last slot written"
        );
        // Rank 2, then extent 4 over segments 1..=4 in both dimensions.
        let words = [2u64, 4, 1, 4, 4, 1, 4].map(u64::to_le_bytes).concat();
        assert_eq!(raw[..header], [b"SIASRV01".as_slice(), &words].concat());
        assert!(
            raw[header..header + 6 * slot].iter().all(|&x| x == 0),
            "holes"
        );
        let written = &raw[header + 6 * slot..];
        assert_ne!(written[..8], [0; 8]);
        let payload = &written[8..slot - 8];
        assert_eq!(
            Block::from_le_bytes(Shape::new(&[4, 4]), payload).as_ref(),
            Some(&b)
        );
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "nothing beside it");
        // The seal is the stamp XOR a fold of the payload: a rewrite of the
        // same block takes a new stamp and leaves their XOR alone, another
        // payload does not.
        let sealed = |raw: &[u8]| {
            let word = |at: usize| u64::from_le_bytes(raw[at..at + 8].try_into().unwrap());
            let at = header + 6 * slot;
            (word(at), word(at) ^ word(at + slot - 8))
        };
        let (stamp, fold) = sealed(&raw);
        s.prepare(key, b.into(), PutMode::Replace).unwrap();
        s.flush_all().unwrap();
        let (restamp, refold) = sealed(&store_file(&s).1);
        assert_ne!(restamp, stamp);
        assert_eq!(refold, fold);
        s.prepare(key, blk(1.0), PutMode::Replace).unwrap();
        s.flush_all().unwrap();
        assert_ne!(sealed(&store_file(&s).1).1, fold);
    }

    /// Two servers of one shared directory (two daemon jobs) flushing the
    /// same block at once: every round leaves one writer's whole slot — the
    /// positioned writes neither interleave nor clobber the header.
    #[test]
    fn two_servers_flushing_one_slot_do_not_collide() {
        const ROUNDS: usize = 1000;
        let dir = tmpdir("shared");
        let key = BlockKey::new(ArrayId(0), &[2, 2]);
        // Both threads leave the barrier into `flush_all` together, every
        // round, and meet again before either reads the slot back.
        let sync = Arc::new(std::sync::Barrier::new(2));
        let writers: Vec<_> = [1.0, 2.0]
            .into_iter()
            .map(|v| {
                let (dir, sync) = (dir.clone(), Arc::clone(&sync));
                std::thread::spawn(move || -> Result<(), RuntimeError> {
                    // Capacity 1: the read-back below misses the cache.
                    let mut s = test_server(&dir, 1);
                    let other = BlockKey::new(ArrayId(0), &[4, 4]);
                    // A failed round still meets the other thread at the
                    // barriers, so a collision fails the test, not hangs it.
                    let mut outcome = Ok(());
                    for _ in 0..ROUNDS {
                        let prepared = s.prepare(key, blk(v), PutMode::Replace);
                        sync.wait();
                        let flushed = s.flush_all();
                        sync.wait();
                        let read = s.load(other).and_then(|_| s.load(key)).map(|got| {
                            assert!(got == blk(1.0) || got == blk(2.0), "a mixed slot");
                        });
                        outcome = outcome.and(prepared).and(flushed).and(read);
                        sync.wait();
                    }
                    assert_eq!(
                        s.stats().disk_reads,
                        ROUNDS as u64,
                        "every read hit the file"
                    );
                    outcome
                })
            })
            .collect();
        for w in writers {
            w.join()
                .unwrap()
                .expect("no ServedIo error from a shared store");
        }
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "one store file");
    }

    /// A store file is outside input: a header cut anywhere, or naming a
    /// rank, an extent, a range or a block shape this run does not declare,
    /// is a typed `ServedIo` error on the first touch — never a panic, an
    /// allocation sized by the file's own claims, or blocks read at the
    /// offsets of another geometry.
    #[test]
    fn foreign_or_corrupt_store_headers_are_typed_errors() {
        let dir = tmpdir("header");
        let key = BlockKey::new(ArrayId(0), &[1, 1]);
        let (path, valid) = {
            let mut s = test_server(&dir, 8);
            s.prepare(key, blk(3.0), PutMode::Replace).unwrap();
            s.flush_all().unwrap();
            store_file(&s)
        };
        let patched = |at: usize, word: u64| {
            let mut raw = valid.clone();
            raw[at..at + 8].copy_from_slice(&word.to_le_bytes());
            raw
        };
        let (rank_at, extent0_at, high0_at, extent1_at) = (8, 16, 32, 40);
        let mut corrupt: Vec<Vec<u8>> = (0..HEADER).map(|cut| valid[..cut].to_vec()).collect();
        corrupt.push(patched(0, u64::from_le_bytes(*b"NOTASTOR")));
        corrupt.push(patched(rank_at, 9));
        corrupt.push(patched(rank_at, u64::MAX));
        corrupt.push(patched(rank_at, 1));
        corrupt.push(patched(extent0_at, 0));
        corrupt.push(patched(extent0_at, u64::MAX));
        corrupt.push(patched(high0_at, i64::MAX as u64));
        corrupt.push(patched(extent1_at, 8)); // 4×8 blocks
        for raw in corrupt {
            fs::write(&path, &raw).unwrap();
            let mut s = test_server(&dir, 8);
            for touched in [
                s.load(key).map(drop),
                s.prepare(key, blk(1.0), PutMode::Replace)
                    .and_then(|_| s.flush_all()),
                s.prepare_absent(key, 0.5, PutMode::Replace),
            ] {
                match touched {
                    Err(RuntimeError::ServedIo(m)) => {
                        assert!(m.contains("header") || m.contains("geometry"), "{m}")
                    }
                    other => panic!("{} bytes: {other:?}", raw.len()),
                }
            }
            assert_eq!(
                fs::read(&path).unwrap(),
                raw,
                "a refused file is left alone"
            );
        }
        // The valid file, and one that ends right after its header, serve.
        for (raw, want) in [(valid.clone(), 3.0), (valid[..HEADER].to_vec(), 0.0)] {
            fs::write(&path, raw).unwrap();
            assert_eq!(test_server(&dir, 8).load(key).unwrap(), blk(want));
        }
    }

    /// A slot that stays torn — cut short, or bytes its seal does not cover
    /// — is a typed error once the re-reads a racing writer would have won
    /// are spent.
    #[test]
    fn torn_slot_is_a_typed_error() {
        let dir = tmpdir("torn");
        let key = BlockKey::new(ArrayId(0), &[1, 1]);
        let (path, valid) = {
            let mut s = test_server(&dir, 8);
            s.prepare(key, blk(3.0), PutMode::Replace).unwrap();
            s.flush_all().unwrap();
            store_file(&s)
        };
        let flipped = |at: usize| {
            let mut raw = valid.clone();
            raw[at] ^= 1;
            raw
        };
        let slot = 8 + 16 * 8 + 8;
        assert_eq!(valid.len(), HEADER + slot);
        // A cut that keeps only zero bytes of the stamp is a never-prepared
        // slot, not a torn one — one stamp in 256 starts with a zero byte.
        let stamped = 1 + valid[HEADER..].iter().position(|&b| b != 0).unwrap();
        let torn = [
            valid[..HEADER + stamped].to_vec(),
            valid[..HEADER + 8].to_vec(),
            valid[..HEADER + slot / 2].to_vec(),
            valid[..HEADER + slot - 1].to_vec(),
            flipped(HEADER),            // another write's stamp
            flipped(HEADER + 8),        // another write's payload: first,
            flipped(HEADER + slot / 2), // middle
            flipped(HEADER + slot - 9), // and last byte
            flipped(HEADER + slot - 1), // another write's seal
        ];
        for raw in torn {
            fs::write(&path, &raw).unwrap();
            match test_server(&dir, 8).load(key) {
                Err(RuntimeError::ServedIo(m)) => assert!(m.contains("torn slot 0"), "{m}"),
                other => panic!("{} bytes: {other:?}", raw.len()),
            }
        }
    }

    /// A server reading a slot while another job's server rewrites it, with
    /// nothing between them but the file: the kernel copies the two
    /// transfers of an 8 KiB slot (three pages) side by side, so reads do
    /// come back pieced together from two writes — and each is caught by its
    /// seal and read again, never served and never an error.
    #[test]
    fn a_read_racing_a_write_of_its_slot_is_one_whole_block() {
        const ROUNDS: usize = 4000;
        let dir = tmpdir("race");
        let server = |capacity| {
            let (mut eps, _) = sia_fabric::build::<SipMsg>(3);
            IoServer::new(layout_of(32), eps.remove(2), dir.clone(), capacity).unwrap()
        };
        let filled = |v: f64| BlockHandle::new(Block::filled(Shape::new(&[32, 32]), v));
        let key = BlockKey::new(ArrayId(0), &[2, 2]);
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let (mut s, done) = (server(8), Arc::clone(&done));
            std::thread::spawn(move || -> Result<(), RuntimeError> {
                // The contended slot is one write in four, as in a sweep:
                // a reader that never finds it at rest has no whole block
                // to wait for.
                let written = (0..ROUNDS).try_for_each(|round| {
                    (1..=4).try_for_each(|j| {
                        let key = BlockKey::new(ArrayId(0), &[2, j]);
                        s.prepare(key, filled((round * 4) as f64 + j as f64), PutMode::Replace)
                    })?;
                    s.flush_all()
                });
                done.store(true, std::sync::atomic::Ordering::Release);
                written
            })
        };
        // Capacity 1: loading `other` evicts `key`, so every load of `key`
        // reads the slot.
        let mut s = server(1);
        let other = BlockKey::new(ArrayId(0), &[4, 4]);
        let mut last = 0.0;
        while !done.load(std::sync::atomic::Ordering::Acquire) {
            s.load(other).unwrap();
            let got = s.load(key).expect("a racing write is not an error");
            let v = got.data()[0];
            assert!(got.data().iter().all(|&x| x == v), "a mixed block");
            assert!(v >= last, "an older block after a newer one");
            last = v;
        }
        writer.join().unwrap().unwrap();
        assert!(s.stats().disk_reads > 100, "the reader kept reading");
    }

    #[test]
    fn hole_serves_zeros_dense_and_the_recorded_norm_sparse() {
        let dir = tmpdir("hole");
        let mut s = test_server(&dir, 8);
        // Neighbouring slots of both arrays are filled; (2,2) stays a hole.
        for array in [ArrayId(0), ArrayId(1)] {
            for segs in [[2, 1], [2, 3]] {
                s.prepare(BlockKey::new(array, &segs), blk(1.0), PutMode::Replace)
                    .unwrap();
            }
        }
        s.flush_all().unwrap();
        let (dense, sparse) = (
            BlockKey::new(ArrayId(0), &[2, 2]),
            BlockKey::new(ArrayId(1), &[2, 2]),
        );
        assert!(matches!(s.fetch(dense).unwrap(), Payload::Data(b) if b == blk(0.0)));
        assert_eq!(s.stats().zero_serves, 1);
        assert!(matches!(s.fetch(sparse).unwrap(), Payload::Absent { norm } if norm == 0.0));
        s.prepare_absent(sparse, 0.25, PutMode::Replace).unwrap();
        s.prepare_absent(sparse, 0.5, PutMode::Accumulate).unwrap();
        assert!(matches!(s.fetch(sparse).unwrap(), Payload::Absent { norm } if norm == 0.75));
        assert_eq!(
            s.stats().zero_serves,
            1,
            "an absent block is not materialized"
        );
    }

    #[test]
    fn replace_with_absent_clears_a_resident_slot() {
        let dir = tmpdir("clear");
        let mut s = test_server(&dir, 8);
        let key = BlockKey::new(ArrayId(1), &[3, 2]);
        s.prepare(key, blk(6.0), PutMode::Replace).unwrap();
        s.flush_all().unwrap();
        // An Accumulate-with-absent onto a resident block changes nothing,
        // and learns that from the cache or the slot's head stamp alone.
        for mut server in [test_server(&dir, 8), test_server(&dir, 8)] {
            server
                .prepare_absent(key, 0.5, PutMode::Accumulate)
                .unwrap();
            assert!(server.norms.is_empty() && server.cache.is_empty());
            assert_eq!(server.stats().disk_reads, 0, "no block read to ask");
        }
        s.prepare_absent(key, 0.5, PutMode::Accumulate).unwrap();
        assert!(matches!(s.fetch(key).unwrap(), Payload::Data(b) if b == blk(6.0)));
        s.prepare_absent(key, 0.125, PutMode::Replace).unwrap();
        // Neither this server's cache nor a fresh server's read finds it.
        for (mut server, recorded) in [(s, 0.125), (test_server(&dir, 8), 0.0)] {
            let reads = server.stats().disk_reads;
            let got = server.fetch(key).unwrap();
            assert!(matches!(got, Payload::Absent { norm } if norm == recorded));
            assert_eq!(server.load(key).unwrap(), blk(0.0));
            assert_eq!(server.stats().disk_reads, reads, "no block left to read");
        }
    }

    #[test]
    fn epoch_mark_flushes_and_prunes_applied_ops() {
        let dir = tmpdir("epoch");
        let mut s = test_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[1, 2]);
        assert!(s.first_delivery(OpId(7)));
        s.prepare(key, blk(4.0), PutMode::Replace).unwrap();
        s.mark_epoch(1).unwrap();
        assert!(s.stats().disk_writes >= 1, "mark flushes dirty blocks");
        // The suppression window prunes entries two epochs back.
        s.mark_epoch(2).unwrap();
        s.mark_epoch(3).unwrap();
        assert!(s.first_delivery(OpId(7)), "old applied ops are pruned");
    }

    #[test]
    fn delete_array_clears_norm_table() {
        let dir = tmpdir("absdel");
        let mut s = test_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[1, 3]);
        s.prepare_absent(key, 0.5, PutMode::Replace).unwrap();
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
                _ => s.prepare_absent(key, 0.5, PutMode::Replace).unwrap(),
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
