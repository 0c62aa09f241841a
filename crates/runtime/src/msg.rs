//! The SIP wire protocol: messages exchanged between master, workers, and
//! I/O servers over the fabric — and [`BlockKey`], the name of a block, with
//! the one map type the runtime keys by it.
//!
//! # Hashing block keys
//!
//! A home and a rank's local arrays find a block by its ordinal
//! ([`crate::layout::Layout::block_ordinal`], in [`crate::memory`]); every
//! other per-job map keyed by a block — the cache, the fault-tolerance
//! fetch table, the I/O server's cache and norm table, the master's
//! collection — is a [`KeyMap`]: a `HashMap` over [`KeyHasher`], which folds
//! the key's words with one multiply each where the standard library's
//! SipHash-1-3 spends ~20 ns on the 40 bytes. Block keys come out of the
//! job's own program, and a job's keys only ever populate that job's maps,
//! so there is no other party to defend the buckets against.
//!
//! The map hash is *not* [`BlockKey::placement_hash`] passed through: every
//! served key homed on one I/O server shares `placement_hash % servers`, and
//! the low bits are the ones hashbrown picks a bucket with — with two
//! servers a server's keys would crowd into every other bucket.

use sia_blocks::BlockHandle;
use sia_bytecode::{ArrayId, PutMode};
use sia_fabric::{Message, Rank, ReqId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Identifies one side-effecting operation (a PUT or PREPARE) so receivers
/// can suppress duplicates from retries, fabric-level duplication, or chunk
/// re-execution after a rank failure.
///
/// Ids are *content-derived* (instruction pc, index environment, epoch), not
/// allocated: a re-executed pardo iteration produces the same id on a
/// different worker, which is exactly what makes re-queueing chunks after a
/// crash idempotent. `OpId::NONE` marks untracked operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct OpId(pub u64);

impl OpId {
    /// The "untracked" sentinel.
    pub const NONE: OpId = OpId(0);

    /// True when the operation carries a real id.
    pub fn is_tracked(&self) -> bool {
        self.0 != 0
    }
}

impl std::fmt::Debug for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op{:x}", self.0)
    }
}

/// Most dimensions a block has ([`BlockKey`] stores its segments inline).
pub const MAX_RANK: usize = 8;

/// Identifies one block of one array by its segment numbers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BlockKey {
    /// The array.
    pub array: ArrayId,
    /// Segment number per dimension (1-based), padded with 0.
    pub segs: [i32; MAX_RANK],
    /// Number of meaningful entries in `segs`.
    pub rank: u8,
}

impl BlockKey {
    /// Builds a key from a slice of segment numbers.
    pub fn new(array: ArrayId, segs: &[i64]) -> Self {
        assert!(segs.len() <= MAX_RANK, "rank too large");
        let mut s = [0i32; MAX_RANK];
        for (i, &v) in segs.iter().enumerate() {
            s[i] = v as i32;
        }
        BlockKey {
            array,
            segs: s,
            rank: segs.len() as u8,
        }
    }

    /// The meaningful segment numbers.
    pub fn segs(&self) -> &[i32] {
        &self.segs[..self.rank as usize]
    }

    /// A stable small hash placing served blocks on I/O servers and the
    /// blocks of a dead worker on survivors. FNV-1a over array id and
    /// segments.
    pub fn placement_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        mix(self.array.0 as u64);
        for &s in self.segs() {
            mix(s as u64);
        }
        h
    }
}

/// Feeds the hasher whole words: array and rank, then the meaningful
/// segments two to a word. Padding is left out — `Eq` compares it, so equal
/// keys still hash alike.
impl Hash for BlockKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.array.0) | (u64::from(self.rank) << 32));
        for pair in self.segs().chunks(2) {
            let hi = pair.get(1).map_or(0, |&s| u64::from(s as u32));
            state.write_u64(u64::from(pair[0] as u32) | (hi << 32));
        }
    }
}

/// The hasher behind [`KeyMap`]: per word, rotate, xor the word in and
/// multiply by an odd constant; [`finish`](Hasher::finish) folds the high
/// half — where a product's mixing ends up — onto the low bits a hash table
/// indexes with.
#[derive(Clone, Copy, Default)]
pub struct KeyHasher(u64);

/// 2^64 / φ, odd.
const KEY_HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(KEY_HASH_MUL);
    }

    /// Keys feed whole words; anything else is folded eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A map keyed by block, hashed by [`KeyHasher`] (see the module docs).
pub type KeyMap<V> = HashMap<BlockKey, V, BuildHasherDefault<KeyHasher>>;

impl std::fmt::Debug for BlockKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "B{}{:?}", self.array.0, self.segs())
    }
}

/// Which barrier a coordination message refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierKind {
    /// `sip_barrier` — distributed arrays.
    Sip,
    /// `server_barrier` — served arrays.
    Server,
}

/// What a block-transfer message carries: the block, or — for an absent
/// block of a `sparse` array — only its norm bound. The fabric never ships
/// an absent block's payload.
#[derive(Debug, Clone)]
pub enum Payload {
    /// The block's contents. A shared handle: in-process delivery (and
    /// fault-injection duplication) costs a reference-count bump, not a
    /// copy.
    Data(BlockHandle),
    /// The block is absent (exactly zero).
    Absent {
        /// Frobenius-norm bound of the dropped payload (0.0 if never
        /// written).
        norm: f64,
    },
}

impl Payload {
    /// Payload bytes that travel with the message (0 for a norm record).
    pub fn heap_bytes(&self) -> u64 {
        match self {
            Payload::Data(b) => b.heap_bytes(),
            Payload::Absent { .. } => 0,
        }
    }
}

/// One SIP protocol message.
#[derive(Debug, Clone)]
pub enum SipMsg {
    // ---- scheduling (worker <-> master) ------------------------------------
    /// Worker asks for a chunk of pardo iterations.
    ChunkRequest {
        /// Pc of the `PardoStart`.
        pardo_pc: u32,
        /// Which encounter of this pardo (a pardo inside a `do` loop runs
        /// once per outer iteration; every encounter gets a fresh iteration
        /// space).
        epoch: u64,
    },
    /// Master assigns a chunk of iterations.
    ChunkAssign {
        /// Pc of the `PardoStart`.
        pardo_pc: u32,
        /// The encounter this chunk belongs to.
        epoch: u64,
        /// Chunk id within this (pardo, epoch), acknowledged by `ChunkDone`.
        chunk: u64,
        /// Each iteration's ordinal in the cross product of the pardo's
        /// index ranges (see [`crate::scheduler::IterationSpace`]).
        ordinals: Vec<u64>,
        /// How many leading `ordinals` came from the requester's own
        /// owner-compute bucket: their anchor blocks are homed at the
        /// requester. The rest were stolen. 0 in a region without an owner.
        own: u32,
    },
    /// Master: the pardo's iteration space is exhausted.
    NoMoreChunks {
        /// Pc of the `PardoStart`.
        pardo_pc: u32,
        /// The encounter that is exhausted.
        epoch: u64,
    },
    /// Worker acknowledges completion of an assigned chunk (sent under fault
    /// tolerance so the master can re-queue work lost with a dead rank).
    ChunkDone {
        /// Pc of the `PardoStart`.
        pardo_pc: u32,
        /// The encounter the chunk belonged to.
        epoch: u64,
        /// The chunk id from `ChunkAssign`/`Takeover`.
        chunk: u64,
    },
    /// Master hands a re-queued chunk to a worker already parked at the
    /// barrier after the pardo (recovery path).
    Takeover {
        /// Pc of the `PardoStart`.
        pardo_pc: u32,
        /// The encounter the chunk belonged to.
        epoch: u64,
        /// Chunk id, acknowledged by `ChunkDone`.
        chunk: u64,
        /// The ordinals of the original grant.
        ordinals: Vec<u64>,
    },

    // ---- block traffic (worker <-> worker / io server) ----------------------
    // One vocabulary for distributed (`get`/`put`) and served (`request`/
    // `prepare`) arrays: the key's array kind tells both ends which of the
    // two a message belongs to, and a home that receives a key of the other
    // kind reports a protocol error.
    /// Fetch a block from its home (a worker for a distributed array, an
    /// I/O server for a served one).
    Fetch {
        /// The block wanted.
        key: BlockKey,
        /// Correlates the `Block` reply.
        req: ReqId,
        /// The requester's `sip_barrier` epoch: a worker home stamps and
        /// checks the read in it (an I/O server ignores it).
        epoch: u64,
    },
    /// A block in flight (reply to `Fetch`).
    Block {
        /// The block's identity.
        key: BlockKey,
        /// Its contents, or the norm bound of a sparse array's absent block.
        payload: Payload,
        /// The request this answers (`ReqId::NONE` for unsolicited pushes).
        req: ReqId,
    },
    /// Store (or accumulate into) a block at its home. An absent payload is
    /// a store the sender screened: the block's Frobenius norm fell under
    /// the sparsity threshold and only the norm travels.
    Store {
        /// Destination block.
        key: BlockKey,
        /// Payload (a handle is shared with the sender's retry/journal
        /// state).
        payload: Payload,
        /// Replace or accumulate.
        mode: PutMode,
        /// Duplicate-suppression id (`OpId::NONE` when untracked).
        op: OpId,
        /// The sender's `sip_barrier` epoch, which a worker home stamps and
        /// checks a Replace in; `None` for the master's restore of a
        /// checkpointed block, which stamps nothing (an I/O server ignores
        /// it).
        epoch: Option<u64>,
    },
    /// Home acknowledges a `Store` (workers drain acks before barriers).
    StoreAck {
        /// The block acknowledged.
        key: BlockKey,
        /// The operation acknowledged.
        op: OpId,
    },
    /// Delete all blocks of an array (distributed at homes, served at I/O
    /// servers).
    DeleteArray {
        /// The array dropped.
        array: ArrayId,
    },
    /// Several data-plane messages for one destination coalesced into a
    /// single fabric envelope ([`sia_fabric::Endpoint::stage`]); per-message
    /// OpId/ReqId dedup still applies after unbatching.
    Batch(Vec<SipMsg>),

    // ---- barriers -----------------------------------------------------------
    /// Worker entered a barrier.
    BarrierEnter {
        /// Which barrier.
        kind: BarrierKind,
    },
    /// Master releases a barrier.
    BarrierRelease {
        /// Which barrier.
        kind: BarrierKind,
    },

    // ---- collectives ----------------------------------------------------------
    /// Worker contributes to a scalar all-reduce (`execute sip_allreduce s`).
    ReduceContrib {
        /// Contribution.
        value: f64,
    },
    /// Master returns the reduced value.
    ReduceResult {
        /// The global sum.
        value: f64,
    },

    // ---- checkpointing ----------------------------------------------------------
    /// Worker ships one authoritative block for `blocks_to_list`.
    CkptBlock {
        /// Checkpoint label id (program string table).
        label: u32,
        /// The block's identity.
        key: BlockKey,
        /// Its contents (shared with the authoritative store).
        data: BlockHandle,
    },
    /// Worker finished shipping blocks for a checkpoint (or is ready to
    /// receive a restore).
    CkptDone {
        /// Checkpoint label id.
        label: u32,
        /// True for `list_to_blocks` (restore), false for `blocks_to_list`.
        restore: bool,
    },
    /// Master: checkpoint/restore completed; continue.
    CkptRelease {
        /// Checkpoint label id.
        label: u32,
    },

    // ---- fault tolerance ----------------------------------------------------
    /// Master declares a worker dead; survivors re-route its keys and replay
    /// their current-epoch puts that were homed there.
    RankDead {
        /// The dead worker's fabric rank.
        rank: Rank,
        /// Duplicate-suppression ids the dead rank had already applied (from
        /// its epoch checkpoint), inherited by the re-homed blocks so journal
        /// replay cannot double-apply accumulates.
        inherited_ops: Vec<u64>,
    },
    /// Master asks I/O servers to flush and write a consistency manifest for
    /// the served-array epoch ending at a server barrier.
    EpochMark {
        /// The completed-epoch count after this mark.
        epoch: u64,
    },
    /// I/O server acknowledges an `EpochMark` (manifest durable).
    EpochAck {
        /// The epoch acknowledged.
        epoch: u64,
    },

    // ---- lifecycle ------------------------------------------------------------
    /// Worker finished the program (carries its final scalars and, when
    /// collection is on, its authoritative distributed blocks).
    WorkerDone {
        /// Final scalar values.
        scalars: Vec<f64>,
        /// Collected blocks (empty unless `collect_distributed`).
        blocks: Vec<(BlockKey, BlockHandle)>,
        /// Serialized per-worker profile (boxed: it dwarfs every other
        /// variant and would bloat the whole message enum inline).
        profile: Box<crate::profile::WorkerProfile>,
        /// Diagnostics (e.g. barrier-misuse detections).
        warnings: Vec<String>,
        /// The worker's recorded events (`None` unless tracing).
        trace: Option<crate::events::RankTrace>,
    },
    /// A worker or I/O server aborted with an error.
    WorkerFailed {
        /// The error message.
        error: String,
    },
    /// I/O server reports its counters (and, when tracing, its recorded
    /// events) to the master after receiving `Shutdown`.
    ServerDone {
        /// The server's lifetime counters.
        stats: crate::metrics::ServerStats,
        /// The server's recorded events (`None` unless tracing).
        trace: Option<crate::events::RankTrace>,
    },
    /// Master tells everyone to exit their service loops.
    Shutdown,
}

impl Message for SipMsg {
    fn approx_bytes(&self) -> usize {
        let block_bytes = |b: &BlockHandle| b.len() * 8 + 32;
        match self {
            SipMsg::Block {
                payload: Payload::Data(data),
                ..
            }
            | SipMsg::Store {
                payload: Payload::Data(data),
                ..
            }
            | SipMsg::CkptBlock { data, .. } => block_bytes(data),
            SipMsg::Batch(msgs) => 16 + msgs.iter().map(|m| m.approx_bytes()).sum::<usize>(),
            SipMsg::ChunkAssign { ordinals, .. } => 16 + ordinals.len() * 8,
            // A shipped trace is the run's bookkeeping, not its traffic:
            // neither `WorkerDone` nor `ServerDone` charges it.
            SipMsg::WorkerDone {
                scalars, blocks, ..
            } => 16 + scalars.len() * 8 + blocks.iter().map(|(_, b)| block_bytes(b)).sum::<usize>(),
            SipMsg::RankDead { inherited_ops, .. } => 16 + inherited_ops.len() * 8,
            _ => 32,
        }
    }

    /// Only data-plane traffic is faultable: block fetches, stores, their
    /// replies and acks. Control-plane messages (scheduling, barriers,
    /// collectives, lifecycle) ride a reliable channel, mirroring clusters
    /// whose management network is separate from the data interconnect.
    fn faultable(&self) -> bool {
        matches!(
            self,
            SipMsg::Fetch { .. }
                | SipMsg::Block { .. }
                | SipMsg::Store { .. }
                | SipMsg::StoreAck { .. }
                | SipMsg::Batch(_)
        )
    }

    /// Duplicating a data-plane message is cheap: block payloads are
    /// `BlockHandle`s, so the duplicate shares the original's allocation.
    fn dup(&self) -> Option<Self> {
        Some(self.clone())
    }

    /// Only faultable (data-plane) messages may share a batch envelope:
    /// every part is individually retryable/dedupable above the fabric, so
    /// one whole-envelope fault verdict (drop the batch, duplicate the
    /// batch) is indistinguishable from that verdict on each part. A batch
    /// containing control-plane traffic would silently make it faultable —
    /// refuse, and let the fabric ship the messages individually.
    fn batch(msgs: Vec<Self>) -> Result<Self, Vec<Self>> {
        if msgs.iter().all(|m| m.faultable()) {
            Ok(SipMsg::Batch(msgs))
        } else {
            Err(msgs)
        }
    }

    fn unbatch(self) -> Result<Vec<Self>, Self> {
        match self {
            SipMsg::Batch(msgs) => Ok(msgs),
            other => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_blocks::{Block, Shape};

    #[test]
    fn key_roundtrip() {
        let k = BlockKey::new(ArrayId(3), &[1, 2, 3, 4]);
        assert_eq!(k.segs(), &[1, 2, 3, 4]);
        assert_eq!(k.rank, 4);
    }

    #[test]
    fn placement_hash_distinguishes() {
        let a = BlockKey::new(ArrayId(0), &[1, 2]);
        let b = BlockKey::new(ArrayId(0), &[2, 1]);
        let c = BlockKey::new(ArrayId(1), &[1, 2]);
        assert_ne!(a.placement_hash(), b.placement_hash());
        assert_ne!(a.placement_hash(), c.placement_hash());
        // Deterministic.
        assert_eq!(
            a.placement_hash(),
            BlockKey::new(ArrayId(0), &[1, 2]).placement_hash()
        );
    }

    #[test]
    fn placement_hash_spreads() {
        // 1000 keys over 7 buckets: no bucket should be empty or hold more
        // than half the keys.
        let mut buckets = [0usize; 7];
        for i in 0..10 {
            for j in 0..10 {
                for k in 0..10 {
                    let key = BlockKey::new(ArrayId(0), &[i, j, k]);
                    buckets[(key.placement_hash() % 7) as usize] += 1;
                }
            }
        }
        for &b in &buckets {
            assert!(b > 0 && b < 500, "bad spread: {buckets:?}");
        }
    }

    fn map_hash(key: &BlockKey) -> u64 {
        use std::hash::BuildHasher;
        BuildHasherDefault::<KeyHasher>::default().hash_one(key)
    }

    /// The keys of a 96×96-block served array that a two-server world homes
    /// on server 0 spread over a hash table's buckets — the low bits of the
    /// map hash — like random words do. `placement_hash` passed through
    /// does not: what makes a key server 0's is its low bit.
    #[test]
    fn one_homes_keys_spread_over_the_buckets() {
        const BUCKET_BITS: u64 = (1 << 13) - 1;
        let homed: Vec<BlockKey> = (1..=96)
            .flat_map(|i| (1..=96).map(move |j| BlockKey::new(ArrayId(0), &[i, j])))
            .filter(|k| k.placement_hash() % 2 == 0)
            .collect();
        assert!(homed.len() > 4_000, "about half of 9216: {}", homed.len());
        let distinct = |hashes: &mut dyn Iterator<Item = u64>| {
            hashes
                .map(|h| h & BUCKET_BITS)
                .collect::<std::collections::HashSet<u64>>()
                .len() as f64
        };
        // As many uniformly random words (splitmix64).
        let mut state = 0x5eed_u64;
        let mut random = std::iter::repeat_with(|| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .take(homed.len());
        let uniform = distinct(&mut random);
        let hashed = distinct(&mut homed.iter().map(map_hash));
        assert!(
            hashed >= 0.9 * uniform,
            "{hashed} buckets hit, {uniform} by random words"
        );
        let passed_through = distinct(&mut homed.iter().map(BlockKey::placement_hash));
        assert!(
            passed_through < 0.9 * uniform,
            "placement_hash as the map hash: {passed_through} of {uniform}"
        );
    }

    /// `Hash` leaves the padding out and `Eq` compares it: equal keys hash
    /// alike, and keys that differ only in padding or in rank stay distinct
    /// entries of a map.
    #[test]
    fn hash_and_eq_agree() {
        let key = BlockKey::new(ArrayId(2), &[3, 4, 5]);
        assert_eq!(
            map_hash(&key),
            map_hash(&BlockKey::new(ArrayId(2), &[3, 4, 5]))
        );
        let mut padded = key;
        padded.segs[5] = 9;
        let mut shorter = key;
        shorter.rank = 2;
        // Same meaningful words as `shorter` once its third segment is 0.
        let zero_tail = BlockKey::new(ArrayId(2), &[3, 4, 0]);
        let mut map: KeyMap<u8> = KeyMap::default();
        let all = [
            key,
            padded,
            shorter,
            zero_tail,
            BlockKey::new(ArrayId(2), &[3, 4]),
        ];
        for (n, k) in all.iter().enumerate() {
            assert!(
                map.insert(*k, n as u8).is_none(),
                "{k:?} collided with an equal key"
            );
        }
        for (n, k) in all.iter().enumerate() {
            assert_eq!(map.get(k), Some(&(n as u8)));
        }
        assert_ne!(map_hash(&key), map_hash(&shorter), "rank is hashed");
    }

    #[test]
    fn message_sizes_scale_with_payload() {
        let block = |n: usize| SipMsg::Block {
            key: BlockKey::new(ArrayId(0), &[1]),
            payload: Payload::Data(Block::zeros(Shape::new(&[n])).into()),
            req: ReqId::NONE,
        };
        let (small, big) = (block(2), block(100));
        assert!(big.approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn batch_accepts_data_plane_refuses_control_plane() {
        let data_msg = || SipMsg::StoreAck {
            key: BlockKey::new(ArrayId(0), &[1]),
            op: OpId(7),
        };
        let batched = SipMsg::batch(vec![data_msg(), data_msg()]).expect("data plane batches");
        assert!(batched.faultable());
        let parts = batched.unbatch().expect("batch unbatches");
        assert_eq!(parts.len(), 2);
        // A control-plane message poisons the whole batch.
        let refused = SipMsg::batch(vec![data_msg(), SipMsg::Shutdown]);
        assert!(refused.is_err());
        assert_eq!(refused.unwrap_err().len(), 2);
        // Non-batch messages refuse to unbatch.
        assert!(SipMsg::Shutdown.unbatch().is_err());
    }

    #[test]
    fn batch_bytes_sum_parts() {
        let part = SipMsg::Block {
            key: BlockKey::new(ArrayId(0), &[1]),
            payload: Payload::Data(Block::zeros(Shape::new(&[100])).into()),
            req: ReqId::NONE,
        };
        let part_bytes = part.approx_bytes();
        let batched = SipMsg::batch(vec![part.clone(), part]).unwrap();
        assert!(batched.approx_bytes() >= 2 * part_bytes);
    }

    #[test]
    fn dup_shares_payload_allocation() {
        let data = BlockHandle::new(Block::zeros(Shape::new(&[64])));
        let msg = SipMsg::Block {
            key: BlockKey::new(ArrayId(0), &[1]),
            payload: Payload::Data(data.clone()),
            req: ReqId::NONE,
        };
        let dup = msg.dup().unwrap();
        match dup {
            SipMsg::Block {
                payload: Payload::Data(d),
                ..
            } => {
                assert!(BlockHandle::ptr_eq(&d, &data), "dup copied the payload")
            }
            other => panic!("{other:?}"),
        }
    }

    // ---- the block-transfer protocol, one table for both homes --------------

    use crate::ioserver::IoServer;
    use crate::layout::{FaultConfig, Layout, SegmentConfig, SipConfig, Topology};
    use crate::registry::SuperRegistry;
    use crate::worker::Worker;
    use sia_bytecode::{
        ArrayDecl, ArrayKind, ConstBindings, IndexDecl, IndexId, IndexKind, Program, Value,
    };
    use sia_fabric::{Endpoint, FaultPlan};
    use std::sync::Arc;
    use std::time::Duration;

    const DIST: ArrayId = ArrayId(0);
    const SERVED: ArrayId = ArrayId(1);

    /// One worker (rank 1) homing sparse distributed `D`, one I/O server
    /// (rank 2) homing sparse served `S`; rank 0 plays the client.
    fn two_home_layout() -> Arc<Layout> {
        let array = |name: &str, kind| ArrayDecl {
            name: name.into(),
            kind,
            dims: vec![IndexId(0), IndexId(0)],
            sparse: true,
        };
        let program = Program {
            indices: vec![IndexDecl {
                name: "i".into(),
                kind: IndexKind::AoIndex,
                low: Value::Lit(1),
                high: Value::Lit(64),
            }],
            arrays: vec![
                array("D", ArrayKind::Distributed),
                array("S", ArrayKind::Served),
            ],
            ..Default::default()
        };
        let segments = SegmentConfig {
            default: 4,
            ..Default::default()
        };
        Arc::new(
            Layout::new(
                Arc::new(program),
                &ConstBindings::new(),
                segments,
                Topology::new(1, 1),
            )
            .unwrap(),
        )
    }

    /// A home under test, driven only through the fabric.
    enum Home {
        /// Stepped on the test thread: `service_messages` after every send.
        Worker(Box<Worker>),
        /// Runs its own message loop; `join` yields `run`'s result.
        Server(
            std::thread::JoinHandle<Result<crate::metrics::ServerStats, crate::RuntimeError>>,
            std::path::PathBuf,
        ),
    }

    struct Rig {
        client: Endpoint<SipMsg>,
        home: Home,
        to: Rank,
        array: ArrayId,
        /// The `sip_barrier` epoch the client's fetches and stores carry.
        epoch: u64,
    }

    fn rig(worker_home: bool, tag: &str) -> Rig {
        let layout = two_home_layout();
        let (mut eps, _) = sia_fabric::build::<SipMsg>(3);
        let server_ep = eps.pop().unwrap();
        let worker_ep = eps.pop().unwrap();
        let client = eps.pop().unwrap();
        if worker_home {
            // Op-id dedup at a worker home is part of fault tolerance.
            let config = SipConfig {
                workers: 1,
                fault: Some(FaultConfig::new(FaultPlan::seeded(1))),
                ..SipConfig::default()
            };
            let w = Worker::new(layout, config, worker_ep, SuperRegistry::new());
            Rig {
                client,
                home: Home::Worker(Box::new(w)),
                to: Rank(1),
                array: DIST,
                epoch: 0,
            }
        } else {
            let dir = std::env::temp_dir().join(format!("sia-proto-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let d = dir.clone();
            let server = std::thread::spawn(move || IoServer::new(layout, server_ep, d, 8)?.run());
            Rig {
                client,
                home: Home::Server(server, dir),
                to: Rank(2),
                array: SERVED,
                epoch: 0,
            }
        }
    }

    /// Fault-free ranks hold no timer, so a parked one is asleep until
    /// somebody tells it: a peer raising shutdown must wake a worker inside
    /// `wait_until` and an I/O server inside `run`, neither of which has a
    /// deadline to fall back on.
    #[test]
    fn raised_shutdown_wakes_parked_worker_and_server() {
        let layout = two_home_layout();
        let (mut eps, stats) = sia_fabric::build::<SipMsg>(3);
        let server_ep = eps.pop().unwrap();
        let worker_ep = eps.pop().unwrap();
        let client = eps.pop().unwrap();
        let dir = std::env::temp_dir().join(format!("sia-proto-wake-{}", std::process::id()));
        let (l, d) = (Arc::clone(&layout), dir.clone());
        let server = std::thread::spawn(move || IoServer::new(l, server_ep, d, 8)?.run());
        let worker = std::thread::spawn(move || {
            let config = SipConfig {
                workers: 1,
                ..SipConfig::default()
            };
            let mut w = Worker::new(layout, config, worker_ep, SuperRegistry::new());
            w.wait_until(crate::metrics::WaitCause::SipBarrier, "nothing", |_| false)
        });
        std::thread::sleep(Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        client.raise_shutdown();
        let aborted = worker.join().unwrap().unwrap_err();
        assert!(aborted.to_string().contains("run aborted"), "{aborted}");
        server.join().unwrap().unwrap();
        assert!(t0.elapsed() < Duration::from_secs(10));
        for rank in [1, 2] {
            let woke = stats.counters_of(Rank(rank)).deadline_wakeups();
            assert_eq!(woke, 0, "rank {rank} held a timer");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A wait whose condition already holds is no wait: nothing lands in
    /// the wait totals and no span is recorded (nor any clock read).
    #[test]
    fn a_wait_that_holds_on_entry_records_nothing() {
        use crate::events::TraceSink;
        use crate::metrics::WaitCause;
        let (mut eps, _) = sia_fabric::build::<SipMsg>(2);
        let config = SipConfig {
            workers: 1,
            ..SipConfig::default()
        };
        let mut w = Worker::new(
            two_home_layout(),
            config,
            eps.remove(1),
            SuperRegistry::new(),
        );
        w.set_trace(TraceSink::enabled(64, std::time::Instant::now()));
        let waited = w
            .wait_until(WaitCause::AckDrain, "nothing", |_| true)
            .unwrap();
        assert_eq!(waited, Duration::ZERO);
        assert_eq!(w.profile.metrics.wait.total_nanos(), 0);
        let trace = w.trace.drain(1, "worker 1".into()).unwrap();
        assert!(trace.events.is_empty(), "no span for no wait");
    }

    impl Rig {
        fn send(&mut self, msg: SipMsg) {
            self.client.send(self.to, msg).unwrap();
            if let Home::Worker(w) = &mut self.home {
                w.service_messages();
            }
        }

        fn recv(&self) -> SipMsg {
            self.client
                .recv_timeout(Duration::from_secs(10))
                .expect("home answered")
                .msg
        }

        /// Sends one store and consumes its acknowledgement.
        fn store(&mut self, key: BlockKey, payload: &Payload, mode: PutMode, op: OpId) {
            self.send(SipMsg::Store {
                key,
                payload: payload.clone(),
                mode,
                op,
                epoch: Some(self.epoch),
            });
            match self.recv() {
                SipMsg::StoreAck { key: k, op: o } => assert_eq!((k, o), (key, op)),
                other => panic!("expected one StoreAck per delivery, got {other:?}"),
            }
        }

        fn fetch(&mut self, key: BlockKey) -> Payload {
            self.send(SipMsg::Fetch {
                key,
                req: ReqId::NONE,
                epoch: self.epoch,
            });
            match self.recv() {
                SipMsg::Block {
                    key: k, payload, ..
                } => {
                    assert_eq!(k, key);
                    payload
                }
                other => panic!("expected Block, got {other:?}"),
            }
        }

        /// One store and the fetch that reads it back, staged into a single
        /// `Batch` envelope: the home applies the parts in order and answers
        /// with one envelope too — the ack, then the block.
        fn store_then_fetch_batched(
            &mut self,
            key: BlockKey,
            payload: &Payload,
            mode: PutMode,
            op: OpId,
        ) -> Payload {
            let store = SipMsg::Store {
                key,
                payload: payload.clone(),
                mode,
                op,
                epoch: Some(self.epoch),
            };
            let fetch = SipMsg::Fetch {
                key,
                req: ReqId::NONE,
                epoch: self.epoch,
            };
            self.client.stage(self.to, store).unwrap();
            self.client.stage(self.to, fetch).unwrap();
            self.client.flush().unwrap();
            if let Home::Worker(w) = &mut self.home {
                w.service_messages();
            }
            let answer = || {
                self.client
                    .recv_timeout(Duration::from_secs(10))
                    .expect("home answered")
            };
            let (ack, block) = (answer(), answer());
            assert_eq!(ack.seq, block.seq, "one envelope answers one envelope");
            match (ack.msg, block.msg) {
                (SipMsg::StoreAck { key: k, op: o }, SipMsg::Block { payload, .. }) => {
                    assert_eq!((k, o), (key, op));
                    payload
                }
                other => panic!("expected StoreAck then Block, got {other:?}"),
            }
        }

        /// Makes everything stored so far durable where the home has a disk
        /// tier (an I/O server flushes on `EpochMark`); a worker home has
        /// none.
        fn flush(&mut self, epoch: u64) {
            if let Home::Server(..) = self.home {
                self.send(SipMsg::EpochMark { epoch });
                assert!(matches!(self.recv(), SipMsg::EpochAck { .. }));
            }
        }
    }

    /// A payload as the table spells it: a 4×4 block filled with one value,
    /// or a norm record.
    #[derive(Clone, Copy, Debug)]
    enum P {
        Data(f64),
        Absent(f64),
    }

    impl P {
        fn payload(self) -> Payload {
            match self {
                P::Data(v) => Payload::Data(Block::filled(Shape::new(&[4, 4]), v).into()),
                P::Absent(norm) => Payload::Absent { norm },
            }
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Delivery {
        Once,
        /// The same tracked op delivered twice (retry, fabric duplication,
        /// chunk re-execution): applied once, acknowledged twice.
        Duplicated,
        /// Untracked (`OpId::NONE`) stores bypass the dedup window: sent
        /// twice, applied twice.
        UntrackedTwice,
        /// Delivered inside a `Batch` with the fetch that reads it back:
        /// applied once, in order, and answered by one `Batch`.
        Batched,
    }

    struct Row {
        name: &'static str,
        /// Stores applied first, each under its own op id; `true` flushes
        /// afterwards so the store under test meets on-disk state.
        prior: &'static [(P, PutMode, bool)],
        store: (P, PutMode),
        /// What a fetch must report once the store was applied once …
        want: P,
        /// … and once it really was applied twice.
        want_twice: P,
    }

    const R: PutMode = PutMode::Replace;
    const A: PutMode = PutMode::Accumulate;

    const TABLE: &[Row] = &[
        Row {
            name: "data/replace onto nothing",
            prior: &[],
            store: (P::Data(3.0), R),
            want: P::Data(3.0),
            want_twice: P::Data(3.0),
        },
        Row {
            name: "data/replace supersedes a recorded norm",
            prior: &[(P::Absent(0.5), R, false)],
            store: (P::Data(3.0), R),
            want: P::Data(3.0),
            want_twice: P::Data(3.0),
        },
        Row {
            name: "data/accumulate adds to the resident block",
            prior: &[(P::Data(1.0), R, false)],
            store: (P::Data(2.0), A),
            want: P::Data(3.0),
            want_twice: P::Data(5.0),
        },
        Row {
            name: "data/accumulate adds to the flushed block",
            prior: &[(P::Data(1.0), R, true)],
            store: (P::Data(2.0), A),
            want: P::Data(3.0),
            want_twice: P::Data(5.0),
        },
        Row {
            name: "data/accumulate onto a recorded norm makes the block real",
            prior: &[(P::Absent(0.5), R, false)],
            store: (P::Data(2.0), A),
            want: P::Data(2.0),
            want_twice: P::Data(4.0),
        },
        Row {
            name: "absent/replace drops the resident payload",
            prior: &[(P::Data(1.0), R, false)],
            store: (P::Absent(0.25), R),
            want: P::Absent(0.25),
            want_twice: P::Absent(0.25),
        },
        Row {
            name: "absent/replace drops the flushed payload",
            prior: &[(P::Data(1.0), R, true)],
            store: (P::Absent(0.25), R),
            want: P::Absent(0.25),
            want_twice: P::Absent(0.25),
        },
        Row {
            name: "absent/accumulate sums norm bounds (triangle inequality)",
            prior: &[(P::Absent(0.25), R, false)],
            store: (P::Absent(0.5), A),
            want: P::Absent(0.75),
            want_twice: P::Absent(1.25),
        },
        Row {
            name: "absent/accumulate onto nothing records the bound",
            prior: &[],
            store: (P::Absent(0.5), A),
            want: P::Absent(0.5),
            want_twice: P::Absent(1.0),
        },
        Row {
            name: "absent/accumulate onto a resident block is a no-op",
            prior: &[(P::Data(4.0), R, false)],
            store: (P::Absent(0.25), A),
            want: P::Data(4.0),
            want_twice: P::Data(4.0),
        },
    ];

    fn assert_payload_eq(got: &Payload, want: P, ctx: &str) {
        match (got, &want.payload()) {
            (Payload::Data(g), Payload::Data(w)) => assert_eq!(g.data(), w.data(), "{ctx}"),
            (Payload::Absent { norm: g }, Payload::Absent { norm: w }) => {
                assert_eq!(g, w, "{ctx}")
            }
            _ => panic!("{ctx}: fetch reply {got:?}, want {want:?}"),
        }
    }

    /// home ∈ {worker, I/O server} × payload ∈ {data, absent} × mode ∈
    /// {replace, accumulate} × delivery (alone, duplicated, untracked, inside
    /// a `Batch`): the resulting store state as a `Fetch` reports it (payload
    /// type included), and exactly one `StoreAck` per delivery.
    #[test]
    fn protocol_table() {
        for worker_home in [true, false] {
            let mut rig = rig(worker_home, "table");
            let (mut next_op, mut next_key, mut dups, mut epoch) = (1u64, 0i64, 0u64, 0u64);
            for row in TABLE {
                for delivery in [
                    Delivery::Once,
                    Delivery::Duplicated,
                    Delivery::UntrackedTwice,
                    Delivery::Batched,
                ] {
                    let ctx = format!(
                        "{} home, {}, {delivery:?}",
                        if worker_home { "worker" } else { "I/O server" },
                        row.name
                    );
                    // A fresh block per case.
                    next_key += 1;
                    let key = BlockKey::new(rig.array, &[next_key, 1]);
                    assert_payload_eq(&rig.fetch(key), P::Absent(0.0), &ctx);
                    for (payload, mode, flush) in row.prior {
                        next_op += 1;
                        rig.store(key, &payload.payload(), *mode, OpId(next_op));
                        if *flush {
                            epoch += 1;
                            rig.flush(epoch);
                        }
                    }
                    let (payload, mode) = (row.store.0.payload(), row.store.1);
                    next_op += 1;
                    let want = match delivery {
                        Delivery::Once => {
                            rig.store(key, &payload, mode, OpId(next_op));
                            row.want
                        }
                        Delivery::Duplicated => {
                            rig.store(key, &payload, mode, OpId(next_op));
                            rig.store(key, &payload, mode, OpId(next_op));
                            dups += 1;
                            row.want
                        }
                        Delivery::UntrackedTwice => {
                            rig.store(key, &payload, mode, OpId::NONE);
                            rig.store(key, &payload, mode, OpId::NONE);
                            row.want_twice
                        }
                        Delivery::Batched => {
                            let read =
                                rig.store_then_fetch_batched(key, &payload, mode, OpId(next_op));
                            assert_payload_eq(&read, row.want, &ctx);
                            row.want
                        }
                    };
                    assert_payload_eq(&rig.fetch(key), want, &ctx);
                }
            }

            // Blocks and norm records share one dedup window: a screened
            // resend of an already-applied real store is suppressed too.
            let key = BlockKey::new(rig.array, &[next_key + 1, 1]);
            next_op += 1;
            rig.store(key, &P::Data(2.0).payload(), A, OpId(next_op));
            rig.store(key, &P::Absent(0.1).payload(), R, OpId(next_op));
            dups += 1;
            assert_payload_eq(&rig.fetch(key), P::Data(2.0), "shared dedup window");

            match rig.home {
                Home::Worker(w) => {
                    assert_eq!(w.profile.metrics.fault.dup_puts_suppressed, dups);
                }
                Home::Server(server, dir) => {
                    rig.client.send(rig.to, SipMsg::Shutdown).unwrap();
                    let stats = server.join().unwrap().unwrap();
                    assert_eq!(stats.dup_prepares_suppressed, dups);
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
        }
    }

    /// A fetch or store addressed to the wrong role is diagnosed, never
    /// silently served: a worker warns, an I/O server's loop ends in a typed
    /// error that it also reports to the master.
    #[test]
    fn wrong_role_fetch_and_store_are_diagnosed() {
        for store in [false, true] {
            let msg = |array| {
                let key = BlockKey::new(array, &[1, 1]);
                if store {
                    SipMsg::Store {
                        key,
                        payload: P::Data(1.0).payload(),
                        mode: R,
                        op: OpId::NONE,
                        epoch: Some(0),
                    }
                } else {
                    SipMsg::Fetch {
                        key,
                        req: ReqId::NONE,
                        epoch: 0,
                    }
                }
            };

            let mut rig_w = rig(true, "role");
            rig_w.send(msg(SERVED));
            assert!(rig_w.client.try_recv().is_none(), "no reply, no ack");
            let Home::Worker(w) = &mut rig_w.home else {
                unreachable!()
            };
            assert!(
                w.warnings.iter().any(|m| m.contains("protocol error")),
                "{:?}",
                w.warnings
            );
            assert_eq!(w.mem.home_len(), 0, "nothing was stored");

            let mut rig_s = rig(false, &format!("role{}", store as u8));
            rig_s.send(msg(DIST));
            let Home::Server(server, dir) = rig_s.home else {
                unreachable!()
            };
            let err = server.join().unwrap().unwrap_err();
            assert!(err.to_string().contains("protocol error"), "{err}");
            // The client sits at the master's rank: it hears why the server
            // left, and nothing else.
            match rig_s.client.try_recv().map(|env| env.msg) {
                Some(SipMsg::WorkerFailed { error }) => assert_eq!(error, err.to_string()),
                other => panic!("expected the server's failure report, got {other:?}"),
            }
            assert!(rig_s.client.try_recv().is_none(), "no reply, no ack");
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn worker_warnings(rig: &Rig) -> &[String] {
        match &rig.home {
            Home::Worker(w) => &w.warnings,
            Home::Server(..) => unreachable!("a worker home"),
        }
    }

    /// A home handles its own barrier release after a peer released first
    /// may already have fetched: the peer's fetch is stamped and checked in
    /// the peer's epoch, so a read in the next epoch of a block this epoch
    /// replaced is no misuse. A read and a Replace in one epoch still are,
    /// in either order.
    #[test]
    fn a_peers_next_epoch_fetch_is_checked_in_its_own_epoch() {
        let mut rig = rig(true, "epoch");
        let key = BlockKey::new(DIST, &[1, 1]);
        rig.store(key, &P::Data(1.0).payload(), R, OpId(1));
        // The peer is past the barrier; this home has not handled its release.
        rig.epoch = 1;
        assert_payload_eq(&rig.fetch(key), P::Data(1.0), "next-epoch read");
        assert!(
            worker_warnings(&rig).is_empty(),
            "{:?}",
            worker_warnings(&rig)
        );
        rig.store(key, &P::Data(2.0).payload(), R, OpId(2));
        rig.fetch(key);
        let warned = worker_warnings(&rig);
        assert_eq!(warned.len(), 2, "{warned:?}");
        assert!(
            warned[0].contains("replaced after being read"),
            "{warned:?}"
        );
        assert!(warned[1].contains("read and replaced"), "{warned:?}");
    }

    /// A fetch or store of a key outside its array's declared segments can
    /// only come from a broken peer — a requester checks its keys first. A
    /// worker home warns and answers nothing: no block, no zeros, no ack.
    #[test]
    fn an_out_of_range_fetch_or_store_is_refused_unanswered() {
        let mut rig = rig(true, "range");
        let key = BlockKey::new(DIST, &[65, 1]);
        rig.send(SipMsg::Fetch {
            key,
            req: ReqId::NONE,
            epoch: 0,
        });
        rig.send(SipMsg::Store {
            key,
            payload: P::Data(1.0).payload(),
            mode: R,
            op: OpId::NONE,
            epoch: Some(0),
        });
        assert!(rig.client.try_recv().is_none(), "no reply, no ack");
        let warned = worker_warnings(&rig);
        assert_eq!(warned.len(), 2, "{warned:?}");
        assert!(warned.iter().all(|w| w.contains("outside")), "{warned:?}");
    }
}
