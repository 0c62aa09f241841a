//! Fault-tolerance state and the epoch-checkpoint file format.
//!
//! All of this is live only when [`SipConfig::fault`](crate::SipConfig) is
//! set; a fault-free run never allocates an [`FtState`] and keeps the exact
//! counter-based ack tracking of the original hot path.
//!
//! The recovery protocol (see DESIGN.md "Fault model & recovery"):
//!
//! * Every PUT/PREPARE carries a content-derived [`OpId`]; receivers keep a
//!   window of applied ids and suppress duplicates, which makes sender
//!   retries, fabric duplication, *and* chunk re-execution idempotent.
//! * Senders retain tracked operations (payload included) until acked, and
//!   retry with exponential backoff.
//! * Each worker checkpoints its authoritative distributed blocks (plus the
//!   applied-op window) to `run_dir` at every `sip_barrier` release; when
//!   the master declares a rank dead it restores that rank's last
//!   checkpoint to the surviving homes, broadcasts the death, and survivors
//!   replay their current-epoch put journals that were homed at the corpse.

use crate::layout::FaultConfig;
use crate::msg::{BlockKey, OpId, Payload, SipMsg};
use sia_blocks::{Block, BlockHandle, Shape};
use sia_bytecode::{ArrayId, PutMode};
use sia_fabric::ReqId;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A tracked, unacknowledged store (PUT or PREPARE — the key's array kind
/// says which). The payload is retained so the operation can be retried (or
/// re-routed to a new home) verbatim; the handle shares the wire message's
/// allocation, so retention is free.
#[derive(Debug, Clone)]
pub(crate) struct PendingOp {
    pub key: BlockKey,
    pub data: BlockHandle,
    pub mode: PutMode,
    pub sent_at: Instant,
    /// Current timeout (grows by the backoff factor per retry).
    pub timeout: Duration,
    pub attempts: u32,
}

impl PendingOp {
    /// The wire message that (re)sends this store: retries and journal
    /// replays ship the full block, sharing the retained allocation.
    pub(crate) fn store_msg(&self, op: OpId) -> SipMsg {
        SipMsg::Store {
            key: self.key,
            payload: Payload::Data(self.data.clone()),
            mode: self.mode,
            op,
        }
    }
}

/// A tracked, unanswered fetch (GET or REQUEST, by the key's array kind).
#[derive(Debug, Clone)]
pub(crate) struct FetchState {
    pub req: ReqId,
    pub sent_at: Instant,
    pub timeout: Duration,
    pub attempts: u32,
}

/// A journaled remote put (replayed to the new home if the old home dies
/// within the current barrier epoch).
#[derive(Debug, Clone)]
pub(crate) struct JournalEntry {
    pub op: u64,
    pub key: BlockKey,
    pub data: BlockHandle,
    pub mode: PutMode,
}

/// A re-queued chunk handed to a worker already parked at the post-pardo
/// barrier.
#[derive(Debug)]
pub(crate) struct TakeoverChunk {
    pub pardo_pc: u32,
    pub epoch: u64,
    pub chunk: u64,
    pub iters: Vec<Vec<i64>>,
}

/// Per-worker fault-tolerance state (absent on fault-free runs).
#[derive(Debug)]
pub(crate) struct FtState {
    pub cfg: FaultConfig,
    /// Unacknowledged tracked operations, keyed by op id.
    pub pending: HashMap<u64, PendingOp>,
    /// Remote distributed puts of the current barrier epoch (cleared at
    /// `sip_barrier` release). Only kept when a crash is expected.
    pub journal: Vec<JournalEntry>,
    /// Op ids applied at this rank (home side), tagged with the barrier
    /// epoch they arrived in; pruned two epochs back.
    pub applied: HashMap<u64, u64>,
    /// Unanswered fetches by block key.
    pub fetches: HashMap<BlockKey, FetchState>,
    /// Dead workers by worker index (agreed via `RankDead` broadcasts).
    pub dead: Vec<bool>,
    /// Last heartbeat sent to the master.
    pub last_beat: Instant,
    /// Chunk-ack accounting: chunks execute FIFO, so the head entry is the
    /// chunk the next completed iteration belongs to.
    pub chunk_acks: VecDeque<(u64, usize)>,
    /// Re-queued chunks received while parked at a barrier.
    pub takeovers: VecDeque<TakeoverChunk>,
    /// This worker executed its scheduled crash.
    pub crashed: bool,
    /// A takeover chunk is being executed (puts count as pardo-context for
    /// op-id derivation even though `Worker::pardo` is `None`).
    pub in_takeover: bool,
}

impl FtState {
    pub(crate) fn new(cfg: FaultConfig, workers: usize) -> Self {
        FtState {
            cfg,
            pending: HashMap::new(),
            journal: Vec::new(),
            applied: HashMap::new(),
            fetches: HashMap::new(),
            dead: vec![false; workers],
            last_beat: Instant::now(),
            chunk_acks: VecDeque::new(),
            takeovers: VecDeque::new(),
            crashed: false,
            in_takeover: false,
        }
    }

    /// Records an applied op id; returns false when it was already applied
    /// (i.e. this is a duplicate to suppress).
    pub(crate) fn note_applied(&mut self, op: u64, epoch: u64) -> bool {
        self.applied.insert(op, epoch).is_none()
    }

    /// Drops applied-op records old enough that no retry or replay can
    /// still reference them (journals clear at each barrier, so anything
    /// two epochs back is unreachable).
    pub(crate) fn prune_applied(&mut self, current_epoch: u64) {
        self.applied.retain(|_, e| *e + 2 > current_epoch);
    }

    /// Arms (or re-arms) a tracked store flight: the full block is retained
    /// until the home acknowledges, so a retry or journal replay resends it
    /// even when the first transmission was a screened norm record (the
    /// home's op dedup keeps that idempotent).
    pub(crate) fn arm_flight(&mut self, op: OpId, key: BlockKey, data: BlockHandle, mode: PutMode) {
        self.pending.insert(
            op.0,
            PendingOp {
                key,
                data,
                mode,
                sent_at: Instant::now(),
                timeout: self.cfg.retry_timeout,
                attempts: 0,
            },
        );
    }
}

/// Derives a content-based op id: FNV-1a over the instruction pc, the
/// barrier epoch, the destination key, the full index environment, and a
/// per-iteration sequence number (disambiguating two textually identical
/// puts executed under the same environment, e.g. a procedure called
/// twice). Outside pardos (SPMD execution) the worker index is mixed in so
/// each worker's accumulate counts once; inside pardos (and takeover
/// replays) it is *not*, so a re-executed iteration reproduces the same id
/// on any worker.
pub(crate) fn derive_op_id(
    pc: u32,
    epoch: u64,
    key: &BlockKey,
    env: &[i64],
    seq: u64,
    spmd_worker: Option<usize>,
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    mix(pc as u64);
    mix(epoch);
    mix(key.array.0 as u64);
    for &s in key.segs() {
        mix(s as u64);
    }
    for &v in env {
        mix(v as u64);
    }
    mix(seq);
    if let Some(w) = spmd_worker {
        mix(0x5350_4d44); // "SPMD" tag keeps pardo/non-pardo ids disjoint
        mix(w as u64);
    }
    if h == 0 {
        h = 1; // 0 is the untracked sentinel
    }
    h
}

// ---- epoch checkpoint files -------------------------------------------------

const EPOCH_MAGIC: &[u8; 8] = b"SIAEPCK1";

/// Path of worker `widx`'s epoch checkpoint inside `run_dir`.
pub(crate) fn epoch_ckpt_path(run_dir: &Path, widx: usize) -> PathBuf {
    run_dir.join(format!("ftckpt_w{widx}.bin"))
}

/// Writes a worker's epoch checkpoint: its authoritative distributed blocks
/// plus the applied-op window, atomically (tmp + rename) so a reader only
/// ever sees a complete epoch. The snapshot handles share the authoritative
/// store's allocations — no block is copied to be checkpointed.
pub(crate) fn write_epoch_checkpoint(
    path: &Path,
    epoch: u64,
    blocks: &[(BlockKey, BlockHandle)],
    applied: &HashMap<u64, u64>,
) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        f.write_all(EPOCH_MAGIC)?;
        f.write_all(&epoch.to_le_bytes())?;
        f.write_all(&(blocks.len() as u64).to_le_bytes())?;
        for (key, block) in blocks {
            f.write_all(&key.array.0.to_le_bytes())?;
            f.write_all(&[key.rank])?;
            for s in key.segs() {
                f.write_all(&s.to_le_bytes())?;
            }
            let dims = block.shape().dims();
            f.write_all(&(dims.len() as u32).to_le_bytes())?;
            for &d in dims {
                f.write_all(&(d as u64).to_le_bytes())?;
            }
            for &v in block.data() {
                f.write_all(&v.to_le_bytes())?;
            }
        }
        f.write_all(&(applied.len() as u64).to_le_bytes())?;
        for (&op, &ep) in applied {
            f.write_all(&op.to_le_bytes())?;
            f.write_all(&ep.to_le_bytes())?;
        }
        f.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// What an epoch checkpoint holds: `(epoch, blocks, applied ops)`.
type EpochCheckpoint = (u64, Vec<(BlockKey, Block)>, Vec<u64>);

/// Reads an epoch checkpoint back. The file comes from disk, so nothing in
/// it is trusted: a truncated or inconsistent one is `InvalidData`, never a
/// panic or an allocation its own length cannot back.
pub(crate) fn read_epoch_checkpoint(path: &Path) -> std::io::Result<EpochCheckpoint> {
    let raw = std::fs::read(path)?;
    parse_epoch_checkpoint(&raw).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("corrupt epoch checkpoint {}", path.display()),
        )
    })
}

fn parse_epoch_checkpoint(mut raw: &[u8]) -> Option<EpochCheckpoint> {
    /// Splits `n` bytes off the front.
    fn take<'a>(raw: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
        let (head, rest) = raw.split_at_checked(n)?;
        *raw = rest;
        Some(head)
    }
    fn u32(raw: &mut &[u8]) -> Option<u32> {
        Some(u32::from_le_bytes(take(raw, 4)?.try_into().ok()?))
    }
    fn u64(raw: &mut &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(take(raw, 8)?.try_into().ok()?))
    }
    let raw = &mut raw;
    if take(raw, 8)? != EPOCH_MAGIC {
        return None;
    }
    let epoch = u64(raw)?;
    // Counts are bounded by the bytes that remain, never trusted to size an
    // allocation.
    let nblocks = u64(raw)?;
    let mut blocks = Vec::new();
    for _ in 0..nblocks {
        let array = ArrayId(u32(raw)?);
        let rank = *take(raw, 1)?.first()? as usize;
        if rank > 8 {
            return None;
        }
        let segs = (0..rank)
            .map(|_| u32(raw).map(|s| s as i32 as i64))
            .collect::<Option<Vec<i64>>>()?;
        let ndims = u32(raw)? as usize;
        if ndims > sia_blocks::MAX_RANK {
            return None;
        }
        let dims = (0..ndims)
            .map(|_| u64(raw).and_then(|d| usize::try_from(d).ok()))
            .collect::<Option<Vec<usize>>>()?;
        let shape = Shape::try_new(&dims)?;
        let data = take(raw, shape.len().checked_mul(8)?)?;
        blocks.push((
            BlockKey::new(array, &segs),
            Block::from_le_bytes(shape, data)?,
        ));
    }
    let nops = u64(raw)?;
    let mut ops = Vec::new();
    for _ in 0..nops {
        ops.push(u64(raw)?);
        u64(raw)?; // epoch tag, not needed by the restorer
    }
    Some((epoch, blocks, ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_id_stable_and_context_sensitive() {
        let key = BlockKey::new(ArrayId(2), &[1, 3]);
        let env = [1, 3, 0, 2];
        let a = derive_op_id(10, 1, &key, &env, 0, None);
        let b = derive_op_id(10, 1, &key, &env, 0, None);
        assert_eq!(a, b, "same context must reproduce the id");
        assert_ne!(a, 0);
        assert_ne!(a, derive_op_id(11, 1, &key, &env, 0, None), "pc matters");
        assert_ne!(a, derive_op_id(10, 2, &key, &env, 0, None), "epoch matters");
        assert_ne!(
            a,
            derive_op_id(10, 1, &key, &env, 1, None),
            "occurrence sequence matters"
        );
        assert_ne!(
            a,
            derive_op_id(10, 1, &key, &[1, 3, 0, 9], 0, None),
            "index env matters"
        );
        let w0 = derive_op_id(10, 1, &key, &env, 0, Some(0));
        let w1 = derive_op_id(10, 1, &key, &env, 0, Some(1));
        assert_ne!(w0, w1, "SPMD puts must count once per worker");
        assert_ne!(a, w0, "pardo and SPMD ids must not collide");
    }

    #[test]
    fn epoch_checkpoint_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sia-ft-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = epoch_ckpt_path(&dir, 1);
        let key = BlockKey::new(ArrayId(4), &[2, 1]);
        let mut block = Block::zeros(Shape::new(&[2, 3]));
        for (i, v) in block.data_mut().iter_mut().enumerate() {
            *v = i as f64 * 0.5;
        }
        let mut applied = HashMap::new();
        applied.insert(77u64, 3u64);
        applied.insert(99u64, 3u64);
        write_epoch_checkpoint(&path, 3, &[(key, block.clone().into())], &applied).unwrap();
        let (epoch, blocks, ops) = read_epoch_checkpoint(&path).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].0, key);
        assert_eq!(blocks[0].1.data(), block.data());
        let mut ops = ops;
        ops.sort_unstable();
        assert_eq!(ops, vec![77, 99]);

        // The file is outside input: every truncation, a zero extent, a
        // rank no shape has and counts no file could back are `InvalidData`
        // — never a panic or an allocation sized by the file's own claims.
        let valid = std::fs::read(&path).unwrap();
        let patched = |at: usize, bytes: &[u8]| {
            let mut raw = valid.clone();
            raw[at..at + bytes.len()].copy_from_slice(bytes);
            raw
        };
        // magic 8 · epoch 8 · nblocks 8 · array 4 · rank 1 · segs 2×4 · ndims 4 · dims 2×8
        let (nblocks_at, ndims_at, dim0_at) = (16, 37, 41);
        let mut corrupt: Vec<Vec<u8>> = (0..valid.len()).map(|cut| valid[..cut].to_vec()).collect();
        corrupt.push(patched(nblocks_at, &u64::MAX.to_le_bytes()));
        corrupt.push(patched(ndims_at, &9u32.to_le_bytes()));
        corrupt.push(patched(dim0_at, &0u64.to_le_bytes()));
        corrupt.push(patched(dim0_at, &u64::MAX.to_le_bytes()));
        for raw in corrupt {
            std::fs::write(&path, &raw).unwrap();
            let err = read_epoch_checkpoint(&path).expect_err("corrupt checkpoint decoded");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
