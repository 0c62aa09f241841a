//! The store file of one served array: `<served dir>/a<id>.srv`, shared by
//! every I/O server — of this job, of other jobs of a daemon, of a later
//! run — pointed at the directory. It is the only tier served blocks share:
//! each server's own LRU cache sits in front of it, and a daemon job reads
//! another job's blocks from here exactly as a one-shot run reads its own.
//!
//! Every storage block of an array has the declared block shape, so a block
//! needs no index: it lives at the slot [`Layout::block_ordinal`] computes
//! from its key, `header + ordinal × slot bytes` into the file. A flush is
//! one `pwrite` of the slot, a miss one `pread`, a delete one `ftruncate`
//! back to the header; unprepared blocks are holes. The format (docs/SIP.md
//! §I/O servers has the table) is a header — magic, rank, per dimension the
//! block extent and the inclusive declared segment range, all `u64`
//! little-endian — then slots of stamp · payload · seal. The header is
//! published whole and checked against the run's layout on open, so a file
//! written for another geometry is a typed [`RuntimeError::ServedIo`], not
//! blocks at the wrong offsets. A file, once linked, is never replaced or
//! unlinked: every opener holds the same inode for good.
//!
//! A stamp is unique per write and never 0 — a zero head stamp is a slot
//! never prepared. The seal is the stamp XOR a fold of the payload. The
//! kernel copies a buffered `pread` and a `pwrite` of the same bytes with no
//! mutual exclusion, so a read racing another server's write of its slot can
//! return the head of one write, the middle of the next and a matching tail:
//! the seal is what tells such a slot from a whole one. A slot that fails it
//! is read again — a racing writer is expected, and done within
//! microseconds — and is a `ServedIo` only when it stays torn (a write cut
//! short by a crash, foreign bytes). Writes of one file do not interleave
//! with each other (the kernel serializes them on the inode), so — short of
//! a 64-bit collision of the fold — a read returns one writer's whole slot:
//! the old block or the new one.

use crate::error::RuntimeError;
use crate::ft::Cursor;
use crate::layout::Layout;
use sia_blocks::{Block, Shape, MAX_RANK};
use sia_bytecode::ArrayId;
use std::fs::{self, File};
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

const MAGIC: &[u8; 8] = b"SIASRV01";
/// A slot's write stamp ahead of the payload, and as much for the seal
/// behind it.
const STAMP_BYTES: usize = 8;
/// How often a slot that fails its seal is read again before it counts as
/// torn for good; the pauses between double from 2 µs, 8 ms in all.
const REREADS: u32 = 12;

/// A stamp no other write of this or any live process carries, never 0. The
/// process id is read once: asking for it is a syscall, one per slot write.
fn next_stamp() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    static PID: OnceLock<u64> = OnceLock::new();
    let pid = *PID.get_or_init(|| u64::from(std::process::id()) << 32);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    (pid | n & 0xffff_ffff).max(1)
}

/// One step of a [`fold`] lane.
fn mix(h: u64, w: u64) -> u64 {
    (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// A 64-bit fold of a slot's payload in which every word counts by its
/// position, so a payload pieced together from two writes does not fold like
/// either. Eight independent multiply chains, word `k` of each 64-byte row
/// into lane `k`; a short last row feeds its whole words to the first lanes
/// and its last bytes short of a word to none. About 0.4 µs per 8 KiB on a
/// 2.1 GHz Xeon, against the microseconds of the `pread`/`pwrite` it guards.
fn fold(payload: &[u8]) -> u64 {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut rows = payload.chunks_exact(64);
    for row in &mut rows {
        for (lane, w) in lanes.iter_mut().zip(row.chunks_exact(8)) {
            *lane = mix(*lane, word(w));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(rows.remainder().chunks_exact(8)) {
        *lane = mix(*lane, word(w));
    }
    lanes.into_iter().fold(payload.len() as u64, mix)
}

/// Reads at `at` until `buf` is full or the file ends; the bytes read.
fn read_full_at(file: &File, buf: &mut [u8], at: u64) -> std::io::Result<usize> {
    let mut held = 0;
    while held < buf.len() {
        match file.read_at(&mut buf[held..], at + held as u64) {
            Ok(0) => break,
            Ok(n) => held += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(held)
}

/// The geometry words at the front of `raw`: a rank, then three words per
/// dimension. `None` when it is cut short, is no store header or names a
/// rank no array has — the file comes from disk, so nothing in it is
/// trusted.
fn parse_header(raw: &[u8]) -> Option<Vec<u64>> {
    let mut raw = Cursor(raw);
    if raw.take(8)? != MAGIC {
        return None;
    }
    let rank = raw.u64()?;
    let dims = 0..usize::try_from(rank).ok().filter(|&r| r <= MAX_RANK)? * 3;
    std::iter::once(Some(rank))
        .chain(dims.map(|_| raw.u64()))
        .collect()
}

/// One served array's store file, as one I/O server sees it.
pub(crate) struct Store {
    pub(crate) path: PathBuf,
    /// What the file's offsets depend on: the array's rank, then per
    /// dimension the block extent and the inclusive declared segment range.
    geometry: Vec<u64>,
    /// The declared block shape: what every slot holds.
    shape: Shape,
    /// Opened, and created if need be, on the first touch.
    file: Option<File>,
}

impl Store {
    pub(crate) fn new(dir: &Path, layout: &Layout, array: ArrayId) -> Self {
        let dims = &layout.array(array).dims;
        let words = dims.iter().flat_map(|&d| {
            let (lo, hi) = layout.range(d);
            [layout.extent(d) as u64, lo as u64, hi as u64]
        });
        Store {
            path: dir.join(format!("a{}.srv", array.0)),
            geometry: std::iter::once(dims.len() as u64).chain(words).collect(),
            shape: layout.declared_block_shape(array),
            file: None,
        }
    }

    fn error(&self, what: impl std::fmt::Display) -> RuntimeError {
        RuntimeError::ServedIo(format!("store {}: {what}", self.path.display()))
    }

    fn header(&self) -> Vec<u8> {
        let words = self.geometry.iter().flat_map(|w| w.to_le_bytes());
        MAGIC.iter().copied().chain(words).collect()
    }

    fn header_bytes(&self) -> u64 {
        8 + 8 * self.geometry.len() as u64
    }

    fn slot_bytes(&self) -> usize {
        2 * STAMP_BYTES + self.shape.len() * 8
    }

    /// Opens the file, first creating it if it is not there: the header is
    /// written aside and hard-linked into place, so whoever opens the name
    /// — a racing creator included — finds a whole header, and a file that
    /// exists is never replaced. Then checks it was written for this run's
    /// geometry.
    fn open(&self) -> Result<File, RuntimeError> {
        let open = || File::options().read(true).write(true).open(&self.path);
        let file = open().or_else(|e| {
            if e.kind() != ErrorKind::NotFound {
                return Err(e);
            }
            let aside = self.path.with_extension(format!("{:x}.new", next_stamp()));
            let linked =
                fs::write(&aside, self.header()).and_then(|_| fs::hard_link(&aside, &self.path));
            let _ = fs::remove_file(&aside);
            match linked {
                Err(e) if e.kind() != ErrorKind::AlreadyExists => Err(e),
                _ => open(),
            }
        });
        let file = file.map_err(|e| self.error(format_args!("open: {e}")))?;
        let mut raw = [0; 8 + 8 + 3 * 8 * MAX_RANK];
        let held = read_full_at(&file, &mut raw, 0).map_err(|e| self.error(e))?;
        match parse_header(&raw[..held]) {
            Some(found) if found == self.geometry => Ok(file),
            Some(found) => Err(self.error(format_args!(
                "written for geometry {found:?}, this run declares {:?}",
                self.geometry
            ))),
            None => Err(self.error("corrupt header")),
        }
    }

    /// Opens the file if it is not open yet; the offset of `slot` in it.
    fn seek(&mut self, slot: u64) -> Result<u64, RuntimeError> {
        if self.file.is_none() {
            self.file = Some(self.open()?);
        }
        slot.checked_mul(self.slot_bytes() as u64)
            .and_then(|at| at.checked_add(self.header_bytes()))
            .ok_or_else(|| self.error(format_args!("slot {slot} is past any offset")))
    }

    fn file(&self) -> &File {
        self.file.as_ref().expect("opened by seek")
    }

    /// Fills `slot` with `block`: one positioned write of stamp, payload,
    /// seal.
    pub(crate) fn write(&mut self, slot: u64, block: &Block) -> Result<(), RuntimeError> {
        if block.shape() != &self.shape {
            return Err(self.error(format_args!(
                "a {:?} block stored among {:?} slots",
                block.shape(),
                self.shape
            )));
        }
        let stamp = next_stamp();
        let mut raw = Vec::with_capacity(self.slot_bytes());
        raw.extend_from_slice(&stamp.to_le_bytes());
        block.append_le_bytes(&mut raw);
        let seal = stamp ^ fold(&raw[STAMP_BYTES..]);
        raw.extend_from_slice(&seal.to_le_bytes());
        let at = self.seek(slot)?;
        let written = self.file().write_all_at(&raw, at);
        written.map_err(|e| self.error(format_args!("write slot {slot}: {e}")))
    }

    /// The block in `slot`, or `None` when it was never prepared: what the
    /// file does not hold — a hole, past its end — reads as zeros, and so
    /// does the head stamp of a cleared slot. The read is sized by this
    /// run's layout, never by the file. A slot caught half-way through
    /// another server's write fails its seal and is read again.
    pub(crate) fn load(&mut self, slot: u64) -> Result<Option<Block>, RuntimeError> {
        let mut raw = vec![0; self.slot_bytes()];
        let at = self.seek(slot)?;
        let mut rereads = 0;
        loop {
            let held = read_full_at(self.file(), &mut raw, at)
                .map_err(|e| self.error(format_args!("read slot {slot}: {e}")))?;
            raw[held..].fill(0);
            let (head, rest) = raw.split_at(STAMP_BYTES);
            let (payload, seal) = rest.split_at(rest.len() - STAMP_BYTES);
            let word = |raw: &[u8]| u64::from_le_bytes(raw.try_into().expect("8 bytes"));
            if word(head) == 0 {
                return Ok(None);
            } else if held == raw.len() && word(seal) == word(head) ^ fold(payload) {
                let block = Block::from_le_bytes(self.shape, payload);
                return Ok(Some(block.expect("the read is sized by the shape")));
            } else if rereads == REREADS {
                return Err(self.error(format_args!(
                    "torn slot {slot}: {held} bytes, stamp {head:02x?}, seal {seal:02x?}"
                )));
            }
            std::thread::sleep(Duration::from_micros(2 << rereads));
            rereads += 1;
        }
    }

    /// Whether `slot` was prepared: its head stamp alone, eight bytes read.
    pub(crate) fn present(&mut self, slot: u64) -> Result<bool, RuntimeError> {
        let mut head = [0; STAMP_BYTES];
        let at = self.seek(slot)?;
        read_full_at(self.file(), &mut head, at)
            .map_err(|e| self.error(format_args!("read slot {slot}: {e}")))?;
        Ok(head != [0; STAMP_BYTES])
    }

    /// Marks `slot` never prepared.
    pub(crate) fn clear(&mut self, slot: u64) -> Result<(), RuntimeError> {
        let at = self.seek(slot)?;
        self.file()
            .write_all_at(&[0; STAMP_BYTES], at)
            .map_err(|e| self.error(format_args!("clear slot {slot}: {e}")))
    }

    /// Empties the store: the file is cut back to its header in place, so
    /// every server that has it open — this job's others, another job's —
    /// is looking at the same empty store, not at an unlinked file of its
    /// own. Every server of a job empties the whole store when told to, each
    /// in its own time, so blocks prepared again before all of them have
    /// (that is, with no `server_barrier` after the `delete`) may be lost.
    /// A store nobody has created is already empty, and stays uncreated.
    pub(crate) fn delete(&mut self) -> Result<(), RuntimeError> {
        if self.file.is_none() && !self.path.exists() {
            return Ok(());
        }
        // Slot 0 starts where the header ends.
        let header = self.seek(0)?;
        self.file()
            .set_len(header)
            .map_err(|e| self.error(format_args!("truncate: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fold as first written, over `chunks(64)`: the oracle the store
    /// files on disk were sealed with.
    fn fold_by_rows_of_any_length(payload: &[u8]) -> u64 {
        let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for chunk in payload.chunks(64) {
            for (lane, word) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
                *lane = mix(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
            }
        }
        lanes.into_iter().fold(payload.len() as u64, mix)
    }

    #[test]
    fn fold_matches_the_row_by_row_oracle() {
        let payload: Vec<u8> = (0..8192u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in [0, 3, 8, 13, 72, 127, 128, 8192] {
            let p = &payload[..len];
            assert_eq!(fold(p), fold_by_rows_of_any_length(p), "{len} bytes");
        }
    }
}
