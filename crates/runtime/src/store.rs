//! The store file of one served array: `<served dir>/a<id>.srv`, shared by
//! every I/O server — of this job, of other jobs of a daemon, of a later
//! run — pointed at the directory. It is the only tier served blocks share:
//! each server's own LRU cache sits in front of it, and a daemon job reads
//! another job's blocks from here exactly as a one-shot run reads its own.
//!
//! Every storage block of an array has the declared block shape, so a block
//! needs no index: it lives at the slot [`Layout::block_ordinal`] computes
//! from its key, `header + ordinal × slot bytes` into the file. Adjacent
//! slots are adjacent bytes, so a run of them moves in one positioned
//! transfer: a flush is one `pwrite` of a run of slots, a miss one `pread`
//! of a run, a delete one `ftruncate` back to the header; unprepared blocks
//! are holes. A run is only the slots side by side — each keeps its own
//! stamp and seal, and a reader of one slot cannot tell how it was written.
//! The format (docs/SIP.md §I/O servers has the table) is a header — magic,
//! rank, per dimension the block extent and the inclusive declared segment
//! range, all `u64` little-endian — then slots of stamp · payload · seal.
//! The header is published whole and checked against the run's layout on
//! open, so a file written for another geometry is a typed
//! [`RuntimeError::ServedIo`], not blocks at the wrong offsets. A file, once
//! linked, is never replaced or unlinked: every opener holds the same inode
//! for good.
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
/// Most payload bytes one run moves: a run of large blocks is cut shorter,
/// but never below one slot. It keeps the run buffer about glibc's default
/// mmap threshold (128 KiB): freeing a mapped buffer when its server ends
/// raises that threshold, and the heap's trim threshold with it, for the
/// rest of the process — at 1 MiB, `served_sweep`'s peak RSS went from 7.4
/// to 10.8 MiB.
const RUN_PAYLOAD_BYTES: usize = 128 << 10;

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

/// What one slot's bytes hold.
enum Slot {
    /// A zero head stamp: never prepared, or cleared.
    Empty,
    /// A stamp, a payload and a seal that matches them.
    Whole(Block),
    /// Cut short, or pieced together from two writes: its seal fails.
    Torn,
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
    /// The bytes of the last run moved, kept for the next one.
    buf: Vec<u8>,
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
            buf: Vec::new(),
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

    /// How many slots one run may move: `slots`, or fewer when their
    /// payloads would pass the byte cap.
    pub(crate) fn run_cap(&self, slots: u64) -> u64 {
        slots.min((RUN_PAYLOAD_BYTES / (self.shape.len() * 8).max(1)).max(1) as u64)
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

    /// Fills the slots from `first` on with `blocks`, one slot each: one
    /// positioned write of every slot's stamp, payload and seal back to
    /// back. Each slot takes its own stamp, so it reads exactly as if it
    /// had been written alone.
    pub(crate) fn write_run<'b>(
        &mut self,
        first: u64,
        blocks: impl IntoIterator<Item = &'b Block>,
    ) -> Result<(), RuntimeError> {
        let mut raw = std::mem::take(&mut self.buf);
        raw.clear();
        for block in blocks {
            if block.shape() != &self.shape {
                return Err(self.error(format_args!(
                    "a {:?} block stored among {:?} slots",
                    block.shape(),
                    self.shape
                )));
            }
            // Exactly what the run needs: see `RUN_PAYLOAD_BYTES`.
            raw.reserve_exact(self.slot_bytes());
            let stamp = next_stamp();
            let at = raw.len() + STAMP_BYTES;
            raw.extend_from_slice(&stamp.to_le_bytes());
            block.append_le_bytes(&mut raw);
            let seal = stamp ^ fold(&raw[at..]);
            raw.extend_from_slice(&seal.to_le_bytes());
        }
        let at = self.seek(first)?;
        let written = self.file().write_all_at(&raw, at);
        self.buf = raw;
        written.map_err(|e| self.error(format_args!("write slots from {first}: {e}")))
    }

    /// What one slot's bytes `raw` hold; `whole` when the file held all of
    /// them (the rest reads as zeros).
    fn parse(&self, raw: &[u8], whole: bool) -> Slot {
        let word = |raw: &[u8]| u64::from_le_bytes(raw.try_into().expect("8 bytes"));
        let (head, rest) = raw.split_at(STAMP_BYTES);
        let (payload, seal) = rest.split_at(rest.len() - STAMP_BYTES);
        if word(head) == 0 {
            Slot::Empty
        } else if whole && word(seal) == word(head) ^ fold(payload) {
            let block = Block::from_le_bytes(self.shape, payload);
            Slot::Whole(block.expect("the read is sized by the shape"))
        } else {
            Slot::Torn
        }
    }

    /// Reads `len` slots from `first` on in one positioned read, sized by
    /// this run's layout, never by the file; what the file does not hold —
    /// a hole, past its end — reads as zeros. Each slot is judged by its own
    /// stamp and seal.
    fn read_run(&mut self, first: u64, len: usize) -> Result<Vec<Slot>, RuntimeError> {
        let slot_bytes = self.slot_bytes();
        let at = self.seek(first)?;
        let mut raw = std::mem::take(&mut self.buf);
        // The read overwrites the bytes it holds; only the rest is zeroed.
        raw.reserve_exact((len * slot_bytes).saturating_sub(raw.len()));
        raw.resize(len * slot_bytes, 0);
        let held = read_full_at(self.file(), &mut raw, at);
        let slots = held.map(|held| {
            raw[held..].fill(0);
            raw.chunks_exact(slot_bytes)
                .enumerate()
                .map(|(i, slot)| self.parse(slot, held >= (i + 1) * slot_bytes))
                .collect()
        });
        self.buf = raw;
        slots.map_err(|e| self.error(format_args!("read slots from {first}: {e}")))
    }

    /// The block in `slot`, or `None` when it was never prepared: what the
    /// file does not hold reads as zeros, and so does the head stamp of a
    /// cleared slot. A slot caught half-way through another server's write
    /// fails its seal and is read again.
    pub(crate) fn load(&mut self, slot: u64) -> Result<Option<Block>, RuntimeError> {
        let mut rereads = 0;
        loop {
            match self.read_run(slot, 1)?.pop().expect("one slot read") {
                Slot::Empty => return Ok(None),
                Slot::Whole(block) => return Ok(Some(block)),
                Slot::Torn if rereads == REREADS => return Err(self.torn(slot)),
                Slot::Torn => {}
            }
            std::thread::sleep(Duration::from_micros(2 << rereads));
            rereads += 1;
        }
    }

    /// The typed error of a slot that stayed torn, naming what it holds.
    fn torn(&self, slot: u64) -> RuntimeError {
        let raw = &self.buf[..self.slot_bytes()];
        let (head, seal) = (&raw[..STAMP_BYTES], &raw[raw.len() - STAMP_BYTES..]);
        self.error(format_args!(
            "torn slot {slot}: stamp {head:02x?}, seal {seal:02x?}"
        ))
    }

    /// The blocks in the `len` slots from `first` on, read in one positioned
    /// read: `None` where a slot was never prepared. `first` is read again
    /// alone, as [`load`](Self::load) reads it, when it fails its seal; a
    /// later slot that fails its seal is `None` too, left for its own
    /// request to read again.
    pub(crate) fn load_run(
        &mut self,
        first: u64,
        len: usize,
    ) -> Result<Vec<Option<Block>>, RuntimeError> {
        let mut slots = self.read_run(first, len.max(1))?.into_iter();
        let head = match slots.next().expect("at least one slot read") {
            Slot::Torn => self.load(first)?,
            Slot::Empty => None,
            Slot::Whole(block) => Some(block),
        };
        let ahead = slots.map(|slot| match slot {
            Slot::Whole(block) => Some(block),
            Slot::Empty | Slot::Torn => None,
        });
        Ok(std::iter::once(head).chain(ahead).collect())
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

    /// The slot format is unchanged by runs, byte for byte. Slots written
    /// one write each, encoded as the store encoded them before runs — the
    /// seal taken with the oracle fold — read back through one run; slots
    /// written as runs read back one slot at a time, and hold the same
    /// payloads under seals the oracle fold accepts.
    #[test]
    fn runs_keep_the_one_slot_format() {
        let dir = std::env::temp_dir().join(format!("sia-store-format-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let layout = crate::ioserver::tests::layout_of(4);
        let mut store = Store::new(&dir, &layout, ArrayId(0));
        let block = |o: u64| {
            Block::from_fn(Shape::new(&[4, 4]), |i| {
                o as f64 + (i[0] * 4 + i[1]) as f64 / 64.0
            })
        };
        let (header, slot) = (store.header_bytes(), store.slot_bytes() as u64);
        let written: [u64; 4] = [0, 1, 2, 5];
        assert!(!store.present(0).unwrap(), "a fresh store");
        let file = File::options().write(true).open(&store.path).unwrap();
        for o in written {
            let stamp = 0x5eed_0000 + o;
            let mut raw = stamp.to_le_bytes().to_vec();
            block(o).append_le_bytes(&mut raw);
            let seal = stamp ^ fold_by_rows_of_any_length(&raw[8..]);
            raw.extend_from_slice(&seal.to_le_bytes());
            file.write_all_at(&raw, header + o * slot).unwrap();
        }
        let want = |o: u64| written.contains(&o).then(|| block(o));
        let by_one_run: Vec<_> = (0..6).map(want).collect();
        assert_eq!(store.load_run(0, 6).unwrap(), by_one_run);
        let by_hand = fs::read(&store.path).unwrap();
        store.delete().unwrap();
        let blocks = [0, 1, 2].map(block);
        store.write_run(0, &blocks).unwrap();
        store.write_run(5, [&block(5)]).unwrap();
        for o in 0..6 {
            assert_eq!(store.load(o).unwrap(), want(o), "slot {o}");
        }
        let by_runs = fs::read(&store.path).unwrap();
        assert_eq!(by_runs.len(), by_hand.len());
        assert_eq!(by_runs[..header as usize], by_hand[..header as usize]);
        let (by_runs, by_hand) = (&by_runs[header as usize..], &by_hand[header as usize..]);
        let slots = by_runs
            .chunks(slot as usize)
            .zip(by_hand.chunks(slot as usize));
        for (o, (run, hand)) in slots.enumerate() {
            let (stamp, rest) = run.split_at(STAMP_BYTES);
            let (payload, seal) = rest.split_at(rest.len() - STAMP_BYTES);
            assert_eq!(
                payload,
                &hand[STAMP_BYTES..hand.len() - STAMP_BYTES],
                "slot {o}"
            );
            if stamp != [0; STAMP_BYTES] {
                let word = |w: &[u8]| u64::from_le_bytes(w.try_into().unwrap());
                let oracle = word(stamp) ^ fold_by_rows_of_any_length(payload);
                assert_eq!(word(seal), oracle, "slot {o}");
            }
        }
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
