//! Cross-rank event tracing.
//!
//! Every rank — worker, I/O server, master — owns a [`TraceSink`]: a
//! preallocated ring buffer of fixed-size [`TraceEvent`]s. Recording is a
//! couple of integer stores (no allocation, no locks, no syscalls beyond
//! the monotonic clock reads the profiler already performs); a disabled
//! sink is a `None` and every record call is a single branch. At shutdown
//! the master gathers the per-rank buffers — workers ship theirs inside
//! `WorkerDone`, I/O servers in a `ServerDone` message — and the runtime
//! merges them into a [`TraceTimeline`] exported as Chrome-trace JSON
//! (load in Perfetto or `chrome://tracing`).
//!
//! Event vocabulary:
//! * **instruction spans** — one per executed super-instruction (pc +
//!   class), the worker's busy backbone;
//! * **wait spans** — blocked intervals attributed by
//!   [`WaitCause`](crate::metrics::WaitCause), nested inside the
//!   instruction that blocked;
//! * **comm-flight spans** — remote fetch issue → `Block` arrival,
//!   correlated by `ReqId` and drawn as async events so concurrent
//!   prefetches stack; the overlap metric integrates these against wait;
//! * **cache fill/evict, serve, flush, checkpoint/restore, recovery** —
//!   bookkeeping instants and service spans from all ranks.
//!
//! All timestamps are nanoseconds since a run epoch shared by every
//! rank's sink (one `Instant` captured before the ranks spawn), so the
//! merged timeline needs no clock alignment.

use crate::metrics::{JsonWriter, WaitCause};
use crate::msg::BlockKey;
use sia_bytecode::{InstructionClass, Program};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

/// Which communication round-trip a flight span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommOp {
    /// GET/REQUEST: remote block fetch.
    Get,
    /// PUT: accumulate/replace round-trip (ack-correlated).
    Put,
    /// PREPARE: served-array write round-trip.
    Prepare,
}

impl CommOp {
    fn label(self) -> &'static str {
        match self {
            CommOp::Get => "get",
            CommOp::Put => "put",
            CommOp::Prepare => "prepare",
        }
    }
}

/// Recovery happenings recorded by the master and survivors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A rank was declared dead.
    RankDead,
    /// A dead worker's unacked chunks were re-queued.
    Requeue,
    /// Checkpointed blocks were restored to a new home.
    Restore,
    /// A survivor executed a takeover chunk.
    Takeover,
}

impl RecoveryEvent {
    fn label(self) -> &'static str {
        match self {
            RecoveryEvent::RankDead => "rank dead",
            RecoveryEvent::Requeue => "requeue chunks",
            RecoveryEvent::Restore => "restore blocks",
            RecoveryEvent::Takeover => "takeover chunk",
        }
    }
}

/// The typed payload of one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// One executed super-instruction (span).
    Instruction {
        /// Program counter.
        pc: u32,
        /// Instruction class (§V-A).
        class: InstructionClass,
    },
    /// A blocked interval (span), attributed by cause.
    Wait {
        /// Why the rank was blocked.
        cause: WaitCause,
    },
    /// A communication round-trip in flight (async span).
    Flight {
        /// Round-trip type.
        op: CommOp,
        /// The block in flight.
        key: BlockKey,
        /// Correlation id (`ReqId`/`OpId` value, or a trace-local
        /// sequence number when the run allocates neither).
        id: u64,
    },
    /// One hop of a multicast tree push: a broadcast-shaped block pushed
    /// (root) or forwarded (inner node) toward this rank's tree children.
    /// Rendered as an async pair on the comm thread, correlated upstream
    /// by `parent`.
    Multicast {
        /// The pushed block.
        key: BlockKey,
        /// This hop's globally unique flight id (rank ⊕ sequence).
        id: u64,
        /// The upstream hop's flight id; 0 when this rank is the root.
        parent: u64,
    },
    /// A block served to a requester (span on I/O servers, where it can
    /// include a disk read; instant on workers serving home blocks).
    Serve {
        /// The block served.
        key: BlockKey,
        /// Whether the serve went to disk.
        disk: bool,
    },
    /// Dirty-block write-back (span).
    Flush {
        /// Blocks written.
        blocks: u64,
    },
    /// A remote copy entered the cache (instant).
    CacheFill {
        /// The cached block.
        key: BlockKey,
        /// Payload bytes.
        bytes: u64,
    },
    /// A cached copy was evicted (instant).
    CacheEvict {
        /// The evicted block.
        key: BlockKey,
        /// Payload bytes.
        bytes: u64,
    },
    /// Checkpoint save or restore round-trip (span).
    Checkpoint {
        /// True for restore, false for save.
        restore: bool,
    },
    /// A recovery happening (instant).
    Recovery {
        /// What happened.
        what: RecoveryEvent,
    },
    /// A labelled instant (barrier releases, epoch commits).
    Mark {
        /// Static label.
        label: &'static str,
    },
}

/// One recorded event: a kind plus a `[start, end]` interval in
/// nanoseconds since the run epoch (instants have `start == end`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start, ns since the run epoch.
    pub t_start_ns: u64,
    /// End, ns since the run epoch (== start for instants).
    pub t_end_ns: u64,
    /// Payload.
    pub kind: EventKind,
}

/// Default per-rank ring capacity, in events.
pub const DEFAULT_TRACE_EVENTS: usize = 1 << 16;

struct SinkInner {
    epoch: Instant,
    buf: Vec<TraceEvent>,
    // Next slot to overwrite once the buffer is full.
    head: usize,
    dropped: u64,
}

/// A per-rank event recorder.
///
/// Disabled sinks (the default) hold no buffer and record nothing; an
/// enabled sink preallocates its whole ring up front so the record path
/// never allocates. When the ring fills, the oldest events are
/// overwritten and counted as dropped — tracing degrades by forgetting
/// history, never by stalling the rank.
pub struct TraceSink(Option<Box<SinkInner>>);

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "TraceSink(off)"),
            Some(s) => write!(
                f,
                "TraceSink(on, {}/{} events, {} dropped)",
                s.buf.len(),
                s.buf.capacity(),
                s.dropped
            ),
        }
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::disabled()
    }
}

impl TraceSink {
    /// The no-op sink: records nothing, allocates nothing.
    pub fn disabled() -> Self {
        TraceSink(None)
    }

    /// An enabled sink with a preallocated ring of `capacity` events,
    /// timestamping against `epoch` (shared by every rank of a run).
    pub fn enabled(capacity: usize, epoch: Instant) -> Self {
        TraceSink(Some(Box::new(SinkInner {
            epoch,
            buf: Vec::with_capacity(capacity.max(16)),
            head: 0,
            dropped: 0,
        })))
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Nanoseconds since the run epoch (0 when disabled).
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        match &self.0 {
            Some(s) => s.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if let Some(s) = &mut self.0 {
            if s.buf.len() < s.buf.capacity() {
                s.buf.push(ev);
            } else if !s.buf.is_empty() {
                s.buf[s.head] = ev;
                s.head = (s.head + 1) % s.buf.len();
                s.dropped += 1;
            }
        }
    }

    /// Records a span from explicit epoch-relative nanoseconds.
    pub(crate) fn span(&mut self, kind: EventKind, t_start_ns: u64, t_end_ns: u64) {
        if self.0.is_some() {
            self.push(TraceEvent {
                t_start_ns,
                t_end_ns: t_end_ns.max(t_start_ns),
                kind,
            });
        }
    }

    /// Records a span between two clock readings the caller already took:
    /// consecutive spans that share a reading then abut exactly, where a
    /// reading of the sink's own would put one span's end past the next
    /// one's start.
    pub(crate) fn span_between(&mut self, kind: EventKind, start: Instant, end: Instant) {
        if let Some(s) = &self.0 {
            let t0 = start.saturating_duration_since(s.epoch).as_nanos() as u64;
            let t1 = end.saturating_duration_since(s.epoch).as_nanos() as u64;
            self.push(TraceEvent {
                t_start_ns: t0,
                t_end_ns: t1.max(t0),
                kind,
            });
        }
    }

    /// Records an instant at the current time.
    pub(crate) fn instant(&mut self, kind: EventKind) {
        if self.0.is_some() {
            let t = self.now_ns();
            self.push(TraceEvent {
                t_start_ns: t,
                t_end_ns: t,
                kind,
            });
        }
    }

    /// Takes the recorded events (ring order restored to chronological)
    /// and the dropped count, leaving the sink enabled but empty.
    pub(crate) fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        match &mut self.0 {
            None => (Vec::new(), 0),
            Some(s) => {
                let head = s.head;
                s.head = 0;
                let dropped = std::mem::take(&mut s.dropped);
                let mut buf = std::mem::take(&mut s.buf);
                buf.rotate_left(head);
                (buf, dropped)
            }
        }
    }
}

/// One rank's contribution to the merged timeline.
#[derive(Debug, Clone, Default)]
pub struct RankTrace {
    /// Fabric rank number.
    pub rank: usize,
    /// Human label ("master", "worker 1", "io 3").
    pub label: String,
    /// Events in chronological record order.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrite on this rank.
    pub dropped: u64,
}

/// The merged, all-ranks event timeline of one run.
#[derive(Debug, Clone, Default)]
pub struct TraceTimeline {
    /// Per-rank traces, rank order.
    pub ranks: Vec<RankTrace>,
}

impl TraceTimeline {
    /// Total events across all ranks.
    pub fn total_events(&self) -> usize {
        self.ranks.iter().map(|r| r.events.len()).sum()
    }

    /// Exports the timeline as Chrome-trace JSON (the "JSON Array
    /// Format" inside a `traceEvents` object, as Perfetto and
    /// `chrome://tracing` load it). Each rank renders as a process:
    /// tid 0 carries the synchronous execute spans (instruction, wait,
    /// serve, checkpoint), comm flights render as async `b`/`e` pairs so
    /// concurrent prefetches stack instead of colliding. When `program`
    /// is given, instruction spans are named by their disassembly.
    pub fn to_chrome_json(&self, program: Option<&Program>) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("displayTimeUnit");
        w.string("ms");
        w.key("traceEvents");
        w.begin_array();
        for r in &self.ranks {
            // Process/thread naming metadata.
            meta(&mut w, "process_name", r.rank, 0, &r.label);
            meta(&mut w, "thread_name", r.rank, 0, "execute");
            if r.events.iter().any(|e| {
                matches!(
                    e.kind,
                    EventKind::Flight { .. } | EventKind::Multicast { .. }
                )
            }) {
                meta(&mut w, "thread_name", r.rank, 1, "comm");
            }
            let mut ordered: Vec<&TraceEvent> = r.events.iter().collect();
            ordered.sort_by_key(|e| (e.t_start_ns, std::cmp::Reverse(e.t_end_ns)));
            for e in ordered {
                emit_event(&mut w, r.rank, e, program);
            }
        }
        w.end_array();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

fn meta(w: &mut JsonWriter, what: &str, pid: usize, tid: usize, name: &str) {
    w.begin_object();
    w.key("name");
    w.string(what);
    w.key("ph");
    w.string("M");
    w.key("pid");
    w.u64(pid as u64);
    w.key("tid");
    w.u64(tid as u64);
    w.key("args");
    w.begin_object();
    w.key("name");
    w.string(name);
    w.end_object();
    w.end_object();
}

/// Microseconds with nanosecond precision, as Chrome's `ts` wants.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn event_header(
    w: &mut JsonWriter,
    name: &str,
    cat: &str,
    ph: &str,
    pid: usize,
    tid: u64,
    ns: u64,
) {
    w.begin_object();
    w.key("name");
    w.string(name);
    w.key("cat");
    w.string(cat);
    w.key("ph");
    w.string(ph);
    w.key("pid");
    w.u64(pid as u64);
    w.key("tid");
    w.u64(tid);
    w.key("ts");
    let t = us(ns);
    w.raw_number(&t);
}

fn emit_event(w: &mut JsonWriter, rank: usize, e: &TraceEvent, program: Option<&Program>) {
    let dur_ns = e.t_end_ns - e.t_start_ns;
    let mut name = String::new();
    match e.kind {
        EventKind::Instruction { pc, class } => {
            match program.and_then(|p| p.code.get(pc as usize).map(|i| (p, i))) {
                Some((p, i)) => {
                    let _ = write!(
                        name,
                        "{}",
                        sia_bytecode::disasm::disassemble_instruction(p, i)
                    );
                }
                None => {
                    let _ = write!(name, "pc {pc} ({class:?})");
                }
            }
            event_header(w, &name, "instruction", "X", rank, 0, e.t_start_ns);
            w.key("dur");
            w.raw_number(&us(dur_ns));
            w.key("args");
            w.begin_object();
            w.key("pc");
            w.u64(pc as u64);
            w.key("class");
            name.clear();
            let _ = write!(name, "{class:?}");
            w.string(&name);
            w.end_object();
            w.end_object();
        }
        EventKind::Wait { cause } => {
            let _ = write!(name, "wait: {}", cause.label());
            event_header(w, &name, "wait", "X", rank, 0, e.t_start_ns);
            w.key("dur");
            w.raw_number(&us(dur_ns));
            w.key("args");
            w.begin_object();
            w.key("cause");
            w.string(cause.key());
            w.end_object();
            w.end_object();
        }
        EventKind::Flight { op, key, id } => {
            let _ = write!(name, "{} {key:?}", op.label());
            // Async begin/end pair so overlapping flights stack.
            let uid = ((rank as u64) << 48) | (id & 0xffff_ffff_ffff);
            for (ph, ns) in [("b", e.t_start_ns), ("e", e.t_end_ns)] {
                event_header(w, &name, "comm", ph, rank, 1, ns);
                w.key("id");
                let hex = format!("0x{uid:x}");
                w.string(&hex);
                if ph == "b" {
                    w.key("args");
                    w.begin_object();
                    w.key("id");
                    w.u64(id);
                    w.end_object();
                }
                w.end_object();
            }
        }
        EventKind::Multicast { key, id, parent } => {
            let _ = write!(name, "multicast {key:?}");
            // The hop id is already rank-qualified (rank in the top bits),
            // so it doubles as the async correlation id — and `parent`
            // correlates this hop to the upstream rank's hop in args.
            for (ph, ns) in [("b", e.t_start_ns), ("e", e.t_end_ns)] {
                event_header(w, &name, "multicast", ph, rank, 1, ns);
                w.key("id");
                let hex = format!("0x{id:x}");
                w.string(&hex);
                if ph == "b" {
                    w.key("args");
                    w.begin_object();
                    w.key("id");
                    w.u64(id);
                    w.key("parent");
                    w.u64(parent);
                    w.end_object();
                }
                w.end_object();
            }
        }
        EventKind::Serve { key, disk } => {
            let _ = write!(name, "serve {key:?}");
            if dur_ns == 0 {
                event_header(w, &name, "serve", "i", rank, 0, e.t_start_ns);
                w.key("s");
                w.string("t");
            } else {
                event_header(w, &name, "serve", "X", rank, 0, e.t_start_ns);
                w.key("dur");
                w.raw_number(&us(dur_ns));
            }
            w.key("args");
            w.begin_object();
            w.key("disk");
            w.bool(disk);
            w.end_object();
            w.end_object();
        }
        EventKind::Flush { blocks } => {
            let _ = write!(name, "flush {blocks} blocks");
            event_header(w, &name, "serve", "X", rank, 0, e.t_start_ns);
            w.key("dur");
            w.raw_number(&us(dur_ns));
            w.end_object();
        }
        EventKind::CacheFill { key, bytes } | EventKind::CacheEvict { key, bytes } => {
            let evict = matches!(e.kind, EventKind::CacheEvict { .. });
            let _ = write!(name, "{} {key:?}", if evict { "evict" } else { "fill" });
            event_header(w, &name, "cache", "i", rank, 0, e.t_start_ns);
            w.key("s");
            w.string("t");
            w.key("args");
            w.begin_object();
            w.key("bytes");
            w.u64(bytes);
            w.end_object();
            w.end_object();
        }
        EventKind::Checkpoint { restore } => {
            name.push_str(if restore {
                "checkpoint restore"
            } else {
                "checkpoint save"
            });
            event_header(w, &name, "checkpoint", "X", rank, 0, e.t_start_ns);
            w.key("dur");
            w.raw_number(&us(dur_ns));
            w.end_object();
        }
        EventKind::Recovery { what } => {
            name.push_str(what.label());
            event_header(w, &name, "recovery", "i", rank, 0, e.t_start_ns);
            w.key("s");
            w.string("t");
            w.end_object();
        }
        EventKind::Mark { label } => {
            event_header(w, label, "mark", "i", rank, 0, e.t_start_ns);
            w.key("s");
            w.string("t");
            w.end_object();
        }
    }
}

// --- minimal JSON reader (for the lint paths and tests) -----------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true`/`false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Deepest `[`/`{` nesting [`parse_json`] follows — ten times what the
/// trace and profile exports use. The parser recurses once per level and
/// the file may be anybody's, so past this it is an error, not a stack.
const MAX_JSON_DEPTH: usize = 128;

/// Parses a JSON document. Supports the full grammar the runtime's own
/// writers emit (and standard escapes); errors carry a byte offset.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} at byte {pos}"
        )),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key is not a string at byte {pos}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos, depth + 1)?;
                members.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => expect_lit(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect_lit(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'n') => expect_lit(b, pos, "null").map(|()| Json::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
    }
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // The ordinary characters up to the next quote or escape,
                // in one copy. Both delimiters are ASCII and `b` is the
                // bytes of a `&str`, so the run is whole UTF-8 scalars.
                let run = &b[*pos..];
                let len = run.iter().position(|c| matches!(c, b'"' | b'\\'));
                let run = &run[..len.unwrap_or(run.len())];
                out.push_str(std::str::from_utf8(run).map_err(|e| e.to_string())?);
                *pos += run.len();
            }
        }
    }
}

// --- schema lint --------------------------------------------------------

/// Per-rank summary produced by [`lint_chrome_trace`].
#[derive(Debug, Clone, Default)]
pub struct RankLint {
    /// Process label from the metadata events.
    pub label: String,
    /// Complete (`X`) spans on this rank.
    pub spans: usize,
    /// Async begin/end pairs on this rank.
    pub flights: usize,
    /// Multicast hops recorded on this rank.
    pub multicasts: usize,
    /// Event categories seen on this rank.
    pub cats: BTreeSet<String>,
}

/// Summary of a linted Chrome-trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceLint {
    /// Total entries in `traceEvents` (metadata included).
    pub events: usize,
    /// Per-rank breakdown keyed by pid.
    pub ranks: BTreeMap<u64, RankLint>,
}

/// Validates Chrome-trace JSON produced by [`TraceTimeline::to_chrome_json`]:
/// a `traceEvents` array whose entries carry
/// `name`/`ph`/`pid`/`tid` (+ `ts`/`dur` where the phase demands them),
/// monotone nesting of complete spans per `(pid, tid)`, balanced async
/// begin/end pairs per flight id, and multicast hop correlation — every
/// forwarded hop's `args.parent` must name an existing hop's `args.id`
/// (no orphan forwards). Takes the parsed document: whoever has the text
/// has usually parsed it already, to tell a trace from a profile.
pub fn lint_chrome_trace(doc: &Json) -> Result<TraceLint, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing traceEvents array")?;
    let mut lint = TraceLint {
        events: events.len(),
        ranks: BTreeMap::new(),
    };
    // (pid, tid) -> complete spans as (start_ns, end_ns).
    let mut spans: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    // (pid, id) -> open async begins.
    let mut open: BTreeMap<(u64, String), i64> = BTreeMap::new();
    // Multicast hop ids seen (globally unique), and each forward's parent.
    let mut mcast_ids: BTreeSet<u64> = BTreeSet::new();
    let mut mcast_parents: Vec<(usize, u64)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        e.get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        let pid = e
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: missing pid"))? as u64;
        let tid = e
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: missing tid"))? as u64;
        let rank = lint.ranks.entry(pid).or_default();
        if ph == "M" {
            if e.get("name").and_then(Json::as_str) == Some("process_name") {
                if let Some(n) = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                {
                    rank.label = n.to_string();
                }
            }
            continue;
        }
        let ts = e
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: missing ts"))?;
        if ts < 0.0 {
            return Err(format!("event {i}: negative ts"));
        }
        if let Some(cat) = e.get("cat").and_then(Json::as_str) {
            rank.cats.insert(cat.to_string());
        }
        let ns = (ts * 1000.0).round() as u64;
        match ph {
            "X" => {
                let dur = e
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: X span missing dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
                rank.spans += 1;
                spans
                    .entry((pid, tid))
                    .or_default()
                    .push((ns, ns + (dur * 1000.0).round() as u64));
            }
            "b" => {
                let id = e
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or(format!("event {i}: async begin missing id"))?;
                *open.entry((pid, id.to_string())).or_insert(0) += 1;
                rank.flights += 1;
                if e.get("cat").and_then(Json::as_str) == Some("multicast") {
                    rank.multicasts += 1;
                    let args = e
                        .get("args")
                        .ok_or(format!("event {i}: multicast hop missing args"))?;
                    let hop = args
                        .get("id")
                        .and_then(Json::as_f64)
                        .ok_or(format!("event {i}: multicast hop missing args.id"))?
                        as u64;
                    let parent = args
                        .get("parent")
                        .and_then(Json::as_f64)
                        .ok_or(format!("event {i}: multicast hop missing args.parent"))?
                        as u64;
                    mcast_ids.insert(hop);
                    if parent != 0 {
                        mcast_parents.push((i, parent));
                    }
                }
            }
            "e" => {
                let id = e
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or(format!("event {i}: async end missing id"))?;
                let n = open.entry((pid, id.to_string())).or_insert(0);
                *n -= 1;
                if *n < 0 {
                    return Err(format!("event {i}: async end before begin (id {id})"));
                }
            }
            "i" => {}
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    for ((pid, id), n) in &open {
        if *n != 0 {
            return Err(format!("unbalanced async events: pid {pid} id {id}"));
        }
    }
    for (i, parent) in &mcast_parents {
        if !mcast_ids.contains(parent) {
            return Err(format!(
                "event {i}: multicast forward orphaned — parent hop {parent} not in trace"
            ));
        }
    }
    // Monotone nesting: within a thread, sorted spans must form a proper
    // forest — each span either follows the previous or nests inside it.
    for ((pid, tid), mut list) in spans {
        list.sort_by_key(|&(s, e)| (s, std::cmp::Reverse(e)));
        let mut stack: Vec<(u64, u64)> = Vec::new();
        for (s, e) in list {
            while let Some(&(_, top_end)) = stack.last() {
                if top_end <= s {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(_, top_end)) = stack.last() {
                if e > top_end {
                    return Err(format!(
                        "pid {pid} tid {tid}: span [{s}, {e}] overlaps enclosing span ending {top_end}"
                    ));
                }
            }
            stack.push((s, e));
        }
    }
    Ok(lint)
}

/// Validates the `--profile-json` export: parseable JSON with the
/// `sia.profile.v1` schema marker and the required top-level members.
pub fn lint_profile_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("sia.profile.v1") => {}
        other => return Err(format!("bad schema marker {other:?}")),
    }
    for key in [
        "iterations",
        "wait_fraction",
        "total_busy_ns",
        "total_wait_ns",
    ] {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric {key}"))?;
    }
    let overlap = doc.get("overlap").ok_or("missing overlap")?;
    overlap
        .get("per_worker")
        .and_then(Json::as_array)
        .ok_or("missing overlap.per_worker")?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("missing metrics object")?;
    for name in ["cache", "memory", "comm", "wait"] {
        if !metrics.iter().any(|(k, _)| k == name) {
            return Err(format!("missing metrics.{name}"));
        }
    }
    doc.get("lines")
        .and_then(Json::as_array)
        .ok_or("missing lines array")?;
    Ok(())
}

/// Validates a `sial check --json` export: parseable JSON with the
/// `sia.diag.v1` schema marker, a matching `count`, and the required
/// members on every diagnostic entry.
pub fn lint_diag_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("sia.diag.v1") => {}
        other => return Err(format!("bad schema marker {other:?}")),
    }
    doc.get("file")
        .and_then(Json::as_str)
        .ok_or("missing file")?;
    let count = doc
        .get("count")
        .and_then(Json::as_f64)
        .ok_or("missing numeric count")? as usize;
    let diags = doc
        .get("diagnostics")
        .and_then(Json::as_array)
        .ok_or("missing diagnostics array")?;
    if diags.len() != count {
        return Err(format!(
            "count {} does not match diagnostics length {}",
            count,
            diags.len()
        ));
    }
    for (i, d) in diags.iter().enumerate() {
        for key in ["file", "severity", "code", "message"] {
            d.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("diagnostic {i}: missing string {key}"))?;
        }
        for key in ["start", "end", "line", "col"] {
            d.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("diagnostic {i}: missing numeric {key}"))?;
        }
        match d.get("severity").and_then(Json::as_str) {
            Some("note" | "warning" | "error") => {}
            other => return Err(format!("diagnostic {i}: bad severity {other:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::BlockKey;
    use sia_bytecode::ArrayId;

    fn key() -> BlockKey {
        BlockKey::new(ArrayId(1), &[2, 3])
    }

    fn lint_text(text: &str) -> Result<TraceLint, String> {
        lint_chrome_trace(&parse_json(text)?)
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut s = TraceSink::disabled();
        assert!(!s.is_on());
        s.instant(EventKind::Mark { label: "x" });
        s.span(
            EventKind::Wait {
                cause: WaitCause::BlockArrival,
            },
            0,
            5,
        );
        let (events, dropped) = s.drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut s = TraceSink::enabled(16, Instant::now());
        for i in 0..20u64 {
            s.span(EventKind::Mark { label: "m" }, i, i);
        }
        let (events, dropped) = s.drain();
        assert_eq!(events.len(), 16);
        assert_eq!(dropped, 4);
        // Oldest four were overwritten; order is chronological.
        assert_eq!(events[0].t_start_ns, 4);
        assert_eq!(events[15].t_start_ns, 19);
    }

    #[test]
    fn chrome_export_lints_clean() {
        let mut tl = TraceTimeline::default();
        let events = vec![
            TraceEvent {
                t_start_ns: 0,
                t_end_ns: 1000,
                kind: EventKind::Instruction {
                    pc: 0,
                    class: InstructionClass::Control,
                },
            },
            TraceEvent {
                t_start_ns: 100,
                t_end_ns: 600,
                kind: EventKind::Wait {
                    cause: WaitCause::BlockArrival,
                },
            },
            TraceEvent {
                t_start_ns: 50,
                t_end_ns: 800,
                kind: EventKind::Flight {
                    op: CommOp::Get,
                    key: key(),
                    id: 7,
                },
            },
            TraceEvent {
                t_start_ns: 400,
                t_end_ns: 400,
                kind: EventKind::CacheFill {
                    key: key(),
                    bytes: 64,
                },
            },
        ];
        tl.ranks.push(RankTrace {
            rank: 1,
            label: "worker 1".into(),
            events,
            dropped: 0,
        });
        let json = tl.to_chrome_json(None);
        let lint = lint_text(&json).expect("lints clean");
        let r = lint.ranks.get(&1).expect("rank 1 present");
        assert_eq!(r.label, "worker 1");
        assert_eq!(r.spans, 2);
        assert_eq!(r.flights, 1);
        assert!(r.cats.contains("instruction"));
        assert!(r.cats.contains("wait"));
        assert!(r.cats.contains("comm"));
    }

    #[test]
    fn lint_rejects_overlapping_spans() {
        // Two X spans on one tid that cross instead of nesting.
        let bad = r#"{"traceEvents":[
            {"name":"a","cat":"instruction","ph":"X","pid":1,"tid":0,"ts":0.0,"dur":1.0},
            {"name":"b","cat":"instruction","ph":"X","pid":1,"tid":0,"ts":0.5,"dur":1.0}
        ]}"#;
        assert!(lint_text(bad).is_err());
    }

    #[test]
    fn lint_rejects_unbalanced_async() {
        let bad = r#"{"traceEvents":[
            {"name":"g","cat":"comm","ph":"b","pid":1,"tid":1,"ts":0.0,"id":"0x1"}
        ]}"#;
        assert!(lint_text(bad).is_err());
    }

    #[test]
    fn lint_accepts_multicast_parent_chain() {
        // Root hop on rank 1, forwarded hop on rank 2 correlated back to it.
        let mut tl = TraceTimeline::default();
        let root = (1u64 << 48) | 7;
        let hop = (2u64 << 48) | 9;
        tl.ranks.push(RankTrace {
            rank: 1,
            label: "worker 1".into(),
            events: vec![TraceEvent {
                t_start_ns: 10,
                t_end_ns: 10,
                kind: EventKind::Multicast {
                    key: key(),
                    id: root,
                    parent: 0,
                },
            }],
            dropped: 0,
        });
        tl.ranks.push(RankTrace {
            rank: 2,
            label: "worker 2".into(),
            events: vec![TraceEvent {
                t_start_ns: 20,
                t_end_ns: 20,
                kind: EventKind::Multicast {
                    key: key(),
                    id: hop,
                    parent: root,
                },
            }],
            dropped: 0,
        });
        let lint = lint_text(&tl.to_chrome_json(None)).expect("lints clean");
        assert_eq!(lint.ranks[&1].multicasts, 1);
        assert_eq!(lint.ranks[&2].multicasts, 1);
    }

    #[test]
    fn lint_rejects_orphan_multicast_forward() {
        // A forward whose parent hop id appears nowhere in the trace.
        let mut tl = TraceTimeline::default();
        tl.ranks.push(RankTrace {
            rank: 2,
            label: "worker 2".into(),
            events: vec![TraceEvent {
                t_start_ns: 20,
                t_end_ns: 20,
                kind: EventKind::Multicast {
                    key: key(),
                    id: (2u64 << 48) | 9,
                    parent: (1u64 << 48) | 7,
                },
            }],
            dropped: 0,
        });
        let err = lint_text(&tl.to_chrome_json(None)).unwrap_err();
        assert!(err.contains("orphan"), "unexpected error: {err}");
    }

    #[test]
    fn parser_round_trips_basics() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"xA","c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("b").and_then(Json::as_str), Some("xA"));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        // Runs between escapes are copied whole, multi-byte scalars included.
        let v = parse_json(r#"["é→\u00e9\"ß\\", ""]"#).unwrap();
        assert_eq!(v.as_array().unwrap()[0].as_str(), Some("é→é\"ß\\"));
        assert!(parse_json("\"open").is_err());
    }

    /// The file is anybody's: nesting past the cap is an error, not a stack
    /// overflow, and nesting up to it parses.
    #[test]
    fn parser_bounds_nesting() {
        let err = parse_json(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let err = parse_json(&r#"{"a":"#.repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_json(&deep(MAX_JSON_DEPTH)).is_ok());
        assert!(parse_json(&deep(MAX_JSON_DEPTH + 1)).is_err());
    }

    /// A trace of ordinary size lints in the time its length warrants: the
    /// string reader's work per character must not grow with what is left
    /// of the buffer.
    #[test]
    fn megabyte_trace_lints_in_linear_time() {
        let mut tl = TraceTimeline::default();
        let events = (0..8_000u64).map(|i| TraceEvent {
            t_start_ns: i * 100,
            t_end_ns: i * 100 + 50,
            kind: EventKind::Instruction {
                pc: i as u32,
                class: InstructionClass::Control,
            },
        });
        tl.ranks.push(RankTrace {
            rank: 1,
            label: "worker 1".into(),
            events: events.collect(),
            dropped: 0,
        });
        let json = tl.to_chrome_json(None);
        assert!(json.len() >= 1 << 20, "only {} bytes", json.len());
        let t0 = std::time::Instant::now();
        let lint = lint_text(&json).expect("lints clean");
        assert_eq!(lint.ranks[&1].spans, 8_000);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "linting {} bytes took {:?}",
            json.len(),
            t0.elapsed()
        );
    }
}
