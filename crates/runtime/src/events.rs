//! Cross-rank event tracing.
//!
//! Every rank — worker, I/O server, master — owns a [`TraceSink`]: a
//! preallocated ring buffer of fixed-size [`TraceEvent`]s. Recording is a
//! couple of integer stores (no allocation, no locks); a disabled sink is a
//! `None` and every record call is a single branch. At shutdown each rank
//! drains its ring into one [`RankTrace`] and ships it to the master —
//! workers inside `WorkerDone`, I/O servers inside `ServerDone` — and the
//! runtime sorts them into a [`TraceTimeline`] exported as Chrome-trace
//! JSON (load in Perfetto or `chrome://tracing`).
//!
//! The trace records what the wall waits on, each timed exactly where it
//! happens:
//! * **wait spans** — blocked intervals attributed by [`WaitCause`] and by
//!   the pc of the instruction that blocked. A worker's busy time is the
//!   gaps between them; per-pc busy time is the sampler's
//!   (`sampler.rs`), so the instruction loop reads no clock;
//! * **comm-flight spans** — remote fetch or store issue → reply, correlated
//!   by `ReqId`/`OpId` and drawn as async events so concurrent prefetches
//!   stack; the overlap metric integrates these against wait;
//! * **serve spans** on I/O servers, and instants for served-block
//!   flushes, checkpoint save/restore, recovery and the master's chunk
//!   grants.
//!
//! All timestamps are nanoseconds since a run epoch shared by every
//! rank's sink (one `Instant` captured before the ranks spawn), so the
//! merged timeline needs no clock alignment.

use crate::json::{Document, Json};
use crate::metrics::WaitCause;
use crate::msg::BlockKey;
use std::collections::{BTreeMap, BTreeSet};
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
    /// A blocked interval (span), attributed by cause.
    Wait {
        /// Why the rank was blocked.
        cause: WaitCause,
        /// The instruction that blocked (`None` outside the program, as in
        /// the end-of-run barrier).
        pc: Option<u32>,
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
    /// A block an I/O server served to a requester (span: it can include
    /// a disk read).
    Serve {
        /// The block served.
        key: BlockKey,
        /// Whether the serve went to disk.
        disk: bool,
    },
    /// An I/O server wrote one dirty block back to its store (instant).
    Flush,
    /// A rank reached a checkpoint save or restore: a worker handed its
    /// part over, the master has every part (instant).
    Checkpoint {
        /// True for restore, false for save.
        restore: bool,
    },
    /// A recovery happening (instant).
    Recovery {
        /// What happened.
        what: RecoveryEvent,
    },
    /// The master granted a pardo chunk (instant, one per `ChunkAssign`).
    Grant {
        /// Pc of the pardo's `PardoStart`.
        pc: u32,
        /// The granted worker's rank (its pid in the export).
        worker: u32,
        /// Iterations in the chunk.
        iterations: u32,
        /// Of those, how many came from another worker's owner-compute
        /// bucket (0 in a region without an owner).
        stolen: u32,
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

    /// Records a span between two clock readings the caller already took
    /// for its own accounting, so tracing adds no clock read of its own.
    pub(crate) fn span(&mut self, kind: EventKind, start: Instant, end: Instant) {
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
            let now = Instant::now();
            self.span(kind, now, now);
        }
    }

    /// Drains the ring (chronological order restored) into the trace this
    /// rank ships to the master; `None` when the sink is disabled. The sink
    /// records nothing afterwards.
    pub(crate) fn drain(&mut self, rank: usize, label: String) -> Option<RankTrace> {
        let s = self.0.as_mut()?;
        let mut events = std::mem::take(&mut s.buf);
        events.rotate_left(std::mem::take(&mut s.head));
        Some(RankTrace {
            rank,
            label,
            events,
            dropped: std::mem::take(&mut s.dropped),
        })
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
    /// `chrome://tracing` load it). Each rank renders as a process whose
    /// `process_name` metadata also carries the rank's ring `dropped`
    /// count: tid 0 carries the synchronous spans (wait, serve) and the
    /// instants, comm flights render as async `b`/`e` pairs so concurrent
    /// prefetches stack instead of colliding.
    pub fn to_chrome_json(&self) -> String {
        let mut events = Vec::new();
        for r in &self.ranks {
            let name = |n: &str| vec![("name", Json::from(n))];
            let process = vec![
                ("name", r.label.as_str().into()),
                ("dropped", r.dropped.into()),
            ];
            events.push(meta("process_name", r.rank, 0, process));
            events.push(meta("thread_name", r.rank, 0, name("execute")));
            if r.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::Flight { .. }))
            {
                events.push(meta("thread_name", r.rank, 1, name("comm")));
            }
            let mut ordered: Vec<&TraceEvent> = r.events.iter().collect();
            ordered.sort_by_key(|e| (e.t_start_ns, std::cmp::Reverse(e.t_end_ns)));
            for e in ordered {
                emit_event(&mut events, r.rank, e);
            }
        }
        Json::obj([
            ("displayTimeUnit", "ms".into()),
            ("traceEvents", Json::Arr(events)),
        ])
        .to_string()
    }
}

fn meta(what: &str, pid: usize, tid: u64, args: Vec<(&'static str, Json)>) -> Json {
    Json::obj([
        ("name", what.into()),
        ("ph", "M".into()),
        ("pid", pid.into()),
        ("tid", tid.into()),
        ("args", Json::obj(args)),
    ])
}

/// Microseconds with nanosecond precision, as Chrome's `ts` wants.
fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1e3)
}

/// One event: the members every event starts with, then `rest`.
fn event(
    name: &str,
    cat: &str,
    ph: &str,
    pid: usize,
    tid: u64,
    ns: u64,
    rest: Vec<(&'static str, Json)>,
) -> Json {
    let head = [
        ("name", name.into()),
        ("cat", cat.into()),
        ("ph", ph.into()),
        ("pid", pid.into()),
        ("tid", tid.into()),
        ("ts", us(ns)),
    ];
    Json::obj(head.into_iter().chain(rest))
}

fn emit_event(out: &mut Vec<Json>, rank: usize, e: &TraceEvent) {
    let dur_ns = e.t_end_ns - e.t_start_ns;
    let dur = ("dur", us(dur_ns));
    let instant = ("s", Json::from("t"));
    let hex = |id: u64| ("id", Json::from(format!("0x{id:x}")));
    let (name, cat, ph, rest) = match e.kind {
        EventKind::Wait { cause, pc } => {
            let pc = pc.map(|pc| ("pc", pc.into()));
            let args = Json::obj([("cause", cause.key().into())].into_iter().chain(pc));
            (
                format!("wait: {}", cause.label()),
                "wait",
                "X",
                vec![dur, ("args", args)],
            )
        }
        EventKind::Flight { op, key, id } => {
            let uid = ((rank as u64) << 48) | (id & 0xffff_ffff_ffff);
            let args = Json::obj([("id", id.into())]);
            (
                format!("{} {key:?}", op.label()),
                "comm",
                "b",
                vec![hex(uid), ("args", args)],
            )
        }
        EventKind::Serve { key, disk } => {
            let args = ("args", Json::obj([("disk", disk.into())]));
            let (ph, shape) = if dur_ns == 0 {
                ("i", instant)
            } else {
                ("X", dur)
            };
            (format!("serve {key:?}"), "serve", ph, vec![shape, args])
        }
        EventKind::Flush => ("flush".into(), "serve", "i", vec![instant]),
        EventKind::Checkpoint { restore } => {
            let what = if restore { "restore" } else { "save" };
            (
                format!("checkpoint {what}"),
                "checkpoint",
                "i",
                vec![instant],
            )
        }
        EventKind::Recovery { what } => (what.label().into(), "recovery", "i", vec![instant]),
        EventKind::Grant {
            pc,
            worker,
            iterations,
            stolen,
        } => {
            let args = Json::obj([
                ("pc", pc.into()),
                ("worker", worker.into()),
                ("iterations", iterations.into()),
                ("stolen", stolen.into()),
            ]);
            ("grant".into(), "grant", "i", vec![instant, ("args", args)])
        }
    };
    // Flights are async begin/end pairs on the comm thread, so overlapping
    // ones stack; the end repeats the begin's name and id.
    if ph == "b" {
        let id = rest[0].clone();
        out.push(event(&name, cat, ph, rank, 1, e.t_start_ns, rest));
        out.push(event(&name, cat, "e", rank, 1, e.t_end_ns, vec![id]));
    } else {
        out.push(event(&name, cat, ph, rank, 0, e.t_start_ns, rest));
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
    /// Event categories seen on this rank.
    pub cats: BTreeSet<String>,
    /// Events the rank's ring overwrote before the export.
    pub dropped: u64,
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
/// begin/end pairs per flight id.
pub fn lint_chrome_trace(doc: &(impl Document + ?Sized)) -> Result<TraceLint, String> {
    let doc = doc.tree()?;
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
            .and_then(Json::as_u64)
            .ok_or(format!("event {i}: missing pid"))?;
        let tid = e
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or(format!("event {i}: missing tid"))?;
        let rank = lint.ranks.entry(pid).or_default();
        if ph == "M" {
            if e.get("name").and_then(Json::as_str) == Some("process_name") {
                let args = e.get("args");
                if let Some(n) = args.and_then(|a| a.get("name")).and_then(Json::as_str) {
                    rank.label = n.to_string();
                }
                let dropped = args.and_then(|a| a.get("dropped"));
                rank.dropped = dropped.and_then(Json::as_u64).unwrap_or(0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::BlockKey;
    use sia_bytecode::ArrayId;

    fn key() -> BlockKey {
        BlockKey::new(ArrayId(1), &[2, 3])
    }

    fn wait(pc: u32) -> EventKind {
        EventKind::Wait {
            cause: WaitCause::BlockArrival,
            pc: Some(pc),
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut s = TraceSink::disabled();
        assert!(!s.is_on());
        s.instant(EventKind::Flush);
        s.span(wait(0), Instant::now(), Instant::now());
        assert!(s.drain(1, "worker 1".into()).is_none());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let epoch = Instant::now();
        let mut s = TraceSink::enabled(16, epoch);
        for i in 0..20u64 {
            let t = epoch + std::time::Duration::from_nanos(i);
            s.span(EventKind::Flush, t, t);
        }
        let trace = s.drain(1, "worker 1".into()).expect("an enabled sink");
        assert_eq!(trace.events.len(), 16);
        assert_eq!(trace.dropped, 4);
        // Oldest four were overwritten; order is chronological.
        assert_eq!(trace.events[0].t_start_ns, 4);
        assert_eq!(trace.events[15].t_start_ns, 19);
        // The export notes the drops in the rank's metadata, and the lint
        // reads them back.
        let tl = TraceTimeline { ranks: vec![trace] };
        let doc = crate::json::parse_json(&tl.to_chrome_json()).unwrap();
        let process = &doc.get("traceEvents").and_then(Json::as_array).unwrap()[0];
        let exported = process.get("args").and_then(|a| a.get("dropped"));
        assert_eq!(exported.and_then(Json::as_u64), Some(4));
        assert_eq!(lint_chrome_trace(&doc).unwrap().ranks[&1].dropped, 4);
    }

    #[test]
    fn chrome_export_lints_clean() {
        let ev = |t_start_ns, t_end_ns, kind| TraceEvent {
            t_start_ns,
            t_end_ns,
            kind,
        };
        let flight = EventKind::Flight {
            op: CommOp::Get,
            key: key(),
            id: 7,
        };
        let restore = EventKind::Checkpoint { restore: true };
        let grant = EventKind::Grant {
            pc: 4,
            worker: 1,
            iterations: 12,
            stolen: 3,
        };
        let tl = TraceTimeline {
            ranks: vec![
                RankTrace {
                    rank: 0,
                    label: "master".into(),
                    events: vec![ev(40, 40, grant)],
                    dropped: 0,
                },
                RankTrace {
                    rank: 1,
                    label: "worker 1".into(),
                    events: vec![
                        ev(100, 600, wait(4)),
                        ev(50, 800, flight),
                        ev(900, 900, restore),
                    ],
                    dropped: 0,
                },
            ],
        };
        let json = tl.to_chrome_json();
        let lint = lint_chrome_trace(&json).expect("lints clean");
        let r = lint.ranks.get(&1).expect("rank 1 present");
        assert_eq!(r.label, "worker 1");
        // Only the wait is a span: the checkpoint is an instant.
        assert_eq!(r.spans, 1);
        assert_eq!(r.flights, 1);
        let cats = ["checkpoint", "comm", "wait"];
        assert!(r.cats.iter().eq(cats), "{:?}", r.cats);
        // The wait names the instruction it blocked.
        let doc = crate::json::parse_json(&json).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let waited = events
            .iter()
            .find(|e| e.get("cat").and_then(Json::as_str) == Some("wait"));
        let pc = waited.and_then(|e| e.get("args")?.get("pc")?.as_u64());
        assert_eq!(pc, Some(4));
        // The master's grant is an instant carrying its chunk's numbers.
        assert!(lint.ranks[&0].cats.iter().eq(["grant"]));
        assert_eq!(lint.ranks[&0].spans, 0);
        let granted = events
            .iter()
            .find(|e| e.get("cat").and_then(Json::as_str) == Some("grant"));
        let arg = |k| granted.and_then(|e| e.get("args")?.get(k)?.as_u64());
        let args = ["pc", "worker", "iterations", "stolen"].map(arg);
        assert_eq!(args, [Some(4), Some(1), Some(12), Some(3)]);
    }

    #[test]
    fn lint_rejects_overlapping_spans() {
        // Two X spans on one tid that cross instead of nesting.
        let bad = r#"{"traceEvents":[
            {"name":"a","cat":"wait","ph":"X","pid":1,"tid":0,"ts":0.0,"dur":1.0},
            {"name":"b","cat":"wait","ph":"X","pid":1,"tid":0,"ts":0.5,"dur":1.0}
        ]}"#;
        assert!(lint_chrome_trace(bad).is_err());
    }

    #[test]
    fn lint_rejects_unbalanced_async() {
        let bad = r#"{"traceEvents":[
            {"name":"g","cat":"comm","ph":"b","pid":1,"tid":1,"ts":0.0,"id":"0x1"}
        ]}"#;
        assert!(lint_chrome_trace(bad).is_err());
    }

    #[test]
    fn megabyte_trace_lints_in_linear_time() {
        let mut tl = TraceTimeline::default();
        let events = (0..10_000u64).map(|i| TraceEvent {
            t_start_ns: i * 100,
            t_end_ns: i * 100 + 50,
            kind: wait(i as u32),
        });
        tl.ranks.push(RankTrace {
            rank: 1,
            label: "worker 1".into(),
            events: events.collect(),
            dropped: 0,
        });
        let json = tl.to_chrome_json();
        assert!(json.len() >= 1 << 20, "only {} bytes", json.len());
        let t0 = std::time::Instant::now();
        let lint = lint_chrome_trace(&json).expect("lints clean");
        assert_eq!(lint.ranks[&1].spans, 10_000);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "linting {} bytes took {:?}",
            json.len(),
            t0.elapsed()
        );
    }
}
